# golden_digests — reruns cocoa_sim and compares SHA-256 digests of its
# deterministic output with the committed digests.txt.
#
#   cmake -DCOCOA_SIM=<path to cocoa_sim> -DGOLDEN_DIR=<this directory>
#         -DWORK_DIR=<scratch directory> -P golden_digests.cmake
#
# Each case has one straight run whose artifacts (filtered stdout plus the
# CSVs it writes) are the digests.txt lines, and variant runs that must hash
# to the same digests: other thread counts, a run restored in a fresh
# process from a mid-run checkpoint, and the unculled medium. The mid-run
# checkpoint blobs are digests.txt lines of their own (artifact `ckpt`), so
# the blob layout is pinned byte for byte. README.md in this directory says
# what is pinned and how to accept a deliberate behaviour change.

foreach(var COCOA_SIM GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_digests: -D${var}=... is required")
  endif()
endforeach()

set(digests_file "${GOLDEN_DIR}/digests.txt")
set(actual_file "${WORK_DIR}/golden_actual.txt")
set(runs "${WORK_DIR}/runs")
file(REMOVE_RECURSE "${runs}")
file(REMOVE "${actual_file}")

# fig7's team, area, speed and beacon period (50 robots, 25 anchors,
# T = 100 s, 30 simulated minutes) under tests/golden/fault.plan.
set(fig7 --robots 50 --anchors 25 --period 100 --seed 7 --quiet --counters
         --fault-file "${GOLDEN_DIR}/fault.plan")
# Mid-run save point: inside the loss burst, after the outage has ended and
# with the crashed anchor's radio dead, so armed fault state round-trips.
set(ckpt_at 1150)
set(swarm --nodes 1000 --duration 10 --seed 3 --quiet)

# run(<case> <args>...): runs cocoa_sim in runs/<case> and leaves its stdout
# there as stdout.txt, with the three run-dependent fields removed: the
# wall-clock seconds of a --reps run and of a swarm-json line, and the
# line a --checkpoint-at run prints with the blob's size and path (the blob
# itself is hashed as the variant's `ckpt` artifact).
function(run case)
  set(dir "${runs}/${case}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${COCOA_SIM}" ${ARGN}
                  WORKING_DIRECTORY "${dir}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_digests: cocoa_sim ${ARGN} exited with ${rc}\n${err}")
  endif()
  string(REGEX REPLACE "replications, [^ ]+ s of simulation work"
                       "replications, <wall> s of simulation work" out "${out}")
  string(REGEX REPLACE "\"wall_s\":[^,]*," "" out "${out}")
  string(REGEX REPLACE "wrote checkpoint \\([0-9]+ bytes\\) to [^\n]*\n" "" out "${out}")
  file(WRITE "${dir}/stdout.txt" "${out}")
endfunction()

# SHA-256 of each artifact of runs/<case>, as "<case> <artifact> <digest>"
# lines appended to the list named by out_var.
function(hash_case case artifacts out_var)
  set(lines ${${out_var}})
  foreach(artifact IN LISTS artifacts)
    set(path "${runs}/${case}/${artifact}")
    if(NOT EXISTS "${path}")
      message(FATAL_ERROR "golden_digests: ${case} wrote no ${artifact}")
    endif()
    file(SHA256 "${path}" digest)
    list(APPEND lines "${case} ${artifact} ${digest}")
  endforeach()
  set(${out_var} ${lines} PARENT_SCOPE)
endfunction()

set(single_artifacts stdout.txt run_avg_error.csv run_summary.csv run_trace.csv)
set(reps_artifacts stdout.txt run_aggregate.csv)
set(actual "")        # straight runs: compared with digests.txt
set(contract_errors)  # variants that differ from their straight run

# check_variant(<case> <variant> <artifacts>): the variant must reproduce
# every artifact of the straight run byte for byte.
macro(check_variant case variant artifacts)
  set(base_lines "")
  set(variant_lines "")
  hash_case(${case} "${artifacts}" base_lines)
  hash_case(${variant} "${artifacts}" variant_lines)
  string(REPLACE "${variant} " "${case} " variant_lines "${variant_lines}")
  if(NOT base_lines STREQUAL variant_lines)
    list(APPEND contract_errors "${variant} differs from ${case}")
  endif()
endmacro()

# Every value of the estimator axis gets a straight run and its two
# variants; only grid, ekf and lincvx get the _reps case, because the
# thread-count fold does not depend on the backend and the sanitized suite
# stays cheap.
foreach(est grid ekf lincvx rf odom)
  set(case fig7_${est})
  set(args ${fig7} --estimator ${est} --csv run --pos-trace 60)
  run(${case} ${args})
  hash_case(${case} "${single_artifacts}" actual)
  # One variant covers two contracts: window-end fixes batched on four
  # workers, and a mid-run checkpoint (the run then goes on to the end).
  set(blob "${runs}/${case}@grid-threads=4/ckpt")
  run(${case}@grid-threads=4 ${args} --grid-threads 4
      --checkpoint-at ${ckpt_at} --checkpoint-out "${blob}")
  check_variant(${case} ${case}@grid-threads=4 "${single_artifacts}")
  hash_case(${case}@grid-threads=4 ckpt actual)
  run(${case}@restored --restore "${blob}" --quiet --counters
      --csv run --pos-trace 60)
  check_variant(${case} ${case}@restored "${single_artifacts}")
  if(est MATCHES "^(rf|odom)$")
    continue()
  endif()

  # Replications fold in index order at any --threads. Two 10-minute
  # replications keep this case cheap under sanitizers; the reboot and the
  # crash strike within them.
  set(case fig7_${est}_reps)
  set(args ${fig7} --duration 600 --estimator ${est} --reps 2 --csv run)
  run(${case} ${args} --threads 1)
  hash_case(${case} "${reps_artifacts}" actual)
  run(${case}@threads=4 ${args} --threads 4)
  check_variant(${case} ${case}@threads=4 "${reps_artifacts}")
endforeach()

# A sparse team on a 3 km square, where interference culling skips most
# receivers: the full sweep (--no-culling) must reproduce it byte for byte.
set(sparse --robots 40 --anchors 20 --area 3000 --duration 120 --period 30 --seed 3
           --quiet --counters)
run(sparse_3k ${sparse})
hash_case(sparse_3k stdout.txt actual)
run(sparse_3k@no-culling ${sparse} --no-culling)
check_variant(sparse_3k sparse_3k@no-culling stdout.txt)

# A dense team on a 400 m square, where every frame reaches every radio and
# the fanout kernel settles or draws ~150 receivers per frame: the full
# sweep, which takes the scalar draw for each, must reproduce it byte for
# byte.
set(dense --robots 100 --anchors 50 --area 400 --period 20 --duration 300
          --estimator lincvx --seed 5 --quiet --counters)
run(dense_400m ${dense})
hash_case(dense_400m stdout.txt actual)
run(dense_400m@no-culling ${dense} --no-culling)
check_variant(dense_400m dense_400m@no-culling stdout.txt)

# Every fault kind over four replications, folded at one and at four threads.
set(case faults_all_kinds_reps)
set(args --robots 16 --anchors 6 --duration 240 --period 25 --seed 11 --reps 4
         --quiet --counters --fault-file "${GOLDEN_DIR}/fault_all_kinds.plan" --csv run)
run(${case} ${args} --threads 1)
hash_case(${case} "${reps_artifacts}" actual)
run(${case}@threads=4 ${args} --threads 4)
check_variant(${case} ${case}@threads=4 "${reps_artifacts}")
# A digest cannot tell that the plan still fires: each kind's counter must be
# non-zero.
file(READ "${runs}/${case}/stdout.txt" out)
foreach(counter crashes reboots outages loss_bursts clock_drifts odometry_degrades
                battery_deaths)
  if(NOT out MATCHES "fault\\.${counter} +[1-9]")
    list(APPEND contract_errors "${case}: fault.${counter} is missing or zero")
  endif()
endforeach()

run(swarm_1k ${swarm} --swarm-threads 0)
hash_case(swarm_1k stdout.txt actual)
set(blob "${runs}/swarm_1k@swarm-threads=4/ckpt")
run(swarm_1k@swarm-threads=4 ${swarm} --swarm-threads 4
    --checkpoint-at 8 --checkpoint-out "${blob}")
check_variant(swarm_1k swarm_1k@swarm-threads=4 stdout.txt)
hash_case(swarm_1k@swarm-threads=4 ckpt actual)
run(swarm_1k@restored --restore "${blob}" --quiet)
check_variant(swarm_1k swarm_1k@restored stdout.txt)

# Compare with the committed digests; keep its comment header for the
# golden_actual.txt a deliberate change is accepted from.
file(STRINGS "${digests_file}" committed)
set(header "")
set(expected "")
foreach(line IN LISTS committed)
  if(line MATCHES "^#")
    string(APPEND header "${line}\n")
  elseif(NOT line STREQUAL "")
    list(APPEND expected "${line}")
  endif()
endforeach()

set(mismatches "")
foreach(line IN LISTS actual)
  list(FIND expected "${line}" found)
  if(found EQUAL -1)
    string(APPEND mismatches "  now:     ${line}\n")
  endif()
endforeach()
foreach(line IN LISTS expected)
  list(FIND actual "${line}" found)
  if(found EQUAL -1)
    string(APPEND mismatches "  pinned:  ${line}\n")
  endif()
endforeach()

set(failed FALSE)
if(contract_errors)
  set(failed TRUE)
  list(JOIN contract_errors "\n  " joined)
  message("golden_digests: determinism contract broken (a variant run differs "
          "from its straight run, or the fault plan no longer fires; no digest "
          "update can fix this):\n  ${joined}\nOutputs are kept in ${runs} for "
          "diffing.")
endif()
if(NOT mismatches STREQUAL "")
  set(failed TRUE)
  list(JOIN actual "\n" body)
  file(WRITE "${actual_file}" "${header}${body}\n")
  message("golden_digests: output differs from ${digests_file}:\n${mismatches}"
          "Outputs are kept in ${runs} for diffing. If the change is "
          "deliberate, accept it with\n"
          "  cp ${actual_file} ${digests_file}\n"
          "and name every changed digest in CHANGES.md (see README.md).")
endif()
if(failed)
  message(FATAL_ERROR "golden_digests: FAILED")
endif()
list(LENGTH actual n)
message("golden_digests: ${n} digests match ${digests_file}")
