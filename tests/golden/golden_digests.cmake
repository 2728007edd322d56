# golden_digests — reruns cocoa_sim and compares SHA-256 digests of its
# deterministic output with the committed digests.txt.
#
#   cmake -DCOCOA_SIM=<path to cocoa_sim> -DGOLDEN_DIR=<this directory>
#         -DWORK_DIR=<scratch directory> -P golden_digests.cmake
#
# Each case has one straight run whose artifacts (filtered stdout plus the
# CSVs it writes) are the digests.txt lines, and variant runs that must hash
# to the same digests: other thread counts, and a run restored in a fresh
# process from a mid-run checkpoint. README.md in this directory says what
# is pinned and how to accept a deliberate behaviour change.

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
# blob size of a --checkpoint-at run (the blob layout is not pinned).
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

foreach(est grid ekf lincvx)
  set(case fig7_${est})
  set(args ${fig7} --estimator ${est} --csv run --pos-trace 60)
  run(${case} ${args})
  hash_case(${case} "${single_artifacts}" actual)
  # One variant covers two contracts: window-end fixes batched on four
  # workers, and a mid-run checkpoint (the run then goes on to the end).
  run(${case}@grid-threads=4 ${args} --grid-threads 4
      --checkpoint-at ${ckpt_at} --checkpoint-out "${runs}/${case}.ckpt")
  check_variant(${case} ${case}@grid-threads=4 "${single_artifacts}")
  run(${case}@restored --restore "${runs}/${case}.ckpt" --quiet --counters
      --csv run --pos-trace 60)
  check_variant(${case} ${case}@restored "${single_artifacts}")

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

run(swarm_1k ${swarm} --swarm-threads 0)
hash_case(swarm_1k stdout.txt actual)
run(swarm_1k@swarm-threads=4 ${swarm} --swarm-threads 4
    --checkpoint-at 8 --checkpoint-out "${runs}/swarm_1k.ckpt")
check_variant(swarm_1k swarm_1k@swarm-threads=4 stdout.txt)
run(swarm_1k@restored --restore "${runs}/swarm_1k.ckpt" --quiet)
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
  message("golden_digests: determinism contract broken (a thread-count or "
          "restored run differs from its straight run; no digest update "
          "can fix this):\n  ${joined}\nOutputs are kept in ${runs} for diffing.")
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
