# Adds the end-to-end benchmark's cocoa_e2e runner to the cocoa build
# without editing any CMakeLists outside bench/e2e. Pass it at configure time:
#
#   cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_cocoa_INCLUDE=$PWD/bench/e2e/hook.cmake
#
# CMake includes this file right after project(cocoa). The targets are
# defined at the end of the top-level CMakeLists instead, so they see the
# tree's C++ standard, warning flags and library targets.

set(COCOA_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(cocoa_e2e_targets)
  add_executable(cocoa_e2e "${COCOA_E2E_DIR}/cocoa_e2e.cpp")
  target_link_libraries(cocoa_e2e PRIVATE cocoa::core cocoa::exp cocoa::fault)
  target_compile_definitions(cocoa_e2e PRIVATE
                             COCOA_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  add_test(NAME e2e_smoke
           COMMAND Python3::Interpreter "${COCOA_E2E_DIR}/run.py" --smoke
                   --binary $<TARGET_FILE:cocoa_e2e>)
  add_test(NAME e2e_compare_unit
           COMMAND Python3::Interpreter "${COCOA_E2E_DIR}/test_compare.py" -v)
endfunction()

find_package(Python3 REQUIRED COMPONENTS Interpreter)
cmake_language(DEFER CALL cocoa_e2e_targets)
