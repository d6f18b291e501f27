# Runs a bench binary and fails unless it exits with the expected code. A
# crash (abort, signal) reports a non-numeric result and fails too.
#
# Invoked by add_test as:
#   cmake -DBENCH=<binary> -DARGS=<cli args> -DEXPECT=<code>
#         -P expect_exit_code.cmake
if(NOT BENCH OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "BENCH and EXPECT are required")
endif()

separate_arguments(bench_args NATIVE_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=ODN_FAULTS ${BENCH} ${bench_args}
  RESULT_VARIABLE run_result
  OUTPUT_QUIET
  ERROR_VARIABLE run_stderr)
if(NOT "${run_result}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${BENCH} ${ARGS} exited with '${run_result}', expected ${EXPECT}\n"
    "${run_stderr}")
endif()
message(STATUS "exit ${run_result}: ${run_stderr}")
