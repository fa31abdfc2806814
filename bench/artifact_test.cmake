# Runs one bench in the current directory, then diffs each artifact it
# wrote against the committed baseline at the threshold 0. The test
# fails when the bench or any diff exits non-zero.
#
#   cmake -DBENCH=<bench binary> [-DBENCH_ARGS=<arg>[,<arg>...]]
#         -DBENCH_DIFF=<bench_diff binary> -DBASELINE_DIR=<repo root>
#         -DARTIFACTS=<name>[,<name>...] -P artifact_test.cmake
#
# Artifact <name> is BENCH_<name>.json, fresh in the working directory
# and committed in BASELINE_DIR.
string(REPLACE "," ";" bench_args "${BENCH_ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()

string(REPLACE "," ";" artifacts "${ARTIFACTS}")
set(failed "")
foreach(name IN LISTS artifacts)
  execute_process(
    COMMAND "${BENCH_DIFF}" --threshold=0
            "${BASELINE_DIR}/BENCH_${name}.json" "BENCH_${name}.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "BENCH_${name}.json")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "bench_diff --threshold=0 failed: ${failed}")
endif()
