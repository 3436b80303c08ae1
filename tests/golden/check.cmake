# Runs BENCH with its stdout captured to OUT and fails unless OUT is
# byte-identical to GOLDEN.
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P check.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BENCH} (${OUT}) differs from ${GOLDEN}")
endif()
