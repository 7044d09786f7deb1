# Passes when `TOOL ARGS` exits 2 with a message on stderr that contains
# EXPECT (the flag or key at fault), and without an FV_CHECK abort.
#
#   cmake -DTOOL=fvsim "-DARGS=storm --nodes 0" -DEXPECT=--nodes -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "${EXPECT}" named)
string(FIND "${err}" "FV_CHECK failed" aborted)
if(NOT rc EQUAL 2 OR named EQUAL -1 OR NOT aborted EQUAL -1)
  message(FATAL_ERROR "`${ARGS}` exited ${rc} (want 2) with stderr naming '${EXPECT}': ${err}")
endif()
