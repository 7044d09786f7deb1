# Passes when `TOOL ARGS` exits 0 or 2: a crash plan may strand work (reported,
# exit 0) or be rejected as bad input (exit 2), but never ends the process on
# a signal, an FV_CHECK abort included.
#
#   cmake -DTOOL=fvsim "-DARGS=lemp --fault-crash 1@20" -P expect_clean_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "2")
  message(FATAL_ERROR "`${ARGS}` exited '${rc}' (want 0 or 2): ${err}")
endif()
