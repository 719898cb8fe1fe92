# Command-line gate (ctest: cli.<binary>).
#
# Runs one bench or example with a flag it does not declare and fails
# unless the binary exits non-zero, names the flag on stderr and prints
# nothing on stdout: runner::CommandLine checks the whole command line
# before the binary does or prints anything else.
#
# Usage: cmake -DBIN=<binary> -P rejects_unknown_flag.cmake

if(NOT BIN)
  message(FATAL_ERROR "rejects_unknown_flag: pass -DBIN=<binary>")
endif()

execute_process(COMMAND "${BIN}" --no-such-flag
                OUTPUT_VARIABLE _out RESULT_VARIABLE _rc ERROR_VARIABLE _err)
if(_rc EQUAL 0)
  message(FATAL_ERROR "rejects_unknown_flag: ${BIN} accepted --no-such-flag\n${_out}")
endif()
string(FIND "${_err}" "--no-such-flag" _named)
if(_named EQUAL -1)
  message(FATAL_ERROR "rejects_unknown_flag: stderr does not name --no-such-flag\n${_err}")
endif()
if(NOT _out STREQUAL "")
  message(FATAL_ERROR "rejects_unknown_flag: ${BIN} printed before checking its flags\n${_out}")
endif()
