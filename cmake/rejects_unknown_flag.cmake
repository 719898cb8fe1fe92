# Command-line gate (ctest: cli.<binary>).
#
# Runs one bench or example with a flag it does not declare and fails
# unless the binary exits non-zero, names the flag on stderr and prints
# nothing on stdout: runner::CommandLine checks the whole command line
# before the binary does or prints anything else.
#
# Usage: cmake -DBIN=<binary> [-DFLAG=<flag> [-DVALUE=<value>]]
#              -P rejects_unknown_flag.cmake
# FLAG defaults to --no-such-flag; a retired flag is passed with a value.

if(NOT BIN)
  message(FATAL_ERROR "rejects_unknown_flag: pass -DBIN=<binary>")
endif()
if(NOT FLAG)
  set(FLAG --no-such-flag)
endif()

execute_process(COMMAND "${BIN}" ${FLAG} ${VALUE}
                OUTPUT_VARIABLE _out RESULT_VARIABLE _rc ERROR_VARIABLE _err)
if(_rc EQUAL 0)
  message(FATAL_ERROR "rejects_unknown_flag: ${BIN} accepted ${FLAG}\n${_out}")
endif()
string(FIND "${_err}" "${FLAG}" _named)
if(_named EQUAL -1)
  message(FATAL_ERROR "rejects_unknown_flag: stderr does not name ${FLAG}\n${_err}")
endif()
if(NOT _out STREQUAL "")
  message(FATAL_ERROR "rejects_unknown_flag: ${BIN} printed before checking its flags\n${_out}")
endif()
