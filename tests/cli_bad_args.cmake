# Runs correctnet_cli with malformed arguments and checks that each run exits
# 2 with the expected message on stderr and nothing on stdout, i.e. before
# any dataset is built or any training starts.
#
#   cmake -DCLI=<path to correctnet_cli> -P tests/cli_bad_args.cmake
function(expect_rejected expect_err)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "correctnet_cli ${ARGN}: exit ${code}, expected 2\n${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "correctnet_cli ${ARGN}: wrote to stdout before failing:\n${out}")
  endif()
  string(FIND "${err}" "${expect_err}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "correctnet_cli ${ARGN}: stderr lacks '${expect_err}':\n${err}")
  endif()
endfunction()

# Numeric flags parse in full: a typo is an error naming the flag.
expect_rejected("--chips expects an integer, got '1O'" faults --chips 1O)
expect_rejected("--epochs expects an integer, got '3x'" --epochs 3x)
expect_rejected("--statusz-port expects an integer, got 'abc'" --statusz-port abc)
expect_rejected("--sigma expects a number, got '0.5s'" faults --sigma 0.5s)
# Fusion is always on: the old flag is an unknown one on both commands.
expect_rejected("usage:" --fusion on)
expect_rejected("usage:" faults --fusion on)
