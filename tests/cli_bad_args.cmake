# Runs an example or bench binary with malformed arguments or environment and
# checks that each run exits 2 with the expected message on stderr and
# nothing on stdout, i.e. before any dataset is built or any training starts.
#
#   cmake -DCLI=<path to binary>
#         [-DCHECKS=correctnet_cli|serve_demo|fault_sweep|paper]
#         -P tests/cli_bad_args.cmake
#
# CHECKS picks the binary's case list (default correctnet_cli).
#
# expect_rejected(<stderr substring> [ENV VAR=value...] [ARGS] <args...>)
# runs the binary under `cmake -E env` with the given variables, in
# ${workdir} (default: the current directory).
set(workdir "${CMAKE_CURRENT_BINARY_DIR}")
function(expect_rejected expect_err)
  cmake_parse_arguments(PARSE_ARGV 1 run "" "" "ENV;ARGS")
  set(args ${run_ARGS} ${run_UNPARSED_ARGUMENTS})
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ${run_ENV} "${CLI}" ${args}
                  WORKING_DIRECTORY "${workdir}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  list(JOIN args " " shown)
  set(what "${run_ENV} ${CLI} ${shown}")
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${what}: exit ${code}, expected 2\n${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${what}: wrote to stdout before failing:\n${out}")
  endif()
  string(FIND "${err}" "${expect_err}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${what}: stderr lacks '${expect_err}':\n${err}")
  endif()
endfunction()

if(NOT DEFINED CHECKS)
  set(CHECKS correctnet_cli)
endif()

if(CHECKS STREQUAL "correctnet_cli")
  # Numeric flags parse in full: a typo is an error naming the flag.
  expect_rejected("--chips expects an integer, got '1O'" faults --chips 1O)
  expect_rejected("--epochs expects an integer, got '3x'" --epochs 3x)
  expect_rejected("--statusz-port expects an integer, got 'abc'" --statusz-port abc)
  expect_rejected("--sigma expects a number, got '0.5s'" faults --sigma 0.5s)
  # Fusion is always on: the old flag is an unknown one on both commands.
  expect_rejected("usage:" --fusion on)
  expect_rejected("usage:" faults --fusion on)
  # One validation rule on every surface: the sink table's environment
  # layer fails like a bad flag, --version included.
  expect_rejected("CORRECTNET_STATUSZ_PORT expects a port in 0..65535, got '70000'"
                  ENV CORRECTNET_STATUSZ_PORT=70000 ARGS --version)
  expect_rejected("cannot open /nonexistent/x"
                  ENV CORRECTNET_METRICS_STREAM=/nonexistent/x ARGS --version)
  expect_rejected("CORRECTNET_LOG expects quiet|info|debug, got 'loud'"
                  ENV CORRECTNET_LOG=loud ARGS --version)
  expect_rejected("--statusz-port expects a port in 0..65535, got '-5'"
                  faults --statusz-port -5)
  set(cfg "${CMAKE_CURRENT_BINARY_DIR}/cli_bad_args_sinks.cfg")
  file(WRITE "${cfg}" "stuck.rates = 0.01\nstatusz_port = -5\n")
  expect_rejected("statusz_port expects a port in 0..65535, got '-5'"
                  faults --config "${cfg}")
  file(REMOVE "${cfg}")
  # Degenerate severities and device sigmas fail the campaign config before
  # training: drift at t = 0 would program NaN conductances, a NaN sigma
  # would read as no noise.
  file(WRITE "${cfg}" "drift.times = 0\n")
  expect_rejected("drift: t_ratio must be finite and > 0, got 0"
                  faults --config "${cfg}")
  file(WRITE "${cfg}" "stuck.rates = 0.01\nprogram_sigma = nan\n")
  expect_rejected("program_sigma must be finite and >= 0, got nan"
                  faults --config "${cfg}")
  file(REMOVE "${cfg}")
  # --quiet duplicated --log-level quiet and is gone.
  expect_rejected("usage:" faults --quiet)
  # The network and dataset pick a recipe (core/recipe.h): an unknown name
  # or a pair the paper does not train has none, and fails before any output.
  expect_rejected("unknown network 'foo' (lenet|vgg)"
                  --net foo --epochs 1 --train 64 --test 32 --mc 2)
  expect_rejected("unknown dataset 'foo' (digits|objects10|objects100)"
                  --dataset foo)
  expect_rejected("no recipe for vgg on digits" --net vgg --dataset digits)
  expect_rejected("no recipe for lenet on objects100" --dataset objects100)
elseif(CHECKS STREQUAL "serve_demo")
  expect_rejected("--queue-limit expects an integer, got '6O'" --queue-limit 6O)
  expect_rejected("--linger-s expects a number, got '1s'" --linger-s 1s)
  expect_rejected("--drill expects a number, got '0.05x'" --drill 0.05x)
  expect_rejected("unknown flag --bogus" --bogus)
  expect_rejected("usage:" --linger-s)
  expect_rejected("usage:" --slo-p99-ms -1)
  expect_rejected("negative threshold" --models a --queue-limit -3)
  expect_rejected("cannot open /nonexistent/serving.cfg"
                  --config /nonexistent/serving.cfg)
  expect_rejected("--statusz-port expects a port in 0..65535, got '70000'"
                  --statusz-port 70000)
  expect_rejected("CORRECTNET_LOG expects quiet|info|debug, got 'loud'"
                  ENV CORRECTNET_LOG=loud)
elseif(CHECKS STREQUAL "fault_sweep")
  expect_rejected("--chips expects an integer, got '1O'" --chips 1O)
  expect_rejected("--rate expects a number, got '0.05x'" --rate 0.05x)
  expect_rejected("--parallel expects an integer, got '2.5'" --parallel 2.5)
  expect_rejected("usage:" --bogus 1)
  expect_rejected("usage:" --chips 2 --spare)
  expect_rejected("usage:" --spare -2)
  expect_rejected("usage:" --parallel -1)
  expect_rejected("usage:" --rate 1.5)
  expect_rejected("usage:" --chips 0)
elseif(CHECKS STREQUAL "paper")
  # Every case runs in an empty directory that must stay empty: no CSV
  # (not even a header row) and no cnet_cache/.
  set(workdir "${CMAKE_CURRENT_BINARY_DIR}/paper_bad_args")
  file(REMOVE_RECURSE "${workdir}")
  file(MAKE_DIRECTORY "${workdir}")
  expect_rejected("usage:")
  expect_rejected("usage:" bogus)
  expect_rejected("usage:" table1 fig2)
  expect_rejected("CORRECTNET_MC expects an integer >= 0, got '1O'"
                  ENV CORRECTNET_MC=1O ARGS table1)
  expect_rejected("CORRECTNET_TEST expects an integer >= 1, got '0'"
                  ENV CORRECTNET_TEST=0 ARGS all)
  file(GLOB left "${workdir}/*")
  if(left)
    message(FATAL_ERROR "paper wrote files before failing: ${left}")
  endif()
  file(REMOVE_RECURSE "${workdir}")
else()
  message(FATAL_ERROR "unknown CHECKS '${CHECKS}'")
endif()
