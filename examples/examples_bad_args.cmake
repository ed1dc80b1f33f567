# Feeds malformed or out-of-range numeric arguments to the example programs
# and fails unless every run exits with status 1 (a message on stderr, never
# an abort or a silently truncated value); runs with valid arguments must
# exit 0.
#
#   cmake -DMAKE_DATASET=<binary> -DQUICKSTART=<binary> \
#         -DTRACE_PIPELINE=<binary> -DENV16S_BINNING=<binary> \
#         -DPIG_METAGENOME=<binary> -DWORK_DIR=<dir> -P examples_bad_args.cmake
set(out "${WORK_DIR}/examples_bad_args.fa")

set(failures "")
function(expect status_wanted)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  if(NOT status STREQUAL "${status_wanted}")
    set(failures "${failures}; ${ARGN}: exit ${status}, want ${status_wanted}"
        PARENT_SCOPE)
  endif()
endfunction()

expect(0 "${MAKE_DATASET}" 16s 0.03 "${out}" --reads=20 --seed=3)
expect(0 "${QUICKSTART}" 20 0.5 0.3)

foreach(flag --reads=abc --reads=12x --reads= --reads=0 --reads=-5
             --reads=1e3 --seed=x --seed=-1)
  expect(1 "${MAKE_DATASET}" 16s 0.03 "${out}" ${flag})
endforeach()
foreach(rate abc 0.03x 2 -0.1 nan)
  expect(1 "${MAKE_DATASET}" 16s ${rate} "${out}" --reads=20)
endforeach()
foreach(args "abc" "12x" "0" "-3" "300;7" "300;0.5;-1" "300;nan")
  expect(1 "${QUICKSTART}" ${args})
endforeach()
expect(1 "${TRACE_PIPELINE}" 20x)
expect(1 "${ENV16S_BINNING}" 53R 1.5)
expect(1 "${PIG_METAGENOME}" S9 abc)

if(failures)
  message(FATAL_ERROR "bad arguments must exit 1${failures}")
endif()
