# Runs a bench harness with flags it must reject and checks that each run
# exits 2 without writing anything (before strict parsing, `--help` was
# taken as the output path and `--scale=abc` silently became 0).
#
#   cmake -DBENCH=path/to/serving -DMICRO_ENGINE=path/to/micro_engine
#         -DMICRO_OPTIMIZER=path/to/micro_optimizer
#         -DWORKDIR=scratch/dir -P flags_test.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Runs `bench` with the remaining arguments; it must exit 2 with a usage
# line.
function(expect_rejected bench)
  execute_process(COMMAND "${bench}" ${ARGN}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${bench} ${ARGN}' exited ${rc}, want 2\n${err}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "'${bench} ${ARGN}' printed no usage line:\n${err}")
  endif()
endfunction()

# One case per entry; `|` separates the arguments of a case.
set(cases --help --scale=abc --requests= --threads=1,x --unknown
          "a.json|b.json")
foreach(case ${cases})
  string(REPLACE "|" ";" args "${case}")
  expect_rejected("${BENCH}" ${args})
endforeach()
# micro_engine hands its flags to Google Benchmark, which must reject an
# unknown one before the reference-vs-batched gate runs.
expect_rejected("${MICRO_ENGINE}" --bogus)
expect_rejected("${MICRO_OPTIMIZER}" --bogus)

file(GLOB written "${WORKDIR}/*")
if(written)
  message(FATAL_ERROR "rejected runs wrote files: ${written}")
endif()
