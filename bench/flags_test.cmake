# Runs a bench harness with flags it must reject and checks that each run
# exits 2 without writing anything (before strict parsing, `--help` was
# taken as the output path and `--scale=abc` silently became 0).
#
#   cmake -DBENCH=path/to/serving -DWORKDIR=scratch/dir -P flags_test.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
# One case per entry; `|` separates the arguments of a case.
set(cases --help --scale=abc --requests= --threads=1,x --unknown
          "a.json|b.json")
foreach(case ${cases})
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${BENCH}" ${args}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${BENCH} ${args}' exited ${rc}, want 2\n${err}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "'${BENCH} ${args}' printed no usage line:\n${err}")
  endif()
endforeach()
file(GLOB written "${WORKDIR}/*")
if(written)
  message(FATAL_ERROR "rejected runs wrote files: ${written}")
endif()
