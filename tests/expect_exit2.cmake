# Strict-CLI check: run BINARY once per argument set in CASES and fail
# unless every run exits with status exactly 2 (usage error). Any other
# status — 0 from silently running something else, 1 from a failed run,
# a signal from a crash — fails the test. With STDERR set, each run's
# standard error must also match that regular expression, which pins
# which layer rejected the arguments. STATUS replaces the expected 2,
# e.g. 1 for a run whose requested output fails to write at the end.
#
#   cmake -DBINARY=path "-DCASES=args one|args two" [-DSTDERR=regex]
#         [-DSTATUS=n] -P expect_exit2.cmake
#
# CASES separates argument sets with '|'; each set is split like a shell
# command line.

if(NOT BINARY OR NOT CASES)
    message(FATAL_ERROR
            "usage: cmake -DBINARY=... -DCASES=... -P expect_exit2.cmake")
endif()
if(NOT DEFINED STATUS)
    set(STATUS 2)
endif()

string(REPLACE "|" ";" cases "${CASES}")
set(failures 0)
foreach(case IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    execute_process(COMMAND ${BINARY} ${args}
                    RESULT_VARIABLE status
                    OUTPUT_QUIET
                    ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "${STATUS}")
        message("FAIL: ${BINARY} ${case} -> ${status}, want ${STATUS}")
        math(EXPR failures "${failures} + 1")
    elseif(DEFINED STDERR AND NOT stderr MATCHES "${STDERR}")
        message("FAIL: ${BINARY} ${case}: stderr does not match "
                "'${STDERR}':\n${stderr}")
        math(EXPR failures "${failures} + 1")
    endif()
endforeach()
if(failures GREATER 0)
    message(FATAL_ERROR "${failures} malformed command line(s) accepted")
endif()
