# Figure golden check: run BINARY with no arguments in an empty scratch
# directory WORKDIR and fail unless it exits 0 and its standard output
# is byte-equal to the file GOLDEN. On a mismatch the first line that
# differs is printed from both sides.
#
#   cmake -DBINARY=path -DGOLDEN=path -DWORKDIR=path -P expect_golden.cmake
#
# A change that moves a figure on purpose re-records its golden by
# running the binary the same way and says so in CHANGES.md.

cmake_minimum_required(VERSION 3.16)

if(NOT BINARY OR NOT GOLDEN OR NOT WORKDIR)
    message(FATAL_ERROR "usage: cmake -DBINARY=... -DGOLDEN=... "
                        "-DWORKDIR=... -P expect_golden.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND ${BINARY}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE got)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${BINARY} exited with ${status}, want 0")
endif()

file(READ "${GOLDEN}" want)
if(got STREQUAL want)
    return()
endif()

# Walk both outputs line by line to the first difference. A substring
# length of -1 (no newline left) takes the rest of the output.
set(line 1)
while(TRUE)
    string(FIND "${got}" "\n" got_end)
    string(FIND "${want}" "\n" want_end)
    string(SUBSTRING "${got}" 0 ${got_end} got_line)
    string(SUBSTRING "${want}" 0 ${want_end} want_line)
    if(NOT got_line STREQUAL want_line OR got_end EQUAL -1 OR
       want_end EQUAL -1)
        break()
    endif()
    math(EXPR got_end "${got_end} + 1")
    math(EXPR want_end "${want_end} + 1")
    string(SUBSTRING "${got}" ${got_end} -1 got)
    string(SUBSTRING "${want}" ${want_end} -1 want)
    math(EXPR line "${line} + 1")
endwhile()
if(got_line STREQUAL want_line)
    set(got_line "${got_line} (then the outputs end differently)")
endif()
message(FATAL_ERROR "stdout differs from ${GOLDEN} at line ${line}:\n"
                    "  got:  ${got_line}\n  want: ${want_line}")
