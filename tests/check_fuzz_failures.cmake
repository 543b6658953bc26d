# Run fuzz_protocol over an injected-bug sweep without --expect-catch
# and check that it exits 1 and names every failing case on its own
# FAIL line:
#
#   cmake -DFUZZ=build/bench/fuzz_protocol \
#         -P tests/check_fuzz_failures.cmake
unset(ENV{SPP_JOBS})

execute_process(COMMAND ${FUZZ} --seeds 3 --inject 1 --no-shrink
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "fuzz_protocol exited ${rc}, expected 1")
endif()
if(NOT out MATCHES "([0-9]+) failures?\n")
    message(FATAL_ERROR "no failure count in:\n${out}")
endif()
set(want ${CMAKE_MATCH_1})
if(want LESS 2)
    message(FATAL_ERROR "${want} failure(s); the sweep must fail "
                        "more than one case to test the listing")
endif()
string(REGEX MATCHALL "\nFAIL " lines "${out}")
list(LENGTH lines got)
if(NOT got EQUAL want)
    message(FATAL_ERROR "${got} FAIL lines for ${want} failures:\n"
                        "${out}")
endif()
