# Run fuzz_protocol over an injected-bug sweep without --expect-catch
# and check that it exits 1 and names every failing case on its own
# FAIL line, then that --report saves the first failure's log:
#
#   cmake -DFUZZ=build/bench/fuzz_protocol -DWORK=DIR \
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

# With --report DIR the first failure's shrunk case leaves one log,
# fuzz_<protocol>_seed<N>.log, naming the failing case and its
# reproducer; nothing else is written there.
set(report ${WORK}/report)
file(REMOVE_RECURSE ${report})
execute_process(COMMAND ${FUZZ} --seeds 1 --inject 1 --protocols directory
                        --report ${report}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "fuzz_protocol --report exited ${rc}, expected 1")
endif()
file(GLOB written RELATIVE ${report} ${report}/*)
if(NOT written STREQUAL "fuzz_directory_seed1.log")
    message(FATAL_ERROR "--report wrote '${written}', expected only "
                        "fuzz_directory_seed1.log")
endif()
file(READ ${report}/fuzz_directory_seed1.log log)
string(CONCAT names
       "^case: --protocol directory [^\n]*--seed 1 [^\n]*\n"
       "reproducer: --protocol directory [^\n]*--seed 1 ")
if(NOT log MATCHES "${names}")
    message(FATAL_ERROR "log does not name the case and its "
                        "reproducer:\n${log}")
endif()
