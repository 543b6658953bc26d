# Run trace_replay --load on two files it must refuse and check that
# each run exits exactly 1 (a crash exits otherwise) with the reason:
# a file that is not a .spptrace, and a 4-thread trace the default
# 16-core machine cannot replay.
#
#   cmake -DREPLAY=build/examples/trace_replay \
#         -DTRACE_TOOL=build/bench/trace_tool -DWORK=DIR \
#         -P tests/check_trace_replay_load.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

file(WRITE ${WORK}/not_a_trace.txt "M 999 4096 5 0 1 1\n")
execute_process(COMMAND ${TRACE_TOOL} record fft ${WORK}/fft4.spptrace
                        --scale 0.02 --cores 4
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "trace_tool record exited ${rc}")
endif()

function(expect_refusal file reason)
    execute_process(COMMAND ${REPLAY} --load ${file}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR "--load ${file} exited ${rc}, expected 1:\n"
                            "${out}${err}")
    endif()
    if(NOT err MATCHES "${reason}")
        message(FATAL_ERROR "--load ${file} did not say '${reason}':\n"
                            "${err}")
    endif()
endfunction()

expect_refusal(${WORK}/not_a_trace.txt "bad magic")
expect_refusal(${WORK}/fft4.spptrace
               "trace holds 4 thread streams but the machine has 16 cores")
