# Run one figure/table/ablation driver at SPP_BENCH_SCALE=0.05 with
# --cores CORES --jobs 2 and compare the first 16 hex digits of the
# SHA-256 of its stdout with the recorded digest:
#
#   cmake -DDRIVER=build/bench/fig07_accuracy -DCORES=16 \
#         -DWANT=0123456789abcdef -P tests/check_driver_stdout.cmake
#
# The simulator is deterministic and stdout does not depend on --jobs,
# so any change to a printed figure shows up here. Every SPP_* variable
# that could steer the run is cleared first.
foreach(var SPP_JOBS SPP_PROGRESS SPP_TELEMETRY SPP_TELEMETRY_PERIOD
            SPP_ATTRIBUTION SPP_ATTRIBUTION_REGION SPP_ATTRIBUTION_TOPK
            SPP_TRACE_DIR SPP_TRACE_RECORD SPP_TRACE_REPLAY
            SPP_RESULT_STORE SPP_SELF_PROFILE SPP_DEBUG_LINE)
    unset(ENV{${var}})
endforeach()
set(ENV{SPP_BENCH_SCALE} 0.05)

execute_process(COMMAND ${DRIVER} --cores ${CORES} --jobs 2
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${DRIVER} --cores ${CORES} exited ${rc}")
endif()
string(SHA256 got "${out}")
string(SUBSTRING "${got}" 0 16 got)
if(NOT got STREQUAL WANT)
    message(FATAL_ERROR "${DRIVER} --cores ${CORES}: stdout digest "
                        "${got}, recorded ${WANT}")
endif()
