/**
 * @file
 * Trace-driven predictor study (the paper's Section 3.2 methodology):
 * record a workload's `.spptrace` op stream from one timing run, save
 * it to disk, reload it, and replay it once with all four
 * destination-set predictors watching its misses and sync-points —
 * none of them steers the replayed machine.
 *
 * Usage: trace_replay [workload] [scale] [trace-file]
 *    or: trace_replay --load FILE
 *
 * --load skips the recording step and studies an existing
 * `.spptrace` — e.g. one written by bench/trace_tool record or
 * import-mcsim. It is replayed under the default 16-core Config{},
 * so the trace must have 16 threads, and its recorded line size is
 * not applied.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/offline.hh"
#include "analysis/report.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "trace/codec.hh"
#include "trace/store.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

/** Replay @p trace under @p cfg and print every predictor's study. */
void
replayAll(const TraceData &trace, const Config &cfg)
{
    const char *const names[] = {"SP", "ADDR", "INST", "UNI"};
    const std::vector<OfflineResult> results = evaluateOffline(
        trace, cfg,
        {PredictorKind::sp, PredictorKind::addr, PredictorKind::inst,
         PredictorKind::uni});

    banner("Offline study (replayed .spptrace)");
    Table t({"predictor", "accuracy %", "attempts",
             "avg set size", "storage KB"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const OfflineResult &r = results[i];
        t.cell(names[i])
            .cell(100.0 * r.accuracy(), 1)
            .cell(r.attempted)
            .cell(r.predictedTargets, 2)
            .cell(static_cast<double>(r.storageBits) / 8.0 / 1024.0,
                  2)
            .endRow();
    }
    t.print();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--load") == 0) {
        const TraceData loaded = loadTraceOrFatal(argv[2]);
        const Config cfg;
        const std::string err = traceReplayError(loaded, cfg);
        if (!err.empty())
            SPP_FATAL("cannot replay {}: {}", argv[2], err);
        std::printf("loaded %llu ops from %s\n",
                    static_cast<unsigned long long>(loaded.totalOps()),
                    argv[2]);
        replayAll(loaded, cfg);
        return 0;
    }

    const std::string workload = argc > 1 ? argv[1] : "streamcluster";
    const double scale =
        argc > 2 ? parsePositiveDouble("scale", argv[2]) : 1.0;
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/spp_" + workload + ".spptrace";

    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return 1;
    }

    // 1. Record the op stream of a live directory-protocol run.
    const Config cfg;
    TraceRecorder rec(cfg.numCores);
    {
        CmpSystem sys(cfg);
        sys.setTraceSink(&rec);
        WorkloadParams params;
        params.scale = scale;
        sys.run([&](ThreadContext &ctx) {
            return spec->run(ctx, params);
        });
    }
    rec.data.meta = traceMetaFor(workload, cfg, scale);
    std::printf("recorded %llu ops from '%s'\n",
                static_cast<unsigned long long>(rec.data.totalOps()),
                workload.c_str());

    // 2. Round-trip through the on-disk format.
    std::string err;
    if (!writeFileBytesAtomic(path, encodeTrace(rec.data), err))
        SPP_FATAL("cannot write {}: {}", path, err);
    const TraceData loaded = loadTraceOrFatal(path);
    std::printf("saved and reloaded %llu ops from %s\n",
                static_cast<unsigned long long>(loaded.totalOps()),
                path.c_str());

    // 3. Replay it once under the recording config.
    replayAll(loaded, cfg);
    return 0;
}
