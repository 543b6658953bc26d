/**
 * @file
 * Trace-driven predictor study (the paper's Section 3.2 methodology):
 * record an L2-miss + sync-point trace from one timing run, save it
 * to disk, reload it, and replay it offline through all four
 * destination-set predictors — no timing simulation needed for the
 * comparison.
 *
 * Usage: trace_replay [workload] [scale] [trace-file]
 *    or: trace_replay --load FILE
 *
 * --load skips the recording step and replays an existing trace file
 * — e.g. one saved by bench/fuzz_protocol --report for a failing fuzz
 * case — through all four predictors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/event_trace.hh"
#include "analysis/report.hh"
#include "common/parse.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

/** Replay @p trace offline through every predictor kind. */
void
replayAll(const EventTrace &trace, const Config &cfg)
{
    banner("Offline replay (no timing simulation)");
    Table t({"predictor", "accuracy %", "attempts",
             "avg set size", "storage KB"});
    for (auto [name, kind] :
         {std::pair{"SP", PredictorKind::sp},
          std::pair{"ADDR", PredictorKind::addr},
          std::pair{"INST", PredictorKind::inst},
          std::pair{"UNI", PredictorKind::uni}}) {
        OfflineResult r = evaluateOffline(trace, cfg, kind);
        t.cell(name)
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
        const EventTrace loaded = EventTrace::load(argv[2]);
        std::printf("loaded %zu events from %s\n", loaded.size(),
                    argv[2]);
        replayAll(loaded, Config{});
        return 0;
    }

    const std::string workload = argc > 1 ? argv[1] : "streamcluster";
    const double scale =
        argc > 2 ? parsePositiveDouble("scale", argv[2]) : 1.0;
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/spp_" + workload + ".trace";

    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return 1;
    }

    // 1. Record from a live directory-protocol run.
    Config cfg;
    CmpSystem sys(cfg);
    EventTrace trace;
    trace.attach(sys);
    WorkloadParams params;
    params.scale = scale;
    sys.run([&](ThreadContext &ctx) {
        return spec->run(ctx, params);
    });
    std::printf("recorded %zu events from '%s'\n", trace.size(),
                workload.c_str());

    // 2. Round-trip through the on-disk format.
    trace.save(path);
    EventTrace loaded = EventTrace::load(path);
    std::printf("saved and reloaded %zu events from %s\n",
                loaded.size(), path.c_str());

    // 3. Replay offline through every predictor.
    replayAll(loaded, cfg);
    return 0;
}
