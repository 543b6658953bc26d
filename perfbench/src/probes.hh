/**
 * @file
 * Isolated layer replays of the traced run, and the checker batch
 * shared by the check16 workload and the other workloads' probes.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "check/fuzzer.hh"
#include "check/model_checker.hh"

namespace perfbench {

/** One live cell the layer replays are driven from. */
struct Sample
{
    std::string workload;     ///< Registry name or "fuzz".
    spp::Config cfg;
    double scale = 1.0;
    spp::CmpSystem::ThreadFn live;
};

/** A live cell running registry workload @p name. */
Sample registrySample(const std::string &name, const spp::Config &cfg,
                      double scale);

/**
 * Capture each sample once (op trace, access stream, sync points and
 * miss outcomes), then time the layers in isolation:
 * workload.ns_per_op (live minus replay twin, per op), trace.*
 * (encode/decode of the captured trace), service.* (put/get of the
 * result), mem.lookup_ns (fresh CacheArrays fed the access stream)
 * and predict.replay_ns_per_miss (a fresh SpPredictor fed the sync
 * points and misses). Output checks (replay equals its live twin,
 * observers inert, warm entry equals cold) fold into @p checks.
 */
void probeSamples(const std::vector<Sample> &samples,
                  const std::string &work_dir, Metrics &m, Tally &checks);

/** Fuzz cases and model-checker explorations of one batch. */
struct CheckPlan
{
    std::vector<spp::FuzzCase> fuzz;
    std::vector<spp::ModelCheckOptions> mc;
};

/** Host time and work of one checker batch. */
struct CheckStats
{
    double fuzzBuildSeconds = 0, fuzzRunSeconds = 0, mcSeconds = 0;
    std::uint64_t fuzzMsgs = 0;
    std::uint64_t mcExecs = 0, statesHashed = 0, statesPruned = 0;

    void
    merge(const CheckStats &o)
    {
        fuzzBuildSeconds += o.fuzzBuildSeconds;
        fuzzRunSeconds += o.fuzzRunSeconds;
        mcSeconds += o.mcSeconds;
        fuzzMsgs += o.fuzzMsgs;
        mcExecs += o.mcExecs;
        statesHashed += o.statesHashed;
        statesPruned += o.statesPruned;
    }
};

/** @p n seeded fuzz cases per protocol and the scripted explorations. */
CheckPlan checkPlan(std::uint64_t seed, unsigned n_seeds, unsigned cores,
                    const std::vector<std::string> &mc_workloads);

/** Run every fuzz case with the invariant checker attached, then
 * every exploration. */
CheckStats runChecks(const CheckPlan &plan, Tally &t, bool profile);

/** check.* metrics from a batch's statistics. */
void checkMetrics(const CheckStats &s, Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
