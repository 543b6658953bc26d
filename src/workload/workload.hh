/**
 * @file
 * Workload registry: 17 synthetic multithreaded programs reproducing
 * the sharing structure of the paper's SPLASH-2 and PARSEC
 * benchmarks (Table 1).
 *
 * Each workload is a coroutine program written against ThreadContext;
 * all 16 threads run the same function and differentiate by
 * ctx.self(). The generators are *behavioural* models: they reproduce
 * the benchmark's communication pattern classes (stable / stride /
 * random hot sets, lock-based migratory sharing, pipelines,
 * wavefronts), epoch-count regimes and communicating-miss ratios, not
 * its arithmetic (see DESIGN.md, substitutions).
 */

#ifndef SPP_WORKLOAD_WORKLOAD_HH
#define SPP_WORKLOAD_WORKLOAD_HH

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/task.hh"
#include "sim/thread_context.hh"

namespace spp {

/** Run-time knobs of a workload run. */
struct WorkloadParams
{
    /** Scales iteration counts; 1.0 is the benchmark-default size. */
    double scale = 1.0;

    /** Scaled iteration count helper, clamped to [1, UINT_MAX]
     * before the cast so no scale converts out of range. */
    unsigned
    iters(unsigned base) const
    {
        const double n = base * scale;
        if (!(n >= 1.0))
            return 1;
        if (n >= static_cast<double>(
                     std::numeric_limits<unsigned>::max()))
            return std::numeric_limits<unsigned>::max();
        return static_cast<unsigned>(n);
    }
};

/** A registered workload with its Table 1 reference metadata. */
struct WorkloadSpec
{
    std::string name;
    std::string suite;          ///< "splash2" or "parsec".
    std::string input;          ///< Paper's program input (Table 1).
    unsigned paperStaticCS;     ///< Paper: # static critical sections.
    unsigned paperStaticEpochs; ///< Paper: # static sync-epochs.
    unsigned paperDynEpochs;    ///< Paper: total dyn. epochs per core.
    // lint: allow(std-function) — setup-time binding, not per-event.
    std::function<Task(ThreadContext &, const WorkloadParams &)> run;
};

/** All 17 workloads in the paper's order. */
const std::vector<WorkloadSpec> &workloadRegistry();

/** Find by name; nullptr if unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

} // namespace spp

#endif // SPP_WORKLOAD_WORKLOAD_HH
