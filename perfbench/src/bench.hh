/**
 * @file
 * Shared pieces of the same-host benchmark: host timers, the counting
 * allocator's totals, and the Tally every timed simulation folds
 * into.
 *
 * The benchmark drives the simulator only through its public entry
 * points (CmpSystem, the workload registry, the .spptrace codec and
 * replay, the result store, the fuzzer pieces and the model checker)
 * and times each call into a layer from outside.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/cmp_system.hh"

namespace perfbench {

using Metrics = std::map<std::string, double>;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Heap allocations made so far by this process (count and bytes). */
struct AllocCount
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};
AllocCount allocCount();

/**
 * The host-speed reference: a fixed kernel, independent of the
 * simulator's code. Half of it makes dependent loads over a 16 MB
 * random cycle; the other half is a branchy loop over a 1 MB one. It
 * is sampled between timed calls, at most every 100 ms. A pass's host times are divided by the
 * pass's speed factor: its median sample over kRefNominalSeconds. On
 * a shared VM the host's speed drifts by up to 1.8x in phases of
 * seconds to minutes. This kernel slows with it, so the quotient moves
 * only with the simulator's own cost.
 */
class HostReference
{
  public:
    static HostReference &get();

    /** Sample the kernel if 100 ms passed since the last sample. */
    void maybeSample();
    /** Sample the kernel now. */
    void sample();
    /** Start a new interval: forget samples and time spent. */
    void reset();
    /** Median sample since reset() over kRefNominalSeconds. */
    double factor() const;
    /** The same over the last three samples: the current speed. */
    double recentFactor() const;
    /** Host time spent sampling since reset(). */
    double spentSeconds() const { return spent_; }

  private:
    HostReference();
    std::vector<std::uint32_t> mem_, core_;
    std::vector<double> samples_;
    double spent_ = 0;
    Clock::time_point last_{};
};

/** FNV-1a, folded incrementally. */
inline std::uint64_t
fnvMix(std::uint64_t h, const std::string &s)
{
    if (h == 0)
        h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Every simulated statistic of one run, as the result store's codec
 * writes it (the store's schema is the statistics list). */
std::string resultJson(const spp::RunResult &r);
/** FNV-1a of resultJson(). */
std::uint64_t runDigest(const spp::RunResult &r);

/** The @p q quantile of a sample, interpolating linearly between
 * order statistics (so few samples give no jumps); 0 if empty. */
double quantile(std::vector<double> v, double q);

/** Run-time options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;        ///< Self-test scale: seconds-long runs.
    std::string workDir;      ///< Scratch for trace and result files.
};

/** Everything accumulated over the timed simulations of one pass. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    double runSeconds = 0;    ///< Host time inside tryRun calls.
    /** The same, each run divided by the speed factor around it. */
    double normRunSeconds = 0;
    double lastRunSeconds = 0;
    double buildSeconds = 0;  ///< Host time inside CmpSystem ctors.
    std::vector<double> buildMs;
    std::vector<double> buildMb;     ///< Heap MB per constructor.

    /**
     * Runs are grouped into rows: one input (app, fuzz seed) under
     * every configuration the workload compares. Host ns per access
     * is sampled per row, because per cell the samples split into a
     * fast (directory, predicted) and a slow (broadcast, multicast)
     * mode of equal size and their median would sit in the gap.
     * Row times are normalised like normRunSeconds.
     */
    std::string row;
    std::map<std::string, std::pair<double, std::uint64_t>> rows;

    // Exact work, summed over runs.
    std::uint64_t accesses = 0, l1Hits = 0, l2Hits = 0, misses = 0;
    std::uint64_t events = 0, packets = 0, routerTraversals = 0;
    std::uint64_t snoops = 0, syncPoints = 0;
    std::uint64_t lockAcquisitions = 0, lockContended = 0;
    double missLatencySum = 0, packetLatencySum = 0;
    std::uint64_t missLatencyCount = 0, packetLatencyCount = 0;
    std::uint64_t runAllocs = 0;
    // Predicted and multicast runs only.
    std::uint64_t predMisses = 0, predTableAccesses = 0;
    std::uint64_t predAttempted = 0, predSufficient = 0;

    // Self-profiler scopes (traced runs only), inclusive.
    std::uint64_t kernelNs = 0, protocolNs = 0, protocolCalls = 0;
    std::uint64_t predictorNs = 0, predictorCalls = 0;
    std::uint64_t nocNs = 0, nocCalls = 0;

    std::uint64_t digest = 0;           ///< All simulated statistics.
    std::vector<std::uint64_t> cellDigests;

    void fail(const std::string &what);
    void add(const spp::RunResult &r, bool predicted);
    void mixDigest(std::uint64_t d);
};

/** Hooks a caller may attach to a built system before it runs. */
using Prepare = std::function<void(spp::CmpSystem &)>;
/** Called after the run with the system still alive. */
using Finish = std::function<void(spp::CmpSystem &, spp::RunStatus)>;

/**
 * Build a CmpSystem for @p cfg, run @p fn on it, and fold the timings
 * and statistics into @p t. The constructor and tryRun are timed
 * separately; hooks run outside both timers. Returns the run's
 * digest (0 on a failed run).
 */
std::uint64_t timedRun(const spp::Config &cfg,
                       const spp::CmpSystem::ThreadFn &fn, bool profile,
                       Tally &t, const std::string &label,
                       const Prepare &prepare = {},
                       const Finish &finish = {},
                       spp::RunResult *out = nullptr);

/** One workload: its untimed set-up and one timed pass. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Prepare inputs; timed as setup_s and repeated. */
    virtual void setup() = 0;
    /** One full pass over the workload's grid. */
    virtual void pass(Tally &t, bool profile) = 0;
    /**
     * Isolated layer replays of the traced run: fills @p m with the
     * per-layer metrics the passes do not give; output checks fold
     * into @p checks.
     */
    virtual void probe(Metrics &m, Tally &checks) = 0;
    /** sp_* metrics of the last pass (simulated, exact). */
    virtual Metrics modelled() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const Options &o);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
