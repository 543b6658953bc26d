/**
 * @file
 * The counting global allocator, the Tally and the timed run every
 * workload goes through.
 *
 * The allocator lives in the benchmark's own binary, so the library
 * under test is unchanged: every operator new the simulator makes in
 * this process is counted (relaxed atomics; the benchmark runs one
 * simulation at a time).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hh"
#include "service/result_codec.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    return std::malloc(n != 0 ? n : 1);
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (std::max(n, a) + a - 1) / a * a);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

using namespace spp;

namespace {

/** Steps of each half of a sample: a few ms together. */
constexpr unsigned kMemSteps = 10000;
constexpr unsigned kCoreSteps = 60000;
/** One sample's time on the VM the benchmark was written on; it only
 * scales the normalised figures. */
constexpr double kRefNominalSeconds = 0.005;

volatile std::uint64_t g_ref_sink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** One random cycle through @p n slots: a fixed permutation, so every
 * run walks the same addresses. */
std::vector<std::uint32_t>
randomCycle(std::uint32_t n)
{
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = n - 1; i > 1; --i)
        std::swap(order[i], order[1 + xorshift(x) % i]);
    std::vector<std::uint32_t> next(n);
    for (std::uint32_t i = 0; i < n; ++i)
        next[order[i]] = order[(i + 1) % n];
    return next;
}

} // namespace

HostReference &
HostReference::get()
{
    static HostReference ref;
    return ref;
}

HostReference::HostReference()
    : mem_(randomCycle(1u << 22)), core_(randomCycle(1u << 18))
{}

void
HostReference::maybeSample()
{
    if (samples_.empty() ||
        Clock::now() - last_ >= std::chrono::milliseconds(100))
        sample();
}

void
HostReference::sample()
{
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull, acc = 0;
    // Memory half: dependent loads over the 16 MB cycle, which mostly
    // miss the caches and follow the host's memory contention.
    std::uint32_t p = 0;
    const std::size_t mem_mask = mem_.size() - 1;
    for (unsigned i = 0; i < kMemSteps; ++i) {
        p = mem_[(p + (xorshift(x) & 255)) & mem_mask];
        if ((x >> 33) % 3 == 0)
            acc += p;
        else
            acc ^= x;
    }
    // Core half: a cache-resident loop with unpredictable branches,
    // which follows contention for the core itself.
    const std::size_t core_mask = core_.size() - 1;
    for (unsigned i = 0; i < kCoreSteps; ++i) {
        switch ((xorshift(x) ^ p) & 7) {
          case 0: p = core_[p & core_mask]; break;
          case 1: acc += p * 3ull; break;
          case 2: acc ^= x >> 5; p = core_[(p + 1) & core_mask]; break;
          case 3: acc = acc * 31 + p; break;
          case 4: p = core_[(p ^ (x & 1023)) & core_mask]; break;
          case 5: acc = (acc & 1) ? acc >> 1 : acc + 7; break;
          case 6: acc -= p; break;
          default: p = core_[(p + acc) & core_mask]; break;
        }
    }
    g_ref_sink = acc + p;
    last_ = Clock::now();
    const double s = std::chrono::duration<double>(last_ - t0).count();
    samples_.push_back(s);
    spent_ += s;
}

void
HostReference::reset()
{
    samples_.clear();
    spent_ = 0;
}

double
HostReference::factor() const
{
    return quantile(samples_, 0.5) / kRefNominalSeconds;
}

double
HostReference::recentFactor() const
{
    const std::size_t n = std::min<std::size_t>(3, samples_.size());
    return quantile({samples_.end() - static_cast<std::ptrdiff_t>(n),
                     samples_.end()},
                    0.5) /
        kRefNominalSeconds;
}

AllocCount
allocCount()
{
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

std::string
resultJson(const RunResult &r)
{
    ExperimentResult res;
    res.run = r;
    return resultToJson(res).dump();
}

std::uint64_t
runDigest(const RunResult &r)
{
    return fnvMix(0, resultJson(r));
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void
Tally::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
Tally::add(const RunResult &r, bool predicted)
{
    accesses += r.mem.accesses.value();
    l1Hits += r.mem.l1Hits.value();
    l2Hits += r.mem.l2Hits.value();
    misses += r.mem.misses.value();
    events += r.eventsExecuted;
    packets += r.noc.packets.value();
    routerTraversals += r.noc.routerTraversals.value();
    snoops += r.mem.snoopLookups.value();
    syncPoints += r.sync.syncPoints.value();
    lockAcquisitions += r.sync.lockAcquisitions.value();
    lockContended += r.sync.lockContended.value();
    missLatencySum += r.mem.missLatency.sum();
    missLatencyCount += r.mem.missLatency.count();
    packetLatencySum += r.noc.packetLatency.sum();
    packetLatencyCount += r.noc.packetLatency.count();
    if (predicted) {
        predMisses += r.mem.misses.value();
        predTableAccesses += r.predictorTableAccesses;
        predAttempted += r.mem.predictionsAttempted.value();
        predSufficient += r.mem.predictionsSufficient.value();
    }
}

void
Tally::mixDigest(std::uint64_t d)
{
    cellDigests.push_back(d);
    digest = fnvMix(digest, std::to_string(d));
}

std::uint64_t
timedRun(const Config &cfg, const CmpSystem::ThreadFn &fn, bool profile,
         Tally &t, const std::string &label, const Prepare &prepare,
         const Finish &finish, RunResult *out)
{
    HostReference &ref = HostReference::get();
    ref.maybeSample();
    const double f0 = ref.recentFactor();
    ++t.attempted;
    const AllocCount a0 = allocCount();
    const auto t0 = Clock::now();
    CmpSystem sys(cfg);
    const double build = secondsSince(t0);
    const AllocCount a1 = allocCount();
    t.buildSeconds += build;
    t.buildMs.push_back(build * 1e3);
    t.buildMb.push_back(static_cast<double>(a1.bytes - a0.bytes) / 1e6);

    if (profile)
        sys.enableSelfProfiling();
    if (prepare)
        prepare(sys);

    RunResult r;
    const AllocCount b0 = allocCount();
    const auto t1 = Clock::now();
    const RunStatus st = sys.tryRun(fn, r);
    const double run = secondsSince(t1);
    t.runAllocs += allocCount().count - b0.count;
    t.runSeconds += run;
    t.lastRunSeconds = run;

    if (finish)
        finish(sys, st);
    ref.maybeSample();
    // A run longer than the sampling period is bracketed by samples.
    const double norm_run = run / ((f0 + ref.recentFactor()) / 2);
    t.normRunSeconds += norm_run;
    if (const SelfProfiler *p = sys.selfProfiler()) {
        t.kernelNs += p->ns(ProfScope::kernel);
        t.protocolNs += p->ns(ProfScope::protocol);
        t.protocolCalls += p->calls(ProfScope::protocol);
        t.predictorNs += p->ns(ProfScope::predictor);
        t.predictorCalls += p->calls(ProfScope::predictor);
        t.nocNs += p->ns(ProfScope::noc);
        t.nocCalls += p->calls(ProfScope::noc);
    }
    if (st != RunStatus::ok) {
        t.fail(label + ": tryRun " + toString(st));
        t.mixDigest(0);
        return 0;
    }
    const bool predicted = cfg.protocol == Protocol::predicted ||
        cfg.protocol == Protocol::multicast;
    t.add(r, predicted);
    auto &row = t.rows[t.row];
    row.first += norm_run;
    row.second += r.mem.accesses.value();
    const std::uint64_t d = runDigest(r);
    t.mixDigest(d);
    if (out)
        *out = r;
    return d;
}

} // namespace perfbench
