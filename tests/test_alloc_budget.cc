/**
 * @file
 * Heap-allocation budgets of the simulator's hot paths.
 *
 * This binary replaces the global operator new with a counting one,
 * so every allocation the simulator makes here is seen. The budgets
 * are exact work counts, independent of host speed:
 *
 *  - CoreSet algebra on members below 64 allocates nothing (the
 *    inline word covers them; only cores >= 64 need the heap tail).
 *  - Once its freelist has grown to the peak number of pending
 *    events, the event queue schedules and runs events without
 *    allocating.
 *  - A 16-core run of a paper workload, after a warm-up run, makes at
 *    most a quarter of an allocation per simulated access under each
 *    of the four protocols (directory, broadcast, predicted+sp,
 *    multicast+sp). The access path itself (thread context, memory
 *    system, line locks, directory, mesh, event queue) allocates
 *    nothing in steady state; what remains is a fresh system's
 *    first-touch growth (event-node chunks, pools, tables) and
 *    sync-manager bookkeeping.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/config.hh"
#include "common/core_set.hh"
#include "event/event_queue.hh"
#include "sim/cmp_system.hh"
#include "workload/workload.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

// GCC pairs the replaced operator new with its own delete and flags
// free() on the result; both sides here are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// The array forms are replaced too: sanitizer runtimes supply their
// own operator new[] that would bypass the counter.
void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

using namespace spp;

TEST(AllocBudget, CoreSetAlgebraBelow64AllocatesNothing)
{
    const std::uint64_t before = allocs();
    CoreSet acc;
    unsigned checksum = 0;
    for (CoreId i = 0; i < 64; ++i) {
        CoreSet a = CoreSet::single(i);
        CoreSet b{i, (i * 7) % 64, 63};
        CoreSet c = CoreSet::all(i + 1);
        acc |= a | b;
        acc &= c | CoreSet::fromMask(~CoreSet::Word{0});
        CoreSet d = (b - a) & c;
        CoreSet e(d);
        e = b;
        CoreSet f(std::move(e));
        f = std::move(d);
        f.reset(i);
        f.set((i + 1) % 64);
        checksum += f.count() + acc.count() +
            static_cast<unsigned>(b.contains(a)) +
            static_cast<unsigned>(a.intersects(c)) +
            static_cast<unsigned>(f == b);
        for (CoreId m : b)
            checksum += m;
        if (!b.empty())
            checksum += b.first();
        acc.clear();
    }
    EXPECT_EQ(allocs() - before, 0u);
    EXPECT_GT(checksum, 0u);
}

TEST(AllocBudget, CoreSetTailIsAllocatedOnceAndReused)
{
    // The counter sees CoreSet's tail: the first core >= 64 costs one
    // allocation; copy-assigning into a set that owns a tail, and
    // clearing it, cost none.
    std::uint64_t before = allocs();
    CoreSet wide = CoreSet::single(64);
    EXPECT_EQ(allocs() - before, 1u);

    CoreSet slot = CoreSet::single(100);
    before = allocs();
    for (CoreId c = 64; c < maxCores; ++c) {
        slot = CoreSet::single(1);
        slot = wide;
        slot.set(c);
        slot.clear();
        wide.set(c);
    }
    EXPECT_EQ(allocs() - before, 0u);
    EXPECT_EQ(wide.count(), maxCores - 64);
}

TEST(AllocBudget, EventQueueSteadyStateAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // One round: a 63-event same-tick fan-out (a 64-core broadcast's
    // snoops), a chain of short hops and a far-future event.
    auto round = [&] {
        for (int i = 0; i < 63; ++i)
            eq.scheduleAfter(3, [&fired] { ++fired; });
        for (Tick d = 1; d <= 8; ++d)
            eq.scheduleAfter(d, [&fired, &eq] {
                ++fired;
                eq.scheduleAfter(2, [&fired] { ++fired; });
            });
        eq.scheduleAfter(5000, [&fired] { ++fired; });
        eq.run();
    };
    round(); // Warm-up: grows the freelist and the far heap.
    const std::uint64_t before = allocs();
    for (int r = 0; r < 100; ++r)
        round();
    EXPECT_EQ(allocs() - before, 0u);
    EXPECT_EQ(fired, 101u * (63 + 16 + 1));
}

namespace {

struct CellAllocs
{
    std::uint64_t allocs = 0;
    std::uint64_t accesses = 0;
};

/** Run @p app on a fresh system twice (the first run warms up
 * process-wide state) and count the second run's allocations. */
CellAllocs
measureCell(const std::string &app, Protocol protocol,
            PredictorKind predictor)
{
    Config cfg;
    cfg.protocol = protocol;
    cfg.predictor = predictor;
    cfg.validate();
    const WorkloadSpec *spec = findWorkload(app);
    EXPECT_NE(spec, nullptr) << app;
    if (spec == nullptr)
        return {};
    WorkloadParams params;
    params.scale = 0.1;
    const CmpSystem::ThreadFn fn = [spec, params](ThreadContext &ctx) {
        return spec->run(ctx, params);
    };

    CellAllocs cell;
    for (int pass = 0; pass < 2; ++pass) {
        CmpSystem sys(cfg);
        RunResult r;
        const std::uint64_t before = allocs();
        EXPECT_EQ(sys.tryRun(fn, r), RunStatus::ok) << app;
        cell.allocs = allocs() - before;
        cell.accesses = r.mem.accesses.value();
    }
    return cell;
}

class AllocBudgetCell
    : public ::testing::TestWithParam<std::tuple<Protocol, PredictorKind>>
{};

} // namespace

TEST_P(AllocBudgetCell, AtMostAQuarterAllocationPerAccess)
{
    const auto [protocol, predictor] = GetParam();
    for (const char *app : {"ocean", "fft", "radiosity", "streamcluster",
                            "fmm", "fluidanimate"}) {
        const CellAllocs c = measureCell(app, protocol, predictor);
        ASSERT_GT(c.accesses, 0u) << app;
        const double per_access = static_cast<double>(c.allocs) /
            static_cast<double>(c.accesses);
        EXPECT_LE(per_access, 0.25)
            << app << ": " << c.allocs << " allocations over "
            << c.accesses << " accesses";
        RecordProperty(std::string(app) + "_allocs_per_access",
                       std::to_string(per_access));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Paper16, AllocBudgetCell,
    ::testing::Values(
        std::tuple{Protocol::directory, PredictorKind::none},
        std::tuple{Protocol::broadcast, PredictorKind::none},
        std::tuple{Protocol::predicted, PredictorKind::sp},
        std::tuple{Protocol::multicast, PredictorKind::sp}),
    [](const auto &info) {
        const std::string name = toString(std::get<0>(info.param));
        return std::get<1>(info.param) == PredictorKind::sp
            ? name + "_sp"
            : name;
    });
