/**
 * @file
 * Unit tests for the set-associative cache array and address map.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"

using namespace spp;

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(4096, 2, 64);
    EXPECT_EQ(c.lookup(0x1000), nullptr);
    EXPECT_EQ(c.stats().misses.value(), 1u);
}

TEST(CacheArray, AllocateThenHit)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    CacheLine *l = c.allocate(0x1000, victim);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(victim.state, Mesif::invalid);
    l->state = Mesif::exclusive;
    CacheLine *hit = c.lookup(0x1000);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tag, 0x1000u);
    EXPECT_EQ(c.stats().hits.value(), 1u);
}

TEST(CacheArray, LruEviction)
{
    // 2 ways, 64B lines, 2 sets -> set stride 128.
    CacheArray c(256, 2, 64);
    CacheLine victim;
    auto fill = [&](Addr a) {
        CacheLine *l = c.allocate(a, victim);
        l->state = Mesif::shared;
    };
    fill(0x0000);
    fill(0x0080); // Same set as 0x0000.
    // Touch 0x0000 so 0x0080 becomes LRU.
    EXPECT_NE(c.lookup(0x0000), nullptr);
    fill(0x0100); // Same set again: must evict 0x0080.
    EXPECT_EQ(victim.tag, 0x0080u);
    EXPECT_EQ(victim.state, Mesif::shared);
    EXPECT_NE(c.peek(0x0000), nullptr);
    EXPECT_EQ(c.peek(0x0080), nullptr);
}

TEST(CacheArray, DirtyEvictionCounted)
{
    CacheArray c(128, 1, 64); // 2 sets, direct mapped.
    CacheLine victim;
    CacheLine *l = c.allocate(0x0000, victim);
    l->state = Mesif::modified;
    c.allocate(0x0080, victim); // Evicts the dirty line.
    EXPECT_EQ(victim.state, Mesif::modified);
    EXPECT_EQ(c.stats().dirtyEvictions.value(), 1u);
}

TEST(CacheArray, Invalidate)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    c.allocate(0x40, victim)->state = Mesif::forwarding;
    EXPECT_EQ(c.invalidate(0x40), Mesif::forwarding);
    EXPECT_EQ(c.peek(0x40), nullptr);
    EXPECT_EQ(c.invalidate(0x40), Mesif::invalid); // Already gone.
}

TEST(CacheArray, ValidCount)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    EXPECT_EQ(c.validCount(), 0u);
    c.allocate(0x40, victim)->state = Mesif::shared;
    c.allocate(0x80, victim)->state = Mesif::modified;
    EXPECT_EQ(c.validCount(), 2u);
}

TEST(CacheArray, PeekDoesNotTouchLru)
{
    CacheArray c(128, 2, 64); // One set, two ways.
    CacheLine victim;
    c.allocate(0x000, victim)->state = Mesif::shared;
    c.allocate(0x040, victim)->state = Mesif::shared;
    // Peek 0x000 (no LRU update) then allocate: 0x000 is still LRU.
    c.peek(0x000);
    c.allocate(0x080, victim);
    EXPECT_EQ(victim.tag, 0x000u);
}

TEST(CacheArray, ForEachValid)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    c.allocate(0x40, victim)->state = Mesif::shared;
    c.allocate(0x80, victim)->state = Mesif::exclusive;
    unsigned n = 0;
    c.forEachValid([&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 2u);
}

TEST(CacheArray, StampsKeepTheirOrderAcrossTheClockWrap)
{
    CacheArray c(256, 4, 64); // One set, four ways.
    CacheLine victim;
    c.setLruClock(std::numeric_limits<std::uint32_t>::max() - 4);
    for (Addr a : {0x000, 0x040, 0x080, 0x0c0})
        c.allocate(a, victim)->state = Mesif::shared;
    // The fills took the last four stamps; this touch wraps the clock.
    EXPECT_NE(c.lookup(0x040), nullptr);
    for (Addr expect : {0x000, 0x080, 0x0c0, 0x040}) {
        c.allocate(0x1000 + expect, victim)->state = Mesif::shared;
        EXPECT_EQ(victim.tag, expect);
    }
}

TEST(CacheArray, InvalidatedWayIsReusedBeforeEviction)
{
    CacheArray c(128, 2, 64); // One set, two ways.
    CacheLine victim;
    c.allocate(0x000, victim)->state = Mesif::modified;
    c.allocate(0x040, victim)->state = Mesif::shared;
    EXPECT_EQ(c.invalidate(0x000), Mesif::modified);
    c.allocate(0x080, victim)->state = Mesif::shared;
    EXPECT_EQ(victim.state, Mesif::invalid);
    EXPECT_EQ(c.stats().evictions.value(), 0u);
    EXPECT_NE(c.peek(0x040), nullptr);
}

TEST(CacheArray, FreshWayIsZeroedAndReusedWayKeepsItsRecord)
{
    CacheArray c(128, 2, 64); // One set, two ways.
    CacheLine victim;
    CacheLine *l = c.allocate(0x000, victim); // Never-used way 0.
    EXPECT_EQ(l->lastPc, 0u);
    EXPECT_EQ(l->version, 0u);
    l->state = Mesif::modified;
    l->lastPc = 0x400100;
    l->version = 7;

    // Way 0 again, after an invalidation: the record is kept.
    EXPECT_EQ(c.invalidate(0x000), Mesif::modified);
    l = c.allocate(0x080, victim);
    EXPECT_EQ(victim.state, Mesif::invalid);
    EXPECT_EQ(l->tag, 0x080u);
    EXPECT_EQ(l->state, Mesif::invalid);
    EXPECT_EQ(l->lastPc, 0x400100u);
    EXPECT_EQ(l->version, 7u);
    l->state = Mesif::shared;
    l->lastPc = 0x400200;
    l->version = 8;

    // Way 1 is still fresh.
    CacheLine *m = c.allocate(0x040, victim);
    EXPECT_EQ(victim.state, Mesif::invalid);
    EXPECT_EQ(m->lastPc, 0u);
    EXPECT_EQ(m->version, 0u);
    m->state = Mesif::exclusive;

    // Full set: 0x080 is the LRU line. The victim copy and the reused
    // way both carry its record.
    l = c.allocate(0x0c0, victim);
    EXPECT_EQ(victim.tag, 0x080u);
    EXPECT_EQ(victim.state, Mesif::shared);
    EXPECT_EQ(victim.lastPc, 0x400200u);
    EXPECT_EQ(victim.version, 8u);
    EXPECT_EQ(l->tag, 0x0c0u);
    EXPECT_EQ(l->state, Mesif::invalid);
    EXPECT_EQ(l->lastPc, 0x400200u);
    EXPECT_EQ(l->version, 8u);
    EXPECT_EQ(c.stats().evictions.value(), 1u);
}

TEST(CacheArray, ClockWrapOnAPartlyFilledSet)
{
    CacheArray c(256, 4, 64); // One set, four ways.
    CacheLine victim;
    c.allocate(0x000, victim)->state = Mesif::shared;
    c.allocate(0x040, victim)->state = Mesif::shared;
    c.setLruClock(std::numeric_limits<std::uint32_t>::max() - 1);
    EXPECT_NE(c.lookup(0x000), nullptr); // Takes the last stamp.
    // These fills take the two unused ways, the first across the
    // wrap, so the stamps are renumbered with a way still unused.
    for (Addr a : {0x080, 0x0c0}) {
        c.allocate(a, victim)->state = Mesif::shared;
        EXPECT_EQ(victim.state, Mesif::invalid);
    }
    EXPECT_EQ(c.stats().evictions.value(), 0u);
    EXPECT_EQ(c.validCount(), 4u);
    for (Addr expect : {0x040, 0x000, 0x080, 0x0c0}) {
        c.allocate(0x1000 + expect, victim)->state = Mesif::shared;
        EXPECT_EQ(victim.tag, expect);
    }
    EXPECT_EQ(c.stats().evictions.value(), 4u);
}

// --- Reference model ---------------------------------------------------
//
// RefCacheArray is the array-of-records formulation: one record per way
// holding tag, state and a 64-bit LRU stamp, each search reading every
// record of the set. CacheArray (tag array, 32-bit stamps renumbered at
// the wrap) must make the same decisions on any stream of lookups,
// peeks, allocate-and-install, in-place updates and invalidations.

namespace {

struct RefLine
{
    Addr tag = 0;
    Mesif state = Mesif::invalid;
    std::uint64_t lru = 0;
    Pc lastPc = 0;
    std::uint64_t version = 0;
};

class RefCacheArray
{
  public:
    RefCacheArray(unsigned size_bytes, unsigned assoc,
                  unsigned line_bytes)
        : n_sets_(size_bytes / (line_bytes * assoc)), assoc_(assoc),
          line_shift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
          lines_(std::size_t{n_sets_} * assoc)
    {}

    RefLine *
    lookup(Addr a)
    {
        ++lookups;
        for (unsigned w = 0; w < assoc_; ++w) {
            RefLine &l = lines_[base(a) + w];
            if (isValid(l.state) && l.tag == a) {
                l.lru = next_lru_++;
                ++hits;
                return &l;
            }
        }
        ++misses;
        return nullptr;
    }

    RefLine *
    find(Addr a)
    {
        for (unsigned w = 0; w < assoc_; ++w) {
            RefLine &l = lines_[base(a) + w];
            if (isValid(l.state) && l.tag == a)
                return &l;
        }
        return nullptr;
    }

    RefLine *
    allocate(Addr a, RefLine &victim)
    {
        victim = RefLine{};
        RefLine *target = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            RefLine &l = lines_[base(a) + w];
            if (!isValid(l.state)) {
                target = &l;
                break;
            }
            if (!target || l.lru < target->lru)
                target = &l;
        }
        if (isValid(target->state)) {
            victim = *target;
            ++evictions;
            if (isDirty(target->state))
                ++dirtyEvictions;
        }
        target->tag = a;
        target->state = Mesif::invalid;
        target->lru = next_lru_++;
        return target;
    }

    Mesif
    invalidate(Addr a)
    {
        RefLine *l = find(a);
        if (!l)
            return Mesif::invalid;
        const Mesif prev = l->state;
        l->state = Mesif::invalid;
        return prev;
    }

    std::vector<RefLine>
    valid() const
    {
        std::vector<RefLine> out;
        for (const RefLine &l : lines_)
            if (isValid(l.state))
                out.push_back(l);
        return out;
    }

    std::uint64_t lookups = 0, hits = 0, misses = 0;
    std::uint64_t evictions = 0, dirtyEvictions = 0;

  private:
    std::size_t
    base(Addr a) const
    {
        return static_cast<std::size_t>((a >> line_shift_) % n_sets_) *
            assoc_;
    }

    unsigned n_sets_;
    unsigned assoc_;
    unsigned line_shift_;
    std::uint64_t next_lru_ = 1;
    std::vector<RefLine> lines_;
};

/** Tag, state and payload agree (stamps differ in width). */
::testing::AssertionResult
sameLine(const CacheLine &got, const RefLine &want)
{
    if (got.tag == want.tag && got.state == want.state &&
        got.lastPc == want.lastPc && got.version == want.version)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "tag " << got.tag << "/" << want.tag << " state "
        << toString(got.state) << "/" << toString(want.state)
        << " lastPc " << got.lastPc << "/" << want.lastPc
        << " version " << got.version << "/" << want.version;
}

struct Geometry
{
    const char *name;
    unsigned bytes, assoc;

    friend std::ostream &
    operator<<(std::ostream &os, const Geometry &g)
    {
        return os << g.name;
    }
};

class CacheArrayVsReference
    : public ::testing::TestWithParam<std::tuple<Geometry, bool>>
{};

} // namespace

TEST_P(CacheArrayVsReference, RandomStreamsMakeTheSameDecisions)
{
    const auto [geo, near_wrap] = GetParam();
    constexpr unsigned line = 64;
    const unsigned sets = geo.bytes / (line * geo.assoc);
    CacheArray c(geo.bytes, geo.assoc, line);
    RefCacheArray ref(geo.bytes, geo.assoc, line);
    constexpr std::uint32_t wrapSoon =
        std::numeric_limits<std::uint32_t>::max() - 300;
    Rng rng(geo.assoc * 131 + sets + (near_wrap ? 7 : 0));

    // A few colliding sets, each with more candidate lines than ways.
    const std::vector<unsigned> hot_sets = {0, sets / 2, sets - 1};
    const unsigned tags_per_set = 2 * geo.assoc + 3;
    auto pick = [&] {
        const Addr set = hot_sets[rng.below(hot_sets.size())];
        const Addr tag = rng.below(tags_per_set);
        return (tag * sets + set) * line;
    };
    const Mesif valid_states[] = {Mesif::shared, Mesif::forwarding,
                                  Mesif::exclusive, Mesif::modified};
    std::uint64_t next_version = 1;

    auto check_contents = [&] {
        std::vector<RefLine> want = ref.valid();
        ASSERT_EQ(c.validCount(), want.size());
        std::size_t k = 0;
        c.forEachValid([&](const CacheLine &l) {
            ASSERT_LT(k, want.size());
            EXPECT_TRUE(sameLine(l, want[k++]));
        });
        EXPECT_EQ(k, want.size());
    };

    for (unsigned op = 0; op < 20000; ++op) {
        if (near_wrap && op % 5000 == 0)
            c.setLruClock(wrapSoon); // Several wraps per stream.
        const Addr a = pick();
        const std::uint64_t kind = rng.below(100);
        if (kind < 35) {
            CacheLine *got = c.lookup(a);
            RefLine *want = ref.lookup(a);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (got) {
                ASSERT_TRUE(sameLine(*got, *want)) << "op " << op;
            }
        } else if (kind < 50) {
            const CacheLine *got = c.peek(a);
            RefLine *want = ref.find(a);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (got) {
                ASSERT_TRUE(sameLine(*got, *want)) << "op " << op;
            }
        } else if (kind < 60) {
            // In-place protocol update through find().
            CacheLine *got = c.find(a);
            RefLine *want = ref.find(a);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (got) {
                got->state = want->state = valid_states[rng.below(4)];
                got->version = want->version = next_version++;
            }
        } else if (kind < 85) {
            if (ref.find(a))
                continue;
            CacheLine victim;
            RefLine ref_victim;
            CacheLine *got = c.allocate(a, victim);
            RefLine *want = ref.allocate(a, ref_victim);
            ASSERT_TRUE(sameLine(victim, ref_victim)) << "op " << op;
            ASSERT_TRUE(sameLine(*got, *want)) << "op " << op;
            got->state = want->state = valid_states[rng.below(4)];
            got->lastPc = want->lastPc = 0x400000 + rng.below(64) * 4;
            got->version = want->version = next_version++;
        } else {
            ASSERT_EQ(c.invalidate(a), ref.invalidate(a)) << "op " << op;
        }
        const CacheStats &s = c.stats();
        ASSERT_EQ(s.lookups.value(), ref.lookups) << "op " << op;
        ASSERT_EQ(s.hits.value(), ref.hits) << "op " << op;
        ASSERT_EQ(s.misses.value(), ref.misses) << "op " << op;
        ASSERT_EQ(s.evictions.value(), ref.evictions) << "op " << op;
        ASSERT_EQ(s.dirtyEvictions.value(), ref.dirtyEvictions)
            << "op " << op;
        if (op % 256 == 0)
            check_contents();
    }
    check_contents();
    EXPECT_GT(ref.evictions, 100u); // The stream did reach full sets.
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayVsReference,
    ::testing::Combine(
        ::testing::Values(Geometry{"direct4", 4 * 64, 1},
                          Geometry{"oneSet2way", 2 * 64, 2},
                          Geometry{"l2Default", 1024 * 1024, 8}),
        ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) +
            (std::get<1>(info.param) ? "_nearWrap" : "");
    });

// --- Address map ---

TEST(AddressMap, LineAndMacroBlock)
{
    Config cfg; // 64B lines, 256B macroblocks, 16 cores.
    AddressMap map(cfg);
    EXPECT_EQ(map.lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(map.lineNum(0x1234), 0x48u);
    EXPECT_EQ(map.macroBlock(0x1234), 0x12u);
    EXPECT_EQ(map.lineShift(), 6u);
}

TEST(AddressMap, HomeNodeInterleaving)
{
    Config cfg;
    AddressMap map(cfg);
    EXPECT_EQ(map.homeNode(0x0000), 0u);
    EXPECT_EQ(map.homeNode(0x0040), 1u);
    EXPECT_EQ(map.homeNode(0x0400), 0u); // 16 lines later wraps.
    for (Addr a = 0; a < 0x10000; a += 64)
        EXPECT_LT(map.homeNode(a), cfg.numCores);
}

TEST(Mesif, Helpers)
{
    EXPECT_TRUE(canForward(Mesif::modified));
    EXPECT_TRUE(canForward(Mesif::exclusive));
    EXPECT_TRUE(canForward(Mesif::forwarding));
    EXPECT_FALSE(canForward(Mesif::shared));
    EXPECT_FALSE(canForward(Mesif::invalid));
    EXPECT_TRUE(isWritable(Mesif::modified));
    EXPECT_TRUE(isWritable(Mesif::exclusive));
    EXPECT_FALSE(isWritable(Mesif::shared));
    EXPECT_TRUE(isDirty(Mesif::modified));
    EXPECT_FALSE(isDirty(Mesif::exclusive));
    EXPECT_STREQ(toString(Mesif::forwarding), "F");
}
