/**
 * @file
 * Unit tests for CoreSet.
 */

#include <gtest/gtest.h>

#include "common/core_set.hh"

using namespace spp;

// Two words whatever the core count: the inline word plus the tail
// pointer. Msg, AccessOutcome and DirEntry sizes depend on it.
static_assert(sizeof(CoreSet) <= 16);

TEST(CoreSet, StartsEmpty)
{
    CoreSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mask(), 0u);
}

TEST(CoreSet, SetResetTest)
{
    CoreSet s;
    s.set(3);
    s.set(15);
    EXPECT_TRUE(s.test(3));
    EXPECT_TRUE(s.test(15));
    EXPECT_FALSE(s.test(4));
    EXPECT_EQ(s.count(), 2u);
    s.reset(3);
    EXPECT_FALSE(s.test(3));
    EXPECT_EQ(s.count(), 1u);
}

TEST(CoreSet, InitializerList)
{
    CoreSet s{1, 5, 9};
    EXPECT_EQ(s.count(), 3u);
    EXPECT_TRUE(s.test(1));
    EXPECT_TRUE(s.test(5));
    EXPECT_TRUE(s.test(9));
}

TEST(CoreSet, Single)
{
    CoreSet s = CoreSet::single(7);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.first(), 7u);
}

TEST(CoreSet, All)
{
    EXPECT_EQ(CoreSet::all(16).count(), 16u);
    EXPECT_EQ(CoreSet::all(64).count(), 64u);
    EXPECT_EQ(CoreSet::all(1).mask(), 1u);
}

TEST(CoreSet, SetOperations)
{
    CoreSet a{1, 2, 3};
    CoreSet b{3, 4};
    EXPECT_EQ((a | b), (CoreSet{1, 2, 3, 4}));
    EXPECT_EQ((a & b), CoreSet{3});
    EXPECT_EQ((a - b), (CoreSet{1, 2}));
    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE((a - b).intersects(b));
}

TEST(CoreSet, Contains)
{
    CoreSet big{1, 2, 3, 4};
    EXPECT_TRUE(big.contains(CoreSet{2, 3}));
    EXPECT_TRUE(big.contains(CoreSet{}));
    EXPECT_FALSE(big.contains(CoreSet{2, 5}));
    EXPECT_TRUE(CoreSet{}.contains(CoreSet{}));
}

TEST(CoreSet, Iteration)
{
    CoreSet s{0, 7, 31, 63};
    std::vector<CoreId> seen;
    for (CoreId c : s)
        seen.push_back(c);
    EXPECT_EQ(seen, (std::vector<CoreId>{0, 7, 31, 63}));
}

TEST(CoreSet, ToString)
{
    EXPECT_EQ((CoreSet{0, 5}).toString(), "{0,5}");
    EXPECT_EQ(CoreSet{}.toString(), "{}");
}

TEST(CoreSet, ToBitString)
{
    CoreSet s{0, 3};
    EXPECT_EQ(s.toBitString(4), "1001");
    EXPECT_EQ(s.toBitString(6), "100100");
}

TEST(CoreSet, CompoundAssignment)
{
    CoreSet s{1};
    s |= CoreSet{2};
    EXPECT_EQ(s, (CoreSet{1, 2}));
    s &= CoreSet{2, 3};
    EXPECT_EQ(s, CoreSet{2});
}

// Property-style sweep: union/intersection/difference relations hold
// for a range of generated masks.
class CoreSetAlgebra : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CoreSetAlgebra, Laws)
{
    const std::uint64_t seed = GetParam();
    const CoreSet a = CoreSet::fromMask(seed * 0x9e3779b97f4a7c15ULL);
    const CoreSet b = CoreSet::fromMask(seed * 0xbf58476d1ce4e5b9ULL);

    EXPECT_EQ((a | b).count() + (a & b).count(),
              a.count() + b.count());
    EXPECT_TRUE((a | b).contains(a));
    EXPECT_TRUE(a.contains(a & b));
    EXPECT_EQ(((a - b) | (a & b)), a);
    EXPECT_FALSE((a - b).intersects(b));
    unsigned n = 0;
    for (CoreId c : a) {
        EXPECT_TRUE(a.test(c));
        ++n;
    }
    EXPECT_EQ(n, a.count());
}

INSTANTIATE_TEST_SUITE_P(Masks, CoreSetAlgebra,
                         ::testing::Range<std::uint64_t>(1, 50));

// --- Reference-model property test -----------------------------------
//
// Drive CoreSet and std::bitset through the same random op sequence
// and demand identical observable state after every step. The sizes
// straddle the word boundaries where shift bugs live (63/64/65) plus
// a genuinely multi-word width.

#include <bitset>

#include "common/rng.hh"

namespace {

class CoreSetVsBitset : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(CoreSetVsBitset, RandomOpsMatchReference)
{
    const unsigned n = GetParam();
    ASSERT_LE(n, maxCores);
    Rng rng(0xC0DE + n);
    CoreSet a, b;
    std::bitset<maxCores> ra, rb;

    auto check = [&](int step) {
        ASSERT_EQ(a.count(), ra.count()) << "n=" << n << " step " << step;
        for (unsigned c = 0; c < n; ++c)
            ASSERT_EQ(a.test(c), ra.test(c))
                << "n=" << n << " step " << step << " bit " << c;
        // Iteration yields exactly the set bits, ascending.
        CoreId prev = 0;
        unsigned seen = 0;
        for (CoreId c : a) {
            ASSERT_TRUE(ra.test(c));
            if (seen) {
                ASSERT_LT(prev, c);
            }
            prev = c;
            ++seen;
        }
        ASSERT_EQ(seen, ra.count());
    };

    for (int step = 0; step < 3000; ++step) {
        const CoreId c = static_cast<CoreId>(rng.below(n));
        switch (rng.below(9)) {
          case 0: a.set(c); ra.set(c); break;
          case 1: a.reset(c); ra.reset(c); break;
          case 2: b.set(c); rb.set(c); break;
          case 3: a |= b; ra |= rb; break;
          case 4: a &= b; ra &= rb; break;
          case 5: a = a - b; ra &= ~rb; break;
          case 6:
            a = CoreSet::single(c);
            ra.reset();
            ra.set(c);
            break;
          case 7:
            a = CoreSet::all(n);
            ra.reset();
            for (unsigned i = 0; i < n; ++i)
                ra.set(i);
            break;
          case 8: a.clear(); ra.reset(); break;
        }
        check(step);
    }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, CoreSetVsBitset,
                         ::testing::Values(63u, 64u, 65u, 128u),
                         [](const auto &info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(CoreSet, AllAtWordBoundaries)
{
    // all(64) once shifted by the full word width (UB); pin the
    // boundary sizes explicitly.
    EXPECT_EQ(CoreSet::all(63).count(), 63u);
    EXPECT_EQ(CoreSet::all(64).count(), 64u);
    EXPECT_EQ(CoreSet::all(65).count(), 65u);
    EXPECT_EQ(CoreSet::all(128).count(), 128u);
    EXPECT_EQ(CoreSet::all(maxCores).count(), maxCores);
    EXPECT_FALSE(CoreSet::all(65).test(65));
    EXPECT_TRUE(CoreSet::all(65).test(64));
}

// --- Inline word vs. heap tail -------------------------------------
//
// Copy, move, assignment and equality across the narrow (no tail) and
// wide (tail) representations, checked against std::bitset at sizes
// straddling the inline word and at the maximum machine size.

namespace {

using Ref = std::bitset<maxCores>;

/** A random set over cores [lo, hi) and its reference. */
std::pair<CoreSet, Ref>
randomSet(Rng &rng, unsigned lo, unsigned hi)
{
    CoreSet s;
    Ref r;
    for (unsigned i = 0; i < 24 && lo < hi; ++i) {
        const auto c = static_cast<CoreId>(lo + rng.below(hi - lo));
        s.set(c);
        r.set(c);
    }
    return {s, r};
}

void
expectMatches(const CoreSet &s, const Ref &r, unsigned n)
{
    ASSERT_EQ(s.count(), r.count());
    for (unsigned c = 0; c < n; ++c)
        ASSERT_EQ(s.test(c), r.test(c)) << "bit " << c;
    Ref seen;
    for (CoreId c : s)
        seen.set(c);
    ASSERT_EQ(seen, r);
    ASSERT_EQ(CoreSet::fromHex(s.toHex()), s);
}

class CoreSetNarrowWide : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(CoreSetNarrowWide, CopyMoveAssignEqualityMatchReference)
{
    const unsigned n = GetParam();
    Rng rng(0x5E7 + n);
    for (int round = 0; round < 50; ++round) {
        // narrow: members below 64 only; wide: anywhere below n.
        auto [narrow, rn] = randomSet(rng, 0, std::min(n, 64u));
        auto [wide, rw] = randomSet(rng, 0, n);
        if (n > 64) {
            wide.set(n - 1);
            rw.set(n - 1);
        }
        expectMatches(narrow, rn, n);
        expectMatches(wide, rw, n);

        CoreSet copy_n(narrow), copy_w(wide);
        expectMatches(copy_n, rn, n);
        expectMatches(copy_w, rw, n);
        EXPECT_EQ(copy_n, narrow);
        EXPECT_EQ(copy_w, wide);

        // Copy-assign in both directions, over a live tail too.
        CoreSet a = wide;
        a = narrow;
        expectMatches(a, rn, n);
        EXPECT_EQ(a, narrow);
        a = wide;
        expectMatches(a, rw, n);
        a = a; // Self-assignment keeps the value.
        expectMatches(a, rw, n);

        // Move-construct and move-assign both ways; the source is
        // left empty.
        CoreSet src = wide;
        CoreSet moved(std::move(src));
        expectMatches(moved, rw, n);
        EXPECT_TRUE(src.empty());
        CoreSet dst = narrow;
        dst = std::move(moved);
        expectMatches(dst, rw, n);
        EXPECT_TRUE(moved.empty());
        dst = CoreSet(narrow);
        expectMatches(dst, rn, n);

        // Equality is logical: clearing every high member of a wide
        // set leaves a (zeroed) tail that must compare equal to the
        // narrow set with the same low members.
        CoreSet lowered = wide;
        Ref rl = rw;
        for (unsigned c = 64; c < n; ++c) {
            lowered.reset(c);
            rl.reset(c);
        }
        CoreSet low_only;
        for (unsigned c = 0; c < std::min(n, 64u); ++c)
            if (rw.test(c))
                low_only.set(c);
        expectMatches(lowered, rl, n);
        EXPECT_EQ(lowered, low_only);
        EXPECT_EQ(low_only, lowered);
        EXPECT_EQ(lowered.toHex(), low_only.toHex());
        EXPECT_EQ((wide == narrow), (rw == rn));

        // Algebra across representations.
        expectMatches(wide | narrow, rw | rn, n);
        expectMatches(narrow | wide, rw | rn, n);
        expectMatches(wide & narrow, rw & rn, n);
        expectMatches(narrow - wide, rn & ~rw, n);
        expectMatches(wide - narrow, rw & ~rn, n);
        EXPECT_EQ(wide.contains(narrow), (rn & ~rw).none());
        EXPECT_EQ(narrow.contains(wide), (rw & ~rn).none());
        EXPECT_EQ(wide.intersects(narrow), (rw & rn).any());
        CoreSet acc = narrow;
        acc &= wide;
        expectMatches(acc, rn & rw, n);
        acc = narrow;
        acc |= wide;
        expectMatches(acc, rn | rw, n);
        CoreSet cleared = wide;
        cleared.clear();
        EXPECT_TRUE(cleared.empty());
        EXPECT_EQ(cleared, CoreSet{});
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoreSetNarrowWide,
                         ::testing::Values(63u, 64u, 65u, 128u, 1024u),
                         [](const auto &info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(CoreSet, HexRoundTripAtMaximumWidth)
{
    const CoreSet all = CoreSet::all(maxCores);
    const std::string hex = all.toHex();
    EXPECT_EQ(hex.size(), CoreSet::maxHexDigits);
    EXPECT_EQ(CoreSet::fromHex(hex), all);
    EXPECT_EQ(CoreSet::single(maxCores - 1).toHex(),
              "8" + std::string(CoreSet::maxHexDigits - 1, '0'));
    EXPECT_EQ((CoreSet{0, 4}).toHex(), "11");
}
