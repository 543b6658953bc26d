/**
 * @file
 * Bench CLI frontend tests: strict numeric flag parsing (the
 * std::atoi/std::atof replacements), mesh factorization for awkward
 * core counts, --mesh/--cores consistency validation, and initBench
 * death tests proving bad input dies at the flag site with exit
 * code 1 instead of wrapping or silently misconfiguring a sweep.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace spp;
using namespace spp::bench;

namespace {

/** Run initBench on a crafted argv (death-test child only). */
void
initBenchWith(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    initBench(static_cast<int>(args.size()),
              const_cast<char **>(args.data()));
}

} // namespace

TEST(ParseUnsigned, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseUnsigned("--x", "42", 1, 100), 42u);
    EXPECT_EQ(parseUnsigned("--x", "1", 1, 100), 1u);
    EXPECT_EQ(parseUnsigned("--x", "100", 1, 100), 100u);
    EXPECT_EQ(parseUnsigned("--x", "0", 0, 0), 0u);
    EXPECT_EQ(parseUnsigned("--x", "007", 1, 100), 7u);
}

TEST(ParseUnsignedDeathTest, RejectsNonNumericInput)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseUnsigned("--cores", "abc", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "16x", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", " 16", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "1.5", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", nullptr, 1, 1024),
                testing::ExitedWithCode(1), "--cores");
}

TEST(ParseUnsignedDeathTest, RejectsSignsInsteadOfWrapping)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // std::atoi would have turned "-1" into a huge unsigned.
    EXPECT_EXIT(parseUnsigned("--jobs", "-1", 1, 65536),
                testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(parseUnsigned("--jobs", "+4", 1, 65536),
                testing::ExitedWithCode(1), "--jobs");
}

TEST(ParseUnsignedDeathTest, RejectsOverflowAndOutOfRange)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(parseUnsigned("--cores", "99999999999999999999999",
                              1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "0", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(parseUnsigned("--cores", "1025", 1, 1024),
                testing::ExitedWithCode(1), "--cores");
}

TEST(ParsePositiveDouble, AcceptsFiniteNumbersAboveZero)
{
    EXPECT_EQ(parsePositiveDouble("--scale", "0.05"), 0.05);
    EXPECT_EQ(parsePositiveDouble("--scale", "2"), 2.0);
    EXPECT_EQ(parsePositiveDouble("--scale", "1e-3"), 1e-3);
}

TEST(ParsePositiveDoubleDeathTest, RejectsWhatAtofLetThrough)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"abc", "", "0.5x", "nan", "inf", "-inf",
                            "1e999", "0", "-1", "-0.1"})
        EXPECT_EXIT(parsePositiveDouble("--scale", bad),
                    testing::ExitedWithCode(1), "--scale") << bad;
    EXPECT_EXIT(parsePositiveDouble("--scale", nullptr),
                testing::ExitedWithCode(1), "--scale");
}

TEST(ParseDouble, LeavesTheRangeToTheCaller)
{
    EXPECT_EQ(parseDouble("--threshold", "0.1"), 0.1);
    EXPECT_EQ(parseDouble("--threshold", "0"), 0.0);
    EXPECT_EQ(parseDouble("--threshold", "-2.5"), -2.5);
}

TEST(ParseDoubleDeathTest, RejectsTrailingTextAndNonFinite)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"abc", "", "0.5x", "nan", "inf", "1e999"})
        EXPECT_EXIT(parseDouble("--threshold", bad),
                    testing::ExitedWithCode(1), "--threshold") << bad;
}

TEST(DefaultBenchScaleDeathTest, NamesTheVariable)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // -1 used to hang fig01: the scaled iteration count wrapped.
    for (const char *bad : {"-1", "abc", "nan", "inf", "0"}) {
        EXPECT_EXIT(
            {
                setenv("SPP_BENCH_SCALE", bad, 1);
                defaultBenchScale();
            },
            testing::ExitedWithCode(1), "SPP_BENCH_SCALE")
            << bad;
        EXPECT_EXIT(
            {
                setenv("SPP_BENCH_SCALE", bad, 1);
                initBenchWith({});
            },
            testing::ExitedWithCode(1), "SPP_BENCH_SCALE")
            << bad;
    }
}

TEST(WorkloadParams, ItersClampsBeforeTheCast)
{
    WorkloadParams p;
    p.scale = 0.05;
    EXPECT_EQ(p.iters(100), 5u);
    EXPECT_EQ(p.iters(10), 1u);
    p.scale = 1e-300;
    EXPECT_EQ(p.iters(100), 1u);
    p.scale = 1e300;
    EXPECT_EQ(p.iters(100), std::numeric_limits<unsigned>::max());
}

TEST(MeshFor, FactorsTowardSquare)
{
    unsigned x = 0, y = 0;
    meshFor(16, x, y);
    EXPECT_EQ(x, 4u);
    EXPECT_EQ(y, 4u);
    meshFor(12, x, y);
    EXPECT_EQ(x, 4u);
    EXPECT_EQ(y, 3u);
    meshFor(64, x, y);
    EXPECT_EQ(x, 8u);
    EXPECT_EQ(y, 8u);
    meshFor(1, x, y);
    EXPECT_EQ(x, 1u);
    EXPECT_EQ(y, 1u);
}

TEST(MeshFor, PrimeCoreCountsDegradeToRow)
{
    // Regression: a prime core count must yield an Nx1 mesh (and
    // cover all N cores), not a rounded-down square.
    for (unsigned n : {2u, 3u, 5u, 7u, 61u, 127u, 1021u}) {
        unsigned x = 0, y = 0;
        meshFor(n, x, y);
        EXPECT_EQ(x, n) << n;
        EXPECT_EQ(y, 1u) << n;
        EXPECT_EQ(x * y, n) << n;
    }
}

TEST(MeshFor, AlwaysCoversAllCores)
{
    for (unsigned n = 1; n <= 256; ++n) {
        unsigned x = 0, y = 0;
        meshFor(n, x, y);
        EXPECT_EQ(x * y, n) << n;
        EXPECT_GE(x, y) << n;
    }
}

TEST(GeometryError, AcceptsConsistentCombinations)
{
    EXPECT_EQ(geometryError(0, 0, 0), "");     // neither flag
    EXPECT_EQ(geometryError(16, 0, 0), "");    // cores only
    EXPECT_EQ(geometryError(0, 4, 4), "");     // mesh only
    EXPECT_EQ(geometryError(16, 4, 4), "");
    EXPECT_EQ(geometryError(61, 61, 1), "");   // prime row mesh
}

TEST(GeometryError, RejectsMismatchAndOversize)
{
    EXPECT_NE(geometryError(16, 5, 5), "");
    EXPECT_NE(geometryError(61, 8, 8), "");
    // 64x64 = 4096 exceeds the 1024-core build limit even though
    // each dimension alone is legal.
    EXPECT_NE(geometryError(0, 64, 64), "");
    EXPECT_NE(geometryError(4096, 64, 64), "");
}

TEST(InitBenchDeathTest, DiesAtTheFlagSite)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(initBenchWith({"--cores", "sixteen"}),
                testing::ExitedWithCode(1), "--cores");
    EXPECT_EXIT(initBenchWith({"--jobs", "-2"}),
                testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(initBenchWith({"--mesh", "4", "four"}),
                testing::ExitedWithCode(1), "--mesh");
    EXPECT_EXIT(initBenchWith({"--cores", "16", "--mesh", "5", "5"}),
                testing::ExitedWithCode(1), "--mesh 5x5");
    EXPECT_EXIT(initBenchWith({"--record"}),
                testing::ExitedWithCode(1), "--record");
    // A config error without --set does not blame --set.
    EXPECT_EXIT(initBenchWith({"--cores", "2", "--format", "coarse"}),
                testing::ExitedWithCode(1), "config: coarseCoresPerBit");
    EXPECT_EXIT(initBenchWith({"--set", "coarseCoresPerBit=0"}),
                testing::ExitedWithCode(1), "--set: coarseCoresPerBit");
}

TEST(InitBench, AcceptsValidGeometry)
{
    // Parsing side effects land in globals; restore them after.
    const unsigned cores = g_cores, mx = g_mesh_x, my = g_mesh_y;
    initBenchWith({"--cores", "61", "--mesh", "61", "1"});
    EXPECT_EQ(g_cores, 61u);
    EXPECT_EQ(g_mesh_x, 61u);
    EXPECT_EQ(g_mesh_y, 1u);
    g_cores = cores;
    g_mesh_x = mx;
    g_mesh_y = my;
}

TEST(InitBench, AcceptsFewerCoresThanTheCoarseGroup)
{
    // The default coarseCoresPerBit (4) only bounds the coarse format.
    const unsigned cores = g_cores;
    for (const char *n : {"1", "2", "3"}) {
        initBenchWith({"--cores", n});
        EXPECT_EQ(g_cores, static_cast<unsigned>(std::atoi(n)));
    }
    g_cores = cores;
}
