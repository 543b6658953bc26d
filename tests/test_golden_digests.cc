/**
 * @file
 * Golden behaviour digests: a small, fixed corpus of runs whose
 * outputs are pinned, so a refactor that claims "same behaviour" is
 * checked rather than asserted.
 *
 *  - Experiment cells: a 64-bit FNV-1a of resultToJson(res).dump()
 *    (every statistic, energy and the NoC/predictor counters) for
 *    3 apps x {directory, broadcast, predicted+sp, multicast+sp} x
 *    {16, 64 cores} at a tiny workload scale.
 *  - Model-checker explorations: the exact search counts (executions,
 *    choice points, pruned, reduced, hashed states, late-data drops)
 *    for both snooping engines on every scripted workload x sharer
 *    format, plus the two 3-core late-data race witnesses. The
 *    counts move whenever delivery order, message set or hashed
 *    coherence state changes, even where final statistics do not.
 *
 * A digest may change only with a stated reason (a deliberate
 * behaviour change). On mismatch the failure message prints the new
 * table row, ready to paste.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "analysis/experiment.hh"
#include "check/model_checker.hh"
#include "common/hash.hh"
#include "service/result_codec.hh"

using namespace spp;

namespace {

/** Workload scale of the experiment cells (tiny: seconds in total). */
constexpr double goldenScale = 0.05;

struct CellGolden
{
    const char *app;
    const char *config; ///< directory | broadcast | predicted | multicast
    unsigned cores;
    std::uint64_t digest;
};

// clang-format off
constexpr CellGolden cellGoldens[] = {
    {"fft", "directory", 16, 0x84ba00951fc4ee7dull},
    {"fft", "directory", 64, 0x23a5c07ee8cbddb0ull},
    {"fft", "broadcast", 16, 0xbe929c65e3799400ull},
    {"fft", "broadcast", 64, 0x9b503789c8747511ull},
    {"fft", "predicted", 16, 0x3275ef0555e9f3faull},
    {"fft", "predicted", 64, 0xec5ddee0b62b78f7ull},
    {"fft", "multicast", 16, 0xc3470bd31d3ab7c2ull},
    {"fft", "multicast", 64, 0x5173ff77b415297cull},
    {"radiosity", "directory", 16, 0x1912062e278d6d70ull},
    {"radiosity", "directory", 64, 0xd8e72885154ba6a5ull},
    {"radiosity", "broadcast", 16, 0x46270869283294aaull},
    {"radiosity", "broadcast", 64, 0x017e90449f76b9e4ull},
    {"radiosity", "predicted", 16, 0x6ed6ce5d6c37b833ull},
    {"radiosity", "predicted", 64, 0x0809381251309175ull},
    {"radiosity", "multicast", 16, 0x119a8ba6f7f15341ull},
    {"radiosity", "multicast", 64, 0x5fd0a28b8449d400ull},
    {"streamcluster", "directory", 16, 0xcbc9668097237cf6ull},
    {"streamcluster", "directory", 64, 0x7554982bc5a1792bull},
    {"streamcluster", "broadcast", 16, 0x771802ca83e942f6ull},
    {"streamcluster", "broadcast", 64, 0xf5ea20947af59eaaull},
    {"streamcluster", "predicted", 16, 0xe688399a05bd6fffull},
    {"streamcluster", "predicted", 64, 0x51e5af98220e7d8full},
    {"streamcluster", "multicast", 16, 0x8092722c6904255cull},
    {"streamcluster", "multicast", 64, 0xf3c92e2edaddf4f2ull},
};
// clang-format on

ExperimentConfig
cellConfig(const std::string &name, unsigned cores)
{
    ExperimentConfig c;
    c.scale = goldenScale;
    Config &cfg = c.config;
    cfg.numCores = cores;
    cfg.meshX = cores == 64 ? 8 : 4;
    cfg.meshY = cores == 64 ? 8 : 4;
    if (name == "directory") {
        cfg.protocol = Protocol::directory;
    } else if (name == "broadcast") {
        cfg.protocol = Protocol::broadcast;
    } else if (name == "predicted") {
        cfg.protocol = Protocol::predicted;
        cfg.predictor = PredictorKind::sp;
    } else {
        cfg.protocol = Protocol::multicast;
        cfg.predictor = PredictorKind::sp;
    }
    return c;
}

struct McGolden
{
    const char *protocol; ///< broadcast | multicast
    const char *workload;
    const char *format;
    unsigned cores;
    std::uint64_t executions;
    std::uint64_t choicePoints;
    std::uint64_t statesPruned;
    std::uint64_t branchesReduced;
    std::uint64_t statesHashed;
    std::uint64_t lateDataDrops;
};

// clang-format off
constexpr McGolden mcGoldens[] = {
    {"broadcast", "conflict", "full", 2, 8, 56, 6, 16, 13, 4},
    {"broadcast", "conflict", "coarse", 2, 8, 56, 6, 16, 13, 4},
    {"broadcast", "conflict", "limited", 2, 8, 56, 6, 16, 13, 4},
    {"broadcast", "writeback", "full", 2, 2, 2, 0, 8, 1, 0},
    {"broadcast", "writeback", "coarse", 2, 2, 2, 0, 8, 1, 0},
    {"broadcast", "writeback", "limited", 2, 2, 2, 0, 8, 1, 0},
    {"broadcast", "pingpong", "full", 2, 81, 6480, 79, 3159, 159, 79},
    {"broadcast", "pingpong", "coarse", 2, 81, 6480, 79, 3159, 159, 79},
    {"broadcast", "pingpong", "limited", 2, 81, 6480, 79, 3159, 159, 79},
    {"broadcast", "race", "full", 2, 4, 12, 2, 16, 5, 3},
    {"broadcast", "race", "coarse", 2, 4, 12, 2, 16, 5, 3},
    {"broadcast", "race", "limited", 2, 4, 12, 2, 16, 5, 3},
    {"broadcast", "wbrace", "full", 2, 3, 5, 0, 0, 2, 0},
    {"broadcast", "wbrace", "coarse", 2, 3, 5, 0, 0, 2, 0},
    {"broadcast", "wbrace", "limited", 2, 3, 5, 0, 0, 2, 0},
    {"multicast", "conflict", "full", 2, 33, 606, 31, 120, 57, 0},
    {"multicast", "conflict", "coarse", 2, 33, 606, 31, 120, 57, 0},
    {"multicast", "conflict", "limited", 2, 33, 606, 31, 120, 57, 0},
    {"multicast", "writeback", "full", 2, 84, 1258, 80, 674, 143, 0},
    {"multicast", "writeback", "coarse", 2, 84, 1258, 80, 674, 143, 0},
    {"multicast", "writeback", "limited", 2, 84, 1258, 80, 674, 143, 0},
    {"multicast", "pingpong", "full", 2, 164, 26568, 162, 12956, 325, 0},
    {"multicast", "pingpong", "coarse", 2, 164, 26568, 162, 12956, 325, 0},
    {"multicast", "pingpong", "limited", 2, 164, 26568, 162, 12956, 325, 0},
    {"multicast", "race", "full", 2, 40, 417, 36, 183, 65, 0},
    {"multicast", "race", "coarse", 2, 40, 417, 36, 183, 65, 0},
    {"multicast", "race", "limited", 2, 40, 417, 36, 183, 65, 0},
    {"multicast", "wbrace", "full", 2, 17, 153, 13, 0, 28, 0},
    {"multicast", "wbrace", "coarse", 2, 17, 153, 13, 0, 28, 0},
    {"multicast", "wbrace", "limited", 2, 17, 153, 13, 0, 28, 0},
    {"broadcast", "race", "full", 3, 10, 70, 8, 40, 17, 13},
    {"multicast", "wbrace", "full", 3, 16, 144, 12, 16, 26, 16},
};
// clang-format on

std::string
mcRow(const McGolden &g, const ModelCheckResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", \"%s\", \"%s\", %u, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  "},",
                  g.protocol, g.workload, g.format, g.cores,
                  r.executions, r.choicePoints, r.statesPruned,
                  r.branchesReduced, r.statesHashed, r.lateDataDrops);
    return buf;
}

} // namespace

TEST(GoldenDigests, ExperimentCells)
{
    for (const CellGolden &g : cellGoldens) {
        const ExperimentResult res =
            runExperiment(g.app, cellConfig(g.config, g.cores));
        const std::uint64_t digest =
            fnv1a64(resultToJson(res).dump());
        char row[160];
        std::snprintf(row, sizeof row,
                      "{\"%s\", \"%s\", %u, 0x%016" PRIx64 "ull},",
                      g.app, g.config, g.cores, digest);
        EXPECT_EQ(digest, g.digest) << "new row: " << row;
    }
}

TEST(GoldenDigests, SnoopingModelCheckCounts)
{
    for (const McGolden &g : mcGoldens) {
        ModelCheckOptions o;
        o.protocol = std::string(g.protocol) == "broadcast"
            ? Protocol::broadcast
            : Protocol::multicast;
        o.workload = g.workload;
        o.format = sharerFormatFromString(g.format);
        o.cores = g.cores;
        const ModelCheckResult r = modelCheck(o);
        EXPECT_FALSE(r.violationFound) << mcRow(g, r);
        EXPECT_TRUE(r.complete()) << mcRow(g, r);
        EXPECT_TRUE(r.executions == g.executions &&
                    r.choicePoints == g.choicePoints &&
                    r.statesPruned == g.statesPruned &&
                    r.branchesReduced == g.branchesReduced &&
                    r.statesHashed == g.statesHashed &&
                    r.lateDataDrops == g.lateDataDrops)
            << "new row: " << mcRow(g, r);
    }
}
