/**
 * @file
 * Tests for the offline predictor study: live observation, replay of
 * a recorded `.spptrace`, and the scoring of synthetic streams.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/offline.hh"
#include "trace/codec.hh"
#include "trace/store.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

const std::vector<PredictorKind> allKinds = {
    PredictorKind::sp, PredictorKind::addr, PredictorKind::inst,
    PredictorKind::uni};

/** The paper machine with small caches (more misses, fast runs). */
Config
smallConfig()
{
    Config cfg;
    cfg.l2Bytes = 128 * 1024;
    cfg.l1Bytes = 4 * 1024;
    return cfg;
}

/** Run ocean live under @p cfg and return its recorded op stream;
 * @p study, when given, observes the live run. */
TraceData
recordOcean(const Config &cfg, double scale = 0.25,
            OfflineStudy *study = nullptr)
{
    CmpSystem sys(cfg);
    TraceRecorder rec(cfg.numCores);
    sys.setTraceSink(&rec);
    if (study)
        study->attach(sys);
    WorkloadParams params;
    params.scale = scale;
    const WorkloadSpec *spec = findWorkload("ocean");
    sys.run([&](ThreadContext &ctx) {
        return spec->run(ctx, params);
    });
    rec.data.meta = traceMetaFor("ocean", cfg, scale);
    return std::move(rec.data);
}

/** Every field, for exact comparison. */
auto
fields(const OfflineResult &r)
{
    return std::tuple(r.misses, r.commMisses, r.attempted, r.sufficient,
                      r.predictedTargets, r.storageBits);
}

} // namespace

TEST(OfflineStudy, LiveRunEqualsRecordedReplay)
{
    const Config cfg = smallConfig();
    OfflineStudy live(cfg, allKinds);
    const TraceData recorded = recordOcean(cfg, 0.25, &live);
    const std::vector<OfflineResult> want = live.results();
    ASSERT_EQ(want.size(), allKinds.size());
    EXPECT_GT(want[0].commMisses, 0u);
    EXPECT_GT(want[0].sufficient, 0u); // SP learned from sync-points.

    TraceData decoded;
    std::string err;
    ASSERT_TRUE(decodeTrace(encodeTrace(recorded), decoded, err)) << err;
    const std::vector<OfflineResult> got =
        evaluateOffline(decoded, cfg, allKinds);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(fields(got[i]), fields(want[i]))
            << toString(allKinds[i]);
}

TEST(OfflineReplay, SpAccuracyMatchesLiveBallpark)
{
    const Config cfg = smallConfig();
    const TraceData trace = recordOcean(cfg, 0.5);
    const OfflineResult r =
        evaluateOffline(trace, cfg, {PredictorKind::sp})[0];
    EXPECT_GT(r.misses, 0u);
    EXPECT_GT(r.commMisses, 0u);
    // Ocean's stable neighbour pattern predicts well offline too.
    EXPECT_GT(r.accuracy(), 0.7);
    EXPECT_GT(r.storageBits, 0u);
}

TEST(OfflineReplay, AllPredictorsRun)
{
    const Config cfg = smallConfig();
    const TraceData trace = recordOcean(cfg);
    const std::vector<OfflineResult> rs =
        evaluateOffline(trace, cfg, allKinds);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_GT(rs[i].attempted, 0u) << toString(allKinds[i]);
        EXPECT_LE(rs[i].sufficient, rs[i].commMisses);
    }
}

TEST(OfflineReplay, DeterministicAcrossReplays)
{
    const Config cfg = smallConfig();
    const TraceData trace = recordOcean(cfg);
    const OfflineResult a =
        evaluateOffline(trace, cfg, {PredictorKind::sp})[0];
    const OfflineResult b =
        evaluateOffline(trace, cfg, {PredictorKind::sp})[0];
    EXPECT_EQ(fields(a), fields(b));
}

TEST(OfflineReplay, SyntheticStableTrace)
{
    // Hand-fed stream: 3 instances of one epoch, 20 communicating
    // misses towards core 7 each; the second and third instances are
    // fully predictable.
    OfflineStudy study(Config{}, {PredictorKind::sp});
    SyncPointInfo sync;
    sync.type = SyncType::barrier;
    sync.staticId = 0x11;
    AccessOutcome miss;
    miss.communicating = true;
    miss.servicedBy = CoreSet{7};
    for (int instance = 0; instance < 3; ++instance) {
        study.onSyncPoint(0, sync);
        for (int i = 0; i < 20; ++i)
            study.onMiss(0, 0x1000 + i * 64, 0x5, miss);
    }
    const OfflineResult r = study.results()[0];
    EXPECT_EQ(r.commMisses, 60u);
    EXPECT_EQ(r.sufficient, 40u); // Instances 2 and 3.
    EXPECT_DOUBLE_EQ(r.predictedTargets, 1.0);
}

TEST(OfflineStudyDeath, RejectsNoPredictor)
{
    EXPECT_DEATH(OfflineStudy(Config{}, {PredictorKind::none}),
                 "needs a predictor kind");
}
