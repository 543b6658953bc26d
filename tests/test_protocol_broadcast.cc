/**
 * @file
 * Broadcast snooping protocol scenario tests, plus the peer-side
 * scenarios of the snooping engine it shares with multicast, run
 * through both engines.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness.hh"

using namespace spp;
using namespace spp::test;

namespace {

Config
bcConfig()
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.protocol = Protocol::broadcast;
    return cfg;
}

} // namespace

TEST(Broadcast, ColdReadFromMemory)
{
    ProtoHarness h(bcConfig());
    AccessOutcome out = h.access(0, 0x10000, false);
    EXPECT_TRUE(out.miss());
    EXPECT_TRUE(out.offChip);
    EXPECT_FALSE(out.communicating);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::exclusive);
    EXPECT_TRUE(h.sys->drained());
}

TEST(Broadcast, CacheToCacheRead)
{
    ProtoHarness h(bcConfig());
    h.access(0, 0x10000, true);
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_TRUE(out.communicating);
    EXPECT_FALSE(out.offChip);
    EXPECT_EQ(out.servicedBy, CoreSet{0});
    EXPECT_EQ(h.l2State(1, 0x10000), Mesif::forwarding);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::shared);
    h.sys->checkCoherence();
}

TEST(Broadcast, CacheToCacheBeatsDirectoryLatency)
{
    Tick dir_lat = 0, bc_lat = 0;
    {
        ProtoHarness h;
        h.access(0, 0x10000, true);
        dir_lat = h.access(1, 0x10000, false).latency();
    }
    {
        ProtoHarness h(bcConfig());
        h.access(0, 0x10000, true);
        bc_lat = h.access(1, 0x10000, false).latency();
    }
    EXPECT_LT(bc_lat, dir_lat);
}

TEST(Broadcast, MemoryDataFillsForwardingWithSharers)
{
    ProtoHarness h(bcConfig());
    h.access(0, 0x10000, false); // E at 0.
    h.access(1, 0x10000, false); // c2c: F at 1, S at 0.
    // Evict nothing; third reader: F at 1 forwards again.
    AccessOutcome out = h.access(2, 0x10000, false);
    EXPECT_EQ(out.servicedBy, CoreSet{1});
    h.sys->checkCoherence();
}

TEST(Broadcast, SnoopLookupsChargedToAllPeers)
{
    ProtoHarness h(bcConfig());
    h.access(0, 0x10000, false);
    // Every miss snoops all 15 peers.
    EXPECT_EQ(h.sys->stats().snoopLookups.value(), 15u);
    h.access(1, 0x10000, false);
    EXPECT_EQ(h.sys->stats().snoopLookups.value(), 30u);
}

TEST(Broadcast, BandwidthFarAboveDirectory)
{
    std::uint64_t dir_bytes = 0, bc_bytes = 0;
    {
        ProtoHarness h;
        h.access(0, 0x10000, true);
        h.access(1, 0x10000, false);
        dir_bytes = h.mesh->stats().flitBytes.value();
    }
    {
        ProtoHarness h(bcConfig());
        h.access(0, 0x10000, true);
        h.access(1, 0x10000, false);
        bc_bytes = h.mesh->stats().flitBytes.value();
    }
    EXPECT_GT(bc_bytes, 2 * dir_bytes);
}

TEST(Broadcast, ConcurrentWritersSerialize)
{
    ProtoHarness h(bcConfig());
    std::vector<std::tuple<CoreId, Addr, bool>> reqs;
    for (CoreId c = 0; c < 8; ++c)
        reqs.emplace_back(c, Addr{0x10000}, true);
    auto outs = h.accessAll(reqs);
    unsigned owners = 0;
    for (CoreId c = 0; c < 16; ++c)
        owners += h.l2State(c, 0x10000) == Mesif::modified;
    EXPECT_EQ(owners, 1u);
    // Versions are all distinct (every write serialized).
    std::set<std::uint64_t> versions;
    for (const auto &out : outs)
        versions.insert(out.dataVersion);
    EXPECT_EQ(versions.size(), outs.size());
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
}

// ---------------------------------------------------------------------
// The peer side and response accounting are the snooping engine both
// broadcast and multicast share (snoop_protocol.hh): these scenarios
// run through each and assert only protocol-neutral outcomes.
// ---------------------------------------------------------------------

class SnoopPeer : public ::testing::TestWithParam<Protocol>
{
  protected:
    Config
    config() const
    {
        Config cfg = ProtoHarness::smallConfig();
        cfg.protocol = GetParam();
        if (cfg.protocol == Protocol::multicast)
            cfg.predictor = PredictorKind::sp;
        return cfg;
    }
};

TEST_P(SnoopPeer, DirtyOwnerSuppliesData)
{
    ProtoHarness h(config());
    AccessOutcome w = h.access(0, 0x10000, true);
    AccessOutcome out = h.access(1, 0x10000, false);
    // Memory data (broadcast's cancelled speculative fetch) must not
    // win: the reader sees the writer's version.
    EXPECT_EQ(out.dataVersion, w.dataVersion);
    EXPECT_EQ(out.servicedBy, CoreSet{0});
    EXPECT_FALSE(out.offChip);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::shared);
    EXPECT_EQ(h.l2State(1, 0x10000), Mesif::forwarding);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
}

TEST_P(SnoopPeer, WriteInvalidatesSharers)
{
    ProtoHarness h(config());
    h.access(0, 0x10000, false);
    h.access(1, 0x10000, false);
    h.access(2, 0x10000, false);
    AccessOutcome out = h.access(3, 0x10000, true);
    EXPECT_TRUE(out.communicating);
    EXPECT_TRUE(out.servicedBy.contains(CoreSet{0, 1, 2}));
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_EQ(h.l2State(c, 0x10000), Mesif::invalid);
    EXPECT_EQ(h.l2State(3, 0x10000), Mesif::modified);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
}

TEST_P(SnoopPeer, UpgradeCompletesWithoutData)
{
    ProtoHarness h(config());
    h.access(0, 0x10000, false);
    AccessOutcome r = h.access(1, 0x10000, false);
    AccessOutcome out = h.access(1, 0x10000, true); // Upgrade.
    EXPECT_TRUE(out.upgrade);
    EXPECT_FALSE(out.offChip);
    EXPECT_GT(out.dataVersion, r.dataVersion);
    EXPECT_EQ(h.l2State(1, 0x10000), Mesif::modified);
    EXPECT_EQ(h.l2State(0, 0x10000), Mesif::invalid);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
}

TEST_P(SnoopPeer, DirtyEvictionWritesBack)
{
    Config cfg = config();
    cfg.l2Bytes = 8 * 1024;
    cfg.l2Assoc = 1;
    cfg.l1Bytes = 1024;
    ProtoHarness h(cfg);
    const unsigned sets = cfg.l2Bytes / cfg.lineBytes;
    const Addr a = 0x10000;
    const Addr b = a + static_cast<Addr>(sets) * cfg.lineBytes;
    AccessOutcome w = h.access(0, a, true);
    h.access(0, b, false); // Evicts dirty a.
    EXPECT_EQ(h.l2State(0, a), Mesif::invalid);
    AccessOutcome out = h.access(1, a, false);
    EXPECT_TRUE(out.offChip);
    EXPECT_TRUE(out.servicedBy.empty());
    EXPECT_EQ(out.dataVersion, w.dataVersion);
    EXPECT_EQ(h.l2State(1, a), Mesif::exclusive);
    EXPECT_TRUE(h.sys->drained());
    h.sys->checkCoherence();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SnoopPeer,
    ::testing::Values(Protocol::broadcast, Protocol::multicast),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        return std::string(toString(info.param));
    });

// ---------------------------------------------------------------------
// Completion-predicate coverage (maybeResumeCore): the requester must
// resume exactly when its data source and response set allow it, for
// each of the three places dataReceived can be set — peer data
// (onData), memory data (onData, fromMemory), and owner data riding on
// an invalidation ack (onAckInv with ownerAck).
// ---------------------------------------------------------------------

TEST(BroadcastCompletion, PeerDataResumesBeforeMemoryResponse)
{
    // Every broadcast miss also launches a speculative memory fetch
    // (memLatency ticks away). When a peer supplies the data the
    // requester must resume on it immediately — not wait for the full
    // response set that includes the speculative memory reply.
    Config cfg = bcConfig();
    ProtoHarness h(cfg);
    h.access(0, 0x10000, true); // Core 0 owns the line dirty.
    AccessOutcome out = h.access(1, 0x10000, false);
    EXPECT_FALSE(out.offChip);
    EXPECT_EQ(out.servicedBy, CoreSet{0});
    EXPECT_LT(out.latency(), cfg.memLatency)
        << "peer-supplied read stalled on the speculative memory "
           "fetch";
    h.sys->checkCoherence();
    EXPECT_TRUE(h.sys->drained());
}

TEST(BroadcastCompletion, MemoryOnlyFillWaitsForEverySnoopResponse)
{
    // With no cached copy anywhere, only the full snoop-response set
    // proves exclusivity: the cold read must both pay the memory
    // latency and land in E (peerHadCopy never set by any response).
    Config cfg = bcConfig();
    ProtoHarness h(cfg);
    AccessOutcome out = h.access(3, 0x20000, false);
    EXPECT_TRUE(out.offChip);
    EXPECT_GE(out.latency(), cfg.memLatency);
    EXPECT_EQ(h.l2State(3, 0x20000), Mesif::exclusive);
    h.sys->checkCoherence();
    EXPECT_TRUE(h.sys->drained());
}

TEST(BroadcastCompletion, WriteMissTakesDataFromOwnerAck)
{
    // A write miss against a dirty owner gets its data on the owner's
    // invalidation ack (the ownerAck path), not from memory.
    ProtoHarness h(bcConfig());
    AccessOutcome w0 = h.access(0, 0x30000, true);
    AccessOutcome out = h.access(2, 0x30000, true);
    EXPECT_FALSE(out.offChip);
    EXPECT_TRUE(out.servicedBy.contains(CoreSet{0}));
    EXPECT_GT(out.dataVersion, w0.dataVersion);
    EXPECT_EQ(h.l2State(2, 0x30000), Mesif::modified);
    EXPECT_EQ(h.l2State(0, 0x30000), Mesif::invalid);
    h.sys->checkCoherence();
    EXPECT_TRUE(h.sys->drained());
}

TEST(BroadcastCompletion, LateMemoryDataAfterWritebackRace)
{
    // Regression for the retired-transaction race: core 0 evicts a
    // dirty line (writeback in flight) while core 1 misses on it. The
    // writeback buffer answers the snoop with data, the transaction
    // can retire on that copy plus the snoop responses, and the slower
    // speculative memory reply then arrives for a transaction that no
    // longer exists. It must be dropped, with the freshest version
    // winning the fill.
    Config cfg = bcConfig();
    cfg.l2Bytes = 8 * 1024;
    cfg.l2Assoc = 1;
    cfg.l1Bytes = 1024;
    ProtoHarness h(cfg);
    const unsigned sets = cfg.l2Bytes / cfg.lineBytes;
    const Addr a = 0x10000;
    const Addr b = a + static_cast<Addr>(sets) * cfg.lineBytes;
    AccessOutcome w = h.access(0, a, true); // Dirty owner.
    auto outs = h.accessAll({{0, b, false},  // Evicts dirty a.
                             {1, a, false}}); // Races the writeback.
    EXPECT_EQ(outs[1].dataVersion, w.dataVersion)
        << "reader lost the written value across the writeback race";
    h.sys->checkCoherence();
    EXPECT_TRUE(h.sys->drained());
}

TEST(BroadcastCompletion, ReadDuringInvalidationKeepsOrdering)
{
    // Late-ack ordering: a reader and a writer race on a line held
    // shared by many cores. Whatever interleaving the fabric picks,
    // both must complete, versions must be monotone, and the final
    // state must satisfy SWMR.
    ProtoHarness h(bcConfig());
    for (CoreId c = 0; c < 4; ++c)
        h.access(c, 0x40000, false);
    auto outs = h.accessAll({{5, 0x40000, true},
                             {6, 0x40000, false}});
    EXPECT_TRUE(outs[0].isWrite);
    EXPECT_GT(outs[0].dataVersion, 0u);
    h.sys->checkCoherence();
    EXPECT_TRUE(h.sys->drained());
}
