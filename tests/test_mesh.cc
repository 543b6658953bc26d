/**
 * @file
 * Unit tests for the mesh NoC model.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "event/event_queue.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"

using namespace spp;

namespace {

struct MeshFixture : ::testing::Test
{
    Config cfg;
    EventQueue eq;
    Mesh mesh{cfg, eq};
};

} // namespace

TEST_F(MeshFixture, HopsAreManhattanDistance)
{
    // 4x4 mesh: tile = y * 4 + x.
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 12), 3u);
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(mesh.hops(5, 10), 2u);
    EXPECT_EQ(mesh.hops(10, 5), 2u);
}

TEST_F(MeshFixture, ZeroLoadLatency)
{
    // router 2 + hops * (link 1 + router 2) + serialization.
    const Tick one_hop_ctrl = mesh.zeroLoadLatency(1, 8);
    EXPECT_EQ(one_hop_ctrl, 2u + 3u + 1u);
    const Tick data = mesh.zeroLoadLatency(2, 72);
    EXPECT_EQ(data, 2u + 6u + 5u); // ceil(72/16) = 5.
    EXPECT_EQ(mesh.zeroLoadLatency(0, 72), 2u); // Local: router only.
}

TEST_F(MeshFixture, DeliveryAtExpectedTick)
{
    Tick delivered = 0;
    Packet p{0, 3, 8, TrafficClass::request};
    mesh.send(p, [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(3, 8));
}

TEST_F(MeshFixture, LocalDelivery)
{
    Tick delivered = 0;
    mesh.send(Packet{5, 5, 8, TrafficClass::request},
              [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, cfg.routerLatency);
}

TEST_F(MeshFixture, BytesAccounting)
{
    mesh.send(Packet{0, 1, 8, TrafficClass::request}, [] {});
    mesh.send(Packet{0, 2, 72, TrafficClass::data}, [] {});
    eq.run();
    EXPECT_EQ(mesh.stats().packets.value(), 2u);
    EXPECT_EQ(mesh.stats().flitBytes.value(), 80u);
    EXPECT_EQ(mesh.stats().byteHops.value(), 8u * 1 + 72u * 2);
    EXPECT_EQ(mesh.stats().byteRouters.value(), 8u * 2 + 72u * 3);
    EXPECT_EQ(mesh.stats().bytesOf(TrafficClass::request), 8u);
    EXPECT_EQ(mesh.stats().bytesOf(TrafficClass::data), 72u);
}

TEST_F(MeshFixture, ContentionDelaysSecondPacket)
{
    // Two large packets on the same path: the second head waits.
    Tick t1 = 0, t2 = 0;
    mesh.send(Packet{0, 3, 72, TrafficClass::data},
              [&] { t1 = eq.curTick(); });
    mesh.send(Packet{0, 3, 72, TrafficClass::data},
              [&] { t2 = eq.curTick(); });
    eq.run();
    EXPECT_GT(t2, t1);
}

TEST_F(MeshFixture, SameRouteIsFifo)
{
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        mesh.send(Packet{0, 15, 8, TrafficClass::request},
                  [&order, i] { order.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MeshNoContention, ZeroLoadWhenDisabled)
{
    Config cfg;
    cfg.modelContention = false;
    EventQueue eq;
    Mesh mesh(cfg, eq);
    Tick t1 = 0, t2 = 0;
    mesh.send(Packet{0, 3, 72, TrafficClass::data},
              [&] { t1 = eq.curTick(); });
    mesh.send(Packet{0, 3, 72, TrafficClass::data},
              [&] { t2 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(t1, t2); // No queueing in the zero-load model.
}

TEST(MeshLatencySample, RecordsLatencies)
{
    Config cfg;
    EventQueue eq;
    Mesh mesh(cfg, eq);
    mesh.send(Packet{0, 15, 8, TrafficClass::request}, [] {});
    eq.run();
    EXPECT_EQ(mesh.stats().packetLatency.count(), 1u);
    EXPECT_GT(mesh.stats().packetLatency.mean(), 0.0);
}

TEST(MeshRectangular, RoutesAndHomesStayInRange)
{
    // 4x2 mesh: tile = y * 4 + x; nothing may assume a square grid.
    Config cfg;
    cfg.numCores = 8;
    cfg.meshX = 4;
    cfg.meshY = 2;
    cfg.validate();
    EventQueue eq;
    Mesh mesh(cfg, eq);

    EXPECT_EQ(mesh.hops(0, 7), 4u);  // (0,0) -> (3,1).
    EXPECT_EQ(mesh.hops(3, 4), 4u);  // (3,0) -> (0,1).
    EXPECT_EQ(mesh.hops(2, 6), 1u);  // Straight down one row.

    // Contention routing walks every link of the route; an idle
    // mesh must agree with the zero-load latency.
    Tick delivered = 0;
    mesh.send(Packet{0, 7, 8, TrafficClass::request},
              [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(4, 8));

    AddressMap map(cfg);
    for (Addr a = 0; a < 64 * cfg.lineBytes; a += cfg.lineBytes)
        EXPECT_LT(map.homeNode(a), cfg.numCores);
}

TEST(MeshRectangular, TallMeshDelivers)
{
    // 2x8: more rows than columns.
    Config cfg;
    cfg.numCores = 16;
    cfg.meshX = 2;
    cfg.meshY = 8;
    cfg.validate();
    EventQueue eq;
    Mesh mesh(cfg, eq);
    EXPECT_EQ(mesh.hops(0, 15), 8u); // (0,0) -> (1,7).
    Tick delivered = 0;
    mesh.send(Packet{15, 0, 72, TrafficClass::data},
              [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(8, 72));
}

// --- Arithmetic routing vs. the path-vector reference ----------------
//
// Mesh::inject walks the X-Y route as one loop of link-index
// arithmetic over precomputed tile coordinates. The reference below
// is the direct formulation: enumerate the tile path into a vector,
// then map each consecutive tile pair to its directional link. Both
// must reserve the same links at the same ticks for every src -> dst
// pair, and Mesh::hops must equal the reference path length, on
// square, rectangular and single-row/column meshes.

namespace {

struct PathVectorMesh
{
    const Config &cfg;
    std::vector<Tick> linkFree;
    std::vector<std::uint64_t> linkBusy;

    explicit PathVectorMesh(const Config &c)
        : cfg(c), linkFree(std::size_t{c.numCores} * 4, 0),
          linkBusy(std::size_t{c.numCores} * 4, 0)
    {}

    std::size_t
    linkIndex(unsigned a, unsigned b) const
    {
        // Tiles in the same row are an X hop apart, even on a
        // one-column mesh where a Y hop also moves the index by one.
        unsigned dir;
        if (a / cfg.meshX == b / cfg.meshX)
            dir = b > a ? 0 : 1;
        else
            dir = b > a ? 2 : 3;
        return std::size_t{a} * 4 + dir;
    }

    std::vector<unsigned>
    route(CoreId src, CoreId dst) const
    {
        std::vector<unsigned> path{src};
        unsigned cur = src;
        const unsigned dst_x = dst % cfg.meshX;
        while (cur % cfg.meshX != dst_x) {
            cur = cur % cfg.meshX < dst_x ? cur + 1 : cur - 1;
            path.push_back(cur);
        }
        while (cur != dst) {
            cur = cur < dst ? cur + cfg.meshX : cur - cfg.meshX;
            path.push_back(cur);
        }
        return path;
    }

    Tick
    inject(Tick now, const Packet &pkt)
    {
        const std::vector<unsigned> path = route(pkt.src, pkt.dst);
        if (path.size() == 1)
            return now + cfg.routerLatency;
        const Tick serialization =
            (pkt.bytes + cfg.linkBytesPerCycle - 1) /
            cfg.linkBytesPerCycle;
        Tick head = now + cfg.routerLatency;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const std::size_t idx = linkIndex(path[i], path[i + 1]);
            Tick &free_at = linkFree[idx];
            if (free_at > head)
                head = free_at;
            free_at = head + serialization;
            linkBusy[idx] += serialization;
            head += cfg.linkLatency + cfg.routerLatency;
        }
        return head + serialization;
    }
};

class MeshRouteVsReference
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

} // namespace

TEST_P(MeshRouteVsReference, EveryPairMatchesPathVectorRouting)
{
    const auto [mx, my] = GetParam();
    Config cfg;
    cfg.numCores = mx * my;
    cfg.meshX = mx;
    cfg.meshY = my;
    cfg.validate();
    ASSERT_TRUE(cfg.modelContention);
    EventQueue eq;
    Mesh mesh(cfg, eq);
    PathVectorMesh ref(cfg);

    // All packets inject at tick 0, so later pairs queue behind the
    // links earlier pairs reserved: contention is exercised too.
    unsigned n = 0;
    for (CoreId src = 0; src < cfg.numCores; ++src) {
        for (CoreId dst = 0; dst < cfg.numCores; ++dst, ++n) {
            const Packet pkt{src, dst, n % 3 == 0 ? 72u : 8u,
                             TrafficClass::request};
            ASSERT_EQ(mesh.hops(src, dst),
                      ref.route(src, dst).size() - 1)
                << mx << "x" << my << " " << src << " -> " << dst;
            ASSERT_EQ(mesh.inject(pkt), ref.inject(eq.curTick(), pkt))
                << mx << "x" << my << " " << src << " -> " << dst;
        }
    }
    EXPECT_EQ(mesh.linkBusyTicks(), ref.linkBusy);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MeshRouteVsReference,
    ::testing::Values(std::pair{4u, 4u}, std::pair{8u, 8u},
                      std::pair{16u, 4u}, std::pair{2u, 8u},
                      std::pair{8u, 2u}, std::pair{1u, 16u},
                      std::pair{16u, 1u}, std::pair{32u, 32u}),
    [](const auto &info) {
        return std::to_string(info.param.first) + "x" +
            std::to_string(info.param.second);
    });
