#include "noc/mesh.hh"

#include <cstdlib>

namespace spp {

Mesh::Mesh(const Config &cfg, EventQueue &eq)
    : cfg_(cfg), eq_(eq), n_cores_(cfg.numCores),
      link_free_(static_cast<std::size_t>(cfg.numCores) * 4, 0),
      link_busy_(static_cast<std::size_t>(cfg.numCores) * 4, 0)
{
    // Rectangular meshes are fine; a mesh that does not cover the
    // core count would silently mis-route (tile = y * meshX + x).
    SPP_ASSERT(cfg.meshX * cfg.meshY == cfg.numCores,
               "mesh {}x{} does not cover {} cores", cfg.meshX,
               cfg.meshY, cfg.numCores);
}

unsigned
Mesh::hops(CoreId src, CoreId dst) const
{
    const int sx = static_cast<int>(src % cfg_.meshX);
    const int sy = static_cast<int>(src / cfg_.meshX);
    const int dx = static_cast<int>(dst % cfg_.meshX);
    const int dy = static_cast<int>(dst / cfg_.meshX);
    return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
}

Tick
Mesh::zeroLoadLatency(unsigned n_hops, unsigned bytes) const
{
    const Tick serialization =
        (bytes + cfg_.linkBytesPerCycle - 1) / cfg_.linkBytesPerCycle;
    return cfg_.routerLatency // Injection router.
         + n_hops * (cfg_.linkLatency + cfg_.routerLatency)
         + (n_hops ? serialization : 0);
}

Tick
Mesh::inject(const Packet &pkt)
{
    SPP_ASSERT(pkt.src < n_cores_ && pkt.dst < n_cores_,
               "packet endpoints out of range: {} -> {}", pkt.src,
               pkt.dst);

    SelfProfiler::Scope prof(self_prof_, ProfScope::noc);
    const Tick now = eq_.curTick();
    const unsigned n_hops = hops(pkt.src, pkt.dst);

    ++stats_.packets;
    stats_.flitBytes += pkt.bytes;
    stats_.byteHops += static_cast<std::uint64_t>(pkt.bytes) * n_hops;
    stats_.byteRouters +=
        static_cast<std::uint64_t>(pkt.bytes) * (n_hops + 1);
    stats_.routerTraversals += n_hops + 1;
    stats_.bytesByClass[static_cast<std::size_t>(pkt.cls)] += pkt.bytes;

    Tick arrive;
    if (!cfg_.modelContention || n_hops == 0) {
        arrive = now + zeroLoadLatency(n_hops, pkt.bytes);
    } else {
        const Tick serialization =
            (pkt.bytes + cfg_.linkBytesPerCycle - 1) /
            cfg_.linkBytesPerCycle;
        // Head traversal with per-link reservation: the head may wait
        // for a busy link; each link stays busy for the packet's
        // serialization time once the head passes.
        Tick head = now + cfg_.routerLatency;
        auto cross = [&](unsigned tile, unsigned dir) {
            const std::size_t idx = std::size_t{tile} * 4 + dir;
            Tick &free_at = link_free_[idx];
            if (free_at > head)
                head = free_at;              // Queueing delay.
            free_at = head + serialization;  // Occupy for the body.
            link_busy_[idx] += serialization;
            head += cfg_.linkLatency + cfg_.routerLatency;
        };
        // Dimension-order route: X hops first, then Y. Each hop leaves
        // tile `cur` on its +X (0), -X (1), +Y (2) or -Y (3) link.
        const unsigned mx = cfg_.meshX;
        const unsigned dst_x = pkt.dst % mx;
        unsigned cur = pkt.src;
        for (; cur % mx < dst_x; ++cur)
            cross(cur, 0);
        for (; cur % mx > dst_x; --cur)
            cross(cur, 1);
        for (; cur < pkt.dst; cur += mx)
            cross(cur, 2);
        for (; cur > pkt.dst; cur -= mx)
            cross(cur, 3);
        // Tail arrives a serialization time after the head.
        arrive = head + serialization;
    }

    stats_.packetLatency.sample(static_cast<double>(arrive - now));
    return arrive;
}

} // namespace spp
