#include "noc/mesh.hh"

#include <algorithm>

namespace spp {

namespace {

unsigned
absDiff(unsigned a, unsigned b)
{
    return a > b ? a - b : b - a;
}

} // namespace

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
    coord_.reserve(n_cores_);
    for (unsigned y = 0; y < cfg.meshY; ++y)
        for (unsigned x = 0; x < cfg.meshX; ++x)
            coord_.push_back({static_cast<std::uint16_t>(x),
                              static_cast<std::uint16_t>(y)});
    const unsigned max_bytes =
        std::max(cfg.ctrlPacketBytes, cfg.dataPacketBytes);
    for (unsigned b = 0; b <= max_bytes; ++b)
        ser_ticks_.push_back(serializationSlow(b));
}

Tick
Mesh::serializationSlow(unsigned bytes) const
{
    return (Tick{bytes} + cfg_.linkBytesPerCycle - 1) /
        cfg_.linkBytesPerCycle;
}

unsigned
Mesh::hops(CoreId src, CoreId dst) const
{
    const Coord s = coord_[src];
    const Coord d = coord_[dst];
    return absDiff(s.x, d.x) + absDiff(s.y, d.y);
}

Tick
Mesh::zeroLoadLatency(unsigned n_hops, unsigned bytes) const
{
    return cfg_.routerLatency // Injection router.
         + n_hops * (cfg_.linkLatency + cfg_.routerLatency)
         + (n_hops ? serializationOf(bytes) : 0);
}

Tick
Mesh::inject(const Packet &pkt)
{
    SPP_ASSERT(pkt.src < n_cores_ && pkt.dst < n_cores_,
               "packet endpoints out of range: {} -> {}", pkt.src,
               pkt.dst);

    SelfProfiler::Scope prof(self_prof_, ProfScope::noc);
    const Tick now = eq_.curTick();
    const Coord s = coord_[pkt.src];
    const Coord d = coord_[pkt.dst];
    const unsigned x_hops = absDiff(s.x, d.x);
    const unsigned n_hops = x_hops + absDiff(s.y, d.y);

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
        const Tick serialization = serializationOf(pkt.bytes);
        const Tick hop = cfg_.linkLatency + cfg_.routerLatency;
        // Dimension-order route: X hops first, then Y. A hop leaving
        // tile t uses link 4t + dir (dir 0 = +X, 1 = -X, 2 = +Y,
        // 3 = -Y), so along the X leg the link index moves by +-4 per
        // hop and along the Y leg by +-4 * meshX; at the turn it
        // switches from the X to the Y direction of the same tile.
        const std::size_t x_dir = d.x > s.x ? 0 : 1;
        const std::size_t y_dir = d.y > s.y ? 2 : 3;
        const std::size_t x_step = d.x > s.x ? 4 : 0 - std::size_t{4};
        const std::size_t row = std::size_t{4} * cfg_.meshX;
        const std::size_t y_step = d.y > s.y ? row : 0 - row;
        std::size_t idx = std::size_t{pkt.src} * 4 + x_dir;
        std::size_t step = x_step;
        // Head traversal with per-link reservation: the head may wait
        // for a busy link; each link stays busy for the packet's
        // serialization time once the head passes.
        Tick head = now + cfg_.routerLatency;
        for (unsigned h = 0; h < n_hops; ++h) {
            if (h == x_hops) {
                idx += y_dir - x_dir;
                step = y_step;
            }
            Tick &free_at = link_free_[idx];
            if (free_at > head)
                head = free_at;              // Queueing delay.
            free_at = head + serialization;  // Occupy for the body.
            link_busy_[idx] += serialization;
            head += hop;
            idx += step;
        }
        // Tail arrives a serialization time after the head.
        arrive = head + serialization;
    }

    stats_.packetLatency.sample(static_cast<double>(arrive - now));
    return arrive;
}

} // namespace spp
