/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef SPP_COMMON_TYPES_HH
#define SPP_COMMON_TYPES_HH

#include <cstdint>

namespace spp {

/** Simulated time, in cycles of the core/NoC clock. */
using Tick = std::uint64_t;

/** A physical (simulated) memory address. */
using Addr = std::uint64_t;

/** Identifier of a physical core / tile. */
using CoreId = std::uint32_t;

/** Identifier of a logical thread (see ThreadMap for migration). */
using ThreadId = std::uint32_t;

/** Program counter of a (synthetic) static instruction or sync-point. */
using Pc = std::uint64_t;

/** Sentinel for "no core". */
inline constexpr CoreId invalidCore = ~CoreId{0};

/** Sentinel tick meaning "never" / unscheduled. */
inline constexpr Tick maxTick = ~Tick{0};

/**
 * Largest supported system (a 32x32 mesh): the bound Config
 * validation and the CLI parsers check core counts against. CoreSet
 * storage does not scale with it up to 64 cores; larger sets carry a
 * heap tail of maxCores / 8 - 8 bytes (see common/core_set.hh).
 */
inline constexpr unsigned maxCores = 1024;

/** Modelled physical address width; storage cost models derive tag
 * widths from this rather than hard-coding them. */
inline constexpr unsigned physAddrBits = 48;

} // namespace spp

#endif // SPP_COMMON_TYPES_HH
