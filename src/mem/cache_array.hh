/**
 * @file
 * Generic set-associative cache tag/state array with LRU replacement.
 *
 * The array stores coherence state only (the simulator carries data
 * values in a separate logical memory for checking); it is used for
 * both the L1 filter cache and the private L2.
 *
 * Layout: each set's tags sit contiguously in a tag array (an empty
 * way holds an odd sentinel), apart from the CacheLine records, and
 * both arrays start on a host cache line. An 8-way set's tags fill
 * one 64-byte host line, so a search that misses reads one host line;
 * a hit reads that line and the hit way's record.
 *
 * Construction writes only the tag array (8 of a line's 40 bytes). A
 * record is first written when allocate() takes its way, so a run
 * pays in time and resident memory only for the records it touches.
 */

#ifndef SPP_MEM_CACHE_ARRAY_HH
#define SPP_MEM_CACHE_ARRAY_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mesif.hh"

namespace spp {

/** One cache line's bookkeeping. */
struct CacheLine
{
    Addr tag = 0;               ///< Full line address (not truncated).
    Mesif state = Mesif::invalid;
    std::uint32_t lru = 0;      ///< Higher = more recently used (within
                                ///< its set; see CacheArray).
    Pc lastPc = 0;              ///< Instruction that last missed here
                                ///< (INST predictor training).
    std::uint64_t version = 0;  ///< Logical data version (checker).
};

// A line costs 40 bytes: this record plus its 8-byte tag-array entry.
static_assert(sizeof(CacheLine) == 32);

/** Statistics for one cache array. */
struct CacheStats
{
    Counter lookups;
    Counter hits;
    Counter misses;
    Counter evictions;
    Counter dirtyEvictions;
};

/**
 * Set-associative array of CacheLine records indexed by line address.
 *
 * A line leaves the array only through invalidate() or eviction, and
 * the caller of allocate() installs a valid state in the returned
 * line: a way is empty exactly when its tag is odd (unusedTag or
 * emptyTag), which is what victim selection reads (an eviction
 * asserts that its victim is valid).
 *
 * The record of an unusedTag way has never been written, and nothing
 * reads it: a search reads a record only after its tag matches a
 * (line-aligned, so even) address, forEachValid() and the stamp
 * renumbering skip empty ways, and only full sets are scanned for a
 * victim. allocate() value-initialises the record of an unusedTag
 * way, so a fresh line reads lastPc == 0 and version == 0. An
 * emptyTag way was invalidated; its record keeps the last occupant's
 * lastPc and version, and allocate() rewrites only tag, state and
 * stamp, as it does for an evicted way.
 *
 * LRU stamps are 32 bits. Only their order within a set matters, so
 * when the clock is about to wrap every set's stamps are renumbered
 * 1..assoc in their existing order and the clock restarts above them;
 * replacement decisions are the same as with unbounded stamps.
 */
class CacheArray
{
  public:
    /** Tag of a way that has never held a line (record unwritten).
     * Both sentinels are odd, so no line-aligned address equals
     * either; allocate() rejects odd addresses. */
    static constexpr Addr unusedTag = ~Addr{0};
    /** Tag of a way whose line was invalidated (record kept). */
    static constexpr Addr emptyTag = Addr{1};

    /**
     * @param size_bytes Total capacity.
     * @param assoc Ways per set.
     * @param line_bytes Line size (power of two).
     *
     * The set count, size_bytes / (line_bytes * assoc), must be a
     * power of two.
     */
    CacheArray(unsigned size_bytes, unsigned assoc, unsigned line_bytes);

    /**
     * Look up @p line_addr (must be line-aligned). Touches LRU on hit.
     * @return pointer to the line, or nullptr on miss.
     */
    CacheLine *lookup(Addr line_addr);

    /** Look up without updating LRU or stats (for checkers/peeks). */
    const CacheLine *peek(Addr line_addr) const;

    /** Mutable lookup without LRU/stats updates (protocol actions). */
    CacheLine *
    find(Addr line_addr)
    {
        return const_cast<CacheLine *>(
            static_cast<const CacheArray *>(this)->peek(line_addr));
    }

    /**
     * Allocate a way for @p line_addr, evicting the LRU victim if the
     * set is full. The line is returned in Mesif::invalid with the tag
     * set; the caller installs the state.
     *
     * @param[out] victim If an eviction occurred, receives the evicted
     *             line's previous contents (tag + state); otherwise
     *             victim.state == Mesif::invalid.
     * @return the allocated line.
     */
    CacheLine *allocate(Addr line_addr, CacheLine &victim);

    /** Invalidate @p line_addr if present. @return previous state. */
    Mesif invalidate(Addr line_addr);

    /** Number of valid lines currently held (O(size); for tests). */
    unsigned validCount() const;

    unsigned numSets() const { return n_sets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return line_bytes_; }

    const CacheStats &stats() const { return stats_; }

    /**
     * Move the LRU clock forward to @p next (not below its current
     * value). Replacement order is unchanged; tests use it to cross
     * the 32-bit wrap.
     */
    void setLruClock(std::uint32_t next);

    /** Call @p fn(line) for every valid line (used by flush/tests). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < n_lines_; ++i)
            if (holdsLine(tags_[i]) && isValid(lines_[i].state))
                fn(lines_[i]);
    }

  private:
    static constexpr std::size_t hostLineBytes = 64;

    /** Whether a way with tag @p tag holds a line (is not empty). */
    static bool holdsLine(Addr tag) { return (tag & 1) == 0; }

    /** Index of @p line_addr's set's first way. */
    std::size_t
    setBase(Addr line_addr) const
    {
        const Addr set = (line_addr >> line_shift_) & set_mask_;
        return static_cast<std::size_t>(set) * assoc_;
    }

    /** Index of the valid way holding @p line_addr, or n_lines_. */
    std::size_t findWay(Addr line_addr) const;

    /** Give @p line the next LRU stamp. */
    void
    stamp(CacheLine &line)
    {
        if (next_lru_ == ~std::uint32_t{0}) [[unlikely]]
            renumberLru();
        line.lru = next_lru_++;
    }

    void renumberLru();

    unsigned n_sets_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned line_shift_;
    Addr set_mask_;
    std::uint32_t next_lru_ = 1;
    std::size_t n_lines_;
    /** One block: the tag array, then the CacheLine records, from
     * the first host line boundary in it. Only the tags are
     * initialised at construction. */
    std::unique_ptr<std::byte[]> block_;
    Addr *tags_;
    CacheLine *lines_;
    CacheStats stats_;
};

} // namespace spp

#endif // SPP_MEM_CACHE_ARRAY_HH
