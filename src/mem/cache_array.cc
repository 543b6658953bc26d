#include "mem/cache_array.hh"

#include <algorithm>
#include <memory>
#include <vector>

namespace spp {

CacheArray::CacheArray(unsigned size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : assoc_(assoc), line_bytes_(line_bytes),
      line_shift_(std::countr_zero(
          static_cast<unsigned long>(line_bytes)))
{
    SPP_ASSERT(std::has_single_bit(line_bytes),
               "line size must be a power of two, got {}", line_bytes);
    SPP_ASSERT(assoc > 0, "associativity must be non-zero");
    SPP_ASSERT(size_bytes % (line_bytes * assoc) == 0,
               "cache size {} not divisible into {}-way sets",
               size_bytes, assoc);
    n_sets_ = size_bytes / (line_bytes * assoc);
    SPP_ASSERT(std::has_single_bit(n_sets_),
               "set count must be a power of two, got {}", n_sets_);
    set_mask_ = n_sets_ - 1;
    n_lines_ = std::size_t{n_sets_} * assoc_;

    // Tags first, padded to a host line, then the records.
    const std::size_t tag_bytes =
        (n_lines_ * sizeof(Addr) + hostLineBytes - 1) /
        hostLineBytes * hostLineBytes;
    block_ = std::make_unique_for_overwrite<std::byte[]>(
        tag_bytes + n_lines_ * sizeof(CacheLine) + hostLineBytes - 1);
    std::byte *bytes = block_.get();
    bytes += -reinterpret_cast<std::uintptr_t>(bytes) % hostLineBytes;
    tags_ = reinterpret_cast<Addr *>(bytes);
    lines_ = reinterpret_cast<CacheLine *>(bytes + tag_bytes);
    std::uninitialized_fill_n(tags_, n_lines_, unusedTag);
}

std::size_t
CacheArray::findWay(Addr line_addr) const
{
    const std::size_t base = setBase(line_addr);
    for (std::size_t i = base; i < base + assoc_; ++i)
        if (tags_[i] == line_addr && isValid(lines_[i].state))
            return i;
    return n_lines_;
}

CacheLine *
CacheArray::lookup(Addr line_addr)
{
    ++stats_.lookups;
    const std::size_t i = findWay(line_addr);
    if (i == n_lines_) {
        ++stats_.misses;
        return nullptr;
    }
    stamp(lines_[i]);
    ++stats_.hits;
    return &lines_[i];
}

const CacheLine *
CacheArray::peek(Addr line_addr) const
{
    const std::size_t i = findWay(line_addr);
    return i == n_lines_ ? nullptr : &lines_[i];
}

CacheLine *
CacheArray::allocate(Addr line_addr, CacheLine &victim)
{
    SPP_ASSERT(findWay(line_addr) == n_lines_,
               "allocate of already-present line {}", line_addr);
    SPP_ASSERT(holdsLine(line_addr),
               "line address {} is odd, like the empty tags", line_addr);
    victim = CacheLine{};
    const std::size_t base = setBase(line_addr);
    std::size_t i = base;
    while (i < base + assoc_ && holdsLine(tags_[i]))
        ++i;
    if (i == base + assoc_) {
        // Full set: evict the least recently stamped line.
        i = base;
        for (std::size_t w = base + 1; w < base + assoc_; ++w)
            if (lines_[w].lru < lines_[i].lru)
                i = w;
        victim = lines_[i];
        SPP_ASSERT(isValid(victim.state),
                   "line {} was left invalid in a full set", victim.tag);
        ++stats_.evictions;
        if (isDirty(victim.state))
            ++stats_.dirtyEvictions;
    } else if (tags_[i] == unusedTag) {
        std::construct_at(&lines_[i]); // First write of this record.
    }
    CacheLine &target = lines_[i];
    tags_[i] = line_addr;
    target.tag = line_addr;
    target.state = Mesif::invalid;
    stamp(target);
    return &target;
}

Mesif
CacheArray::invalidate(Addr line_addr)
{
    const std::size_t i = findWay(line_addr);
    if (i == n_lines_)
        return Mesif::invalid;
    const Mesif prev = lines_[i].state;
    lines_[i].state = Mesif::invalid;
    tags_[i] = emptyTag;
    return prev;
}

unsigned
CacheArray::validCount() const
{
    unsigned n = 0;
    forEachValid([&](const CacheLine &) { ++n; });
    return n;
}

void
CacheArray::setLruClock(std::uint32_t next)
{
    SPP_ASSERT(next >= next_lru_, "LRU clock may not move back ({} < {})",
               next, next_lru_);
    next_lru_ = next;
}

void
CacheArray::renumberLru()
{
    // Only ways holding a line have stamps that order anything (and
    // only they are sure to have been written).
    std::vector<std::size_t> order;
    order.reserve(assoc_);
    for (std::size_t base = 0; base < n_lines_; base += assoc_) {
        order.clear();
        for (std::size_t i = base; i < base + assoc_; ++i)
            if (holdsLine(tags_[i]))
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return lines_[a].lru < lines_[b].lru;
                  });
        for (std::size_t r = 0; r < order.size(); ++r)
            lines_[order[r]].lru = static_cast<std::uint32_t>(r + 1);
    }
    next_lru_ = assoc_ + 1;
}

} // namespace spp
