/**
 * @file
 * CoreSet: a bit vector over core IDs.
 *
 * Communication signatures, predicted destination sets and directory
 * sharer vectors are all CoreSets. The paper's design point is 16
 * cores, where a signature is one 16-bit vector, so the layout is
 * built for small sets: one inline 64-bit word holds cores 0-63, and
 * an owned heap tail holds cores 64 to maxCores - 1. The tail is
 * allocated only when a core >= 64 is first added (the small-buffer
 * layout of LLVM's SmallBitVector), so a machine of up to 64 cores
 * never touches the allocator through a CoreSet, and a CoreSet stays
 * two words whatever the configured core count.
 *
 * Above 64 cores a set that has ever held a high core costs one heap
 * block of maxCores / 8 - 8 bytes. Copy-assignment into a set that
 * already owns a tail reuses it, so long-lived slots (pooled
 * messages, per-core MSHRs) stop allocating after warm-up. Equality
 * is logical: an all-zero tail equals no tail. The iteration order
 * (ascending core ID) and the toHex()/fromHex() rendering do not
 * depend on whether a tail exists.
 */

#ifndef SPP_COMMON_CORE_SET_HH
#define SPP_COMMON_CORE_SET_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "common/types.hh"

namespace spp {

/**
 * A set of core IDs: an inline word for cores 0-63 plus an optional
 * heap tail for cores 64 and up. Value type.
 */
class CoreSet
{
  public:
    using Word = std::uint64_t;
    static constexpr unsigned wordBits = 64;
    /** Words in the heap tail (cores wordBits .. maxCores - 1). */
    static constexpr unsigned tailWords =
        (maxCores + wordBits - 1) / wordBits - 1;
    /** Longest toHex() rendering (one digit per four cores). */
    static constexpr unsigned maxHexDigits = (maxCores + 3) / 4;

    CoreSet() = default;

    CoreSet(const CoreSet &o) : w0_(o.w0_)
    {
        if (o.tail_ != nullptr)
            std::copy_n(o.tail_.get(), tailWords, ownTail());
    }

    CoreSet(CoreSet &&o) noexcept
        : w0_(std::exchange(o.w0_, 0)), tail_(std::move(o.tail_))
    {}

    CoreSet &
    operator=(const CoreSet &o)
    {
        if (this == &o)
            return *this;
        w0_ = o.w0_;
        if (o.tail_ != nullptr)
            std::copy_n(o.tail_.get(), tailWords, ownTail());
        else
            clearTail();
        return *this;
    }

    /** Takes @p o's tail if it has one, else keeps (and clears) its
     * own; @p o is left empty. */
    CoreSet &
    operator=(CoreSet &&o) noexcept
    {
        if (this == &o)
            return *this;
        w0_ = std::exchange(o.w0_, 0);
        if (o.tail_ != nullptr)
            tail_ = std::move(o.tail_);
        else
            clearTail();
        return *this;
    }

    /** Construct from an explicit single-word mask (cores 0..63). */
    static CoreSet
    fromMask(Word mask)
    {
        CoreSet s;
        s.w0_ = mask;
        return s;
    }

    /** Construct a set holding exactly one core. */
    static CoreSet
    single(CoreId core)
    {
        CoreSet s;
        s.set(core);
        return s;
    }

    /** Construct the full set {0, ..., n_cores - 1}. */
    static CoreSet
    all(unsigned n_cores)
    {
        assert(n_cores <= maxCores);
        CoreSet s;
        // A shift by a full word width is UB: only a genuinely
        // partial word is built by shifting.
        if (n_cores < wordBits) {
            s.w0_ = (Word{1} << n_cores) - 1;
            return s;
        }
        s.w0_ = ~Word{0};
        const unsigned rest = n_cores - wordBits;
        if (rest == 0)
            return s;
        Word *t = s.ownTail();
        const unsigned full = rest / wordBits;
        for (unsigned w = 0; w < full; ++w)
            t[w] = ~Word{0};
        if (rest % wordBits != 0)
            t[full] = (Word{1} << (rest % wordBits)) - 1;
        return s;
    }

    CoreSet(std::initializer_list<CoreId> cores)
    {
        for (CoreId c : cores)
            set(c);
    }

    void
    set(CoreId core)
    {
        assert(core < maxCores);
        if (core < wordBits)
            w0_ |= bit(core);
        else
            ownTail()[tailIndex(core)] |= bit(core);
    }

    void
    reset(CoreId core)
    {
        assert(core < maxCores);
        if (core < wordBits)
            w0_ &= ~bit(core);
        else if (tail_ != nullptr)
            tail_[tailIndex(core)] &= ~bit(core);
    }

    bool
    test(CoreId core) const
    {
        assert(core < maxCores);
        if (core < wordBits)
            return w0_ & bit(core);
        return tail_ != nullptr && (tail_[tailIndex(core)] & bit(core));
    }

    /** Empty the set; an owned tail is kept for reuse. */
    void
    clear()
    {
        w0_ = 0;
        clearTail();
    }

    bool empty() const { return w0_ == 0 && tailEmpty(); }

    /** Number of cores in the set. */
    unsigned
    count() const
    {
        unsigned n = static_cast<unsigned>(std::popcount(w0_));
        if (tail_ != nullptr)
            for (unsigned w = 0; w < tailWords; ++w)
                n += static_cast<unsigned>(std::popcount(tail_[w]));
        return n;
    }

    /**
     * The historical single-word view; every member must fit in 64
     * bits. Prefer toHex()/fromHex() for serialization — this exists
     * for small-system call sites and tests.
     */
    Word
    mask() const
    {
        assert(tailEmpty() && "mask() on a set with cores >= 64");
        return w0_;
    }

    /** Lowest-numbered member; the set must be non-empty. */
    CoreId
    first() const
    {
        for (unsigned w = 0; w < wordLimit(); ++w)
            if (const Word x = word(w); x != 0)
                return static_cast<CoreId>(w * wordBits +
                                           std::countr_zero(x));
        assert(!"first() on an empty CoreSet");
        return invalidCore;
    }

    /** True iff this set contains every member of @p other. */
    bool
    contains(const CoreSet &other) const
    {
        if (other.w0_ & ~w0_)
            return false;
        if (other.tail_ != nullptr)
            for (unsigned w = 0; w < tailWords; ++w)
                if (other.tail_[w] & ~tailWord(w))
                    return false;
        return true;
    }

    bool
    intersects(const CoreSet &other) const
    {
        if (w0_ & other.w0_)
            return true;
        if (tail_ != nullptr && other.tail_ != nullptr)
            for (unsigned w = 0; w < tailWords; ++w)
                if (tail_[w] & other.tail_[w])
                    return true;
        return false;
    }

    CoreSet
    operator|(const CoreSet &o) const
    {
        CoreSet r(*this);
        r |= o;
        return r;
    }

    CoreSet
    operator&(const CoreSet &o) const
    {
        CoreSet r(*this);
        r &= o;
        return r;
    }

    /** Set difference: members of this set not in @p o. */
    CoreSet
    operator-(const CoreSet &o) const
    {
        CoreSet r(*this);
        r.w0_ &= ~o.w0_;
        if (r.tail_ != nullptr && o.tail_ != nullptr)
            for (unsigned w = 0; w < tailWords; ++w)
                r.tail_[w] &= ~o.tail_[w];
        return r;
    }

    CoreSet &
    operator|=(const CoreSet &o)
    {
        w0_ |= o.w0_;
        if (o.tail_ != nullptr) {
            Word *t = ownTail();
            for (unsigned w = 0; w < tailWords; ++w)
                t[w] |= o.tail_[w];
        }
        return *this;
    }

    CoreSet &
    operator&=(const CoreSet &o)
    {
        w0_ &= o.w0_;
        if (tail_ != nullptr) {
            if (o.tail_ == nullptr) {
                clearTail();
            } else {
                for (unsigned w = 0; w < tailWords; ++w)
                    tail_[w] &= o.tail_[w];
            }
        }
        return *this;
    }

    bool
    operator==(const CoreSet &o) const
    {
        if (w0_ != o.w0_)
            return false;
        if (tail_ == nullptr)
            return o.tailEmpty();
        if (o.tail_ == nullptr)
            return tailEmpty();
        return std::equal(tail_.get(), tail_.get() + tailWords,
                          o.tail_.get());
    }

    /**
     * Iteration support: visits member core IDs in ascending order.
     * The iterator references the set, so the set must outlive the
     * iteration (range-for over a temporary is fine: the temporary's
     * lifetime covers the loop).
     */
    class iterator
    {
      public:
        iterator(const CoreSet &set, unsigned word)
            : set_(&set), word_(word)
        {
            skipEmptyWords();
        }

        CoreId
        operator*() const
        {
            return static_cast<CoreId>(
                word_ * wordBits + std::countr_zero(rest_));
        }

        iterator &
        operator++()
        {
            rest_ &= rest_ - 1;
            if (rest_ == 0) {
                ++word_;
                skipEmptyWords();
            }
            return *this;
        }

        bool
        operator==(const iterator &o) const
        {
            return word_ == o.word_ && rest_ == o.rest_;
        }

      private:
        void
        skipEmptyWords()
        {
            const unsigned limit = set_->wordLimit();
            while (word_ < limit && set_->word(word_) == 0)
                ++word_;
            rest_ = word_ < limit ? set_->word(word_) : 0;
        }

        const CoreSet *set_;
        unsigned word_;
        Word rest_ = 0;
    };

    iterator begin() const { return iterator(*this, 0); }
    iterator end() const { return iterator(*this, wordLimit()); }

    /** Render as e.g. "{0,5,12}" for logs and test failure messages. */
    std::string toString() const;

    /** Render as a 0/1 string of @p n_cores bits, LSB (core 0) first. */
    std::string toBitString(unsigned n_cores) const;

    /**
     * Compact lowercase-hex rendering of the whole mask (least
     * significant digit last, no leading zeros, "0" when empty);
     * width-independent serialization for trace files.
     */
    std::string toHex() const;

    /** Parse a toHex() rendering of at most maxHexDigits digits;
     * fatal on malformed input. */
    static CoreSet fromHex(const std::string &hex);

  private:
    static Word bit(CoreId core) { return Word{1} << (core % wordBits); }
    static unsigned tailIndex(CoreId core) { return core / wordBits - 1; }

    /** The tail, allocated (zeroed) on first use. */
    Word *
    ownTail()
    {
        if (tail_ == nullptr)
            tail_ = std::make_unique<Word[]>(tailWords);
        return tail_.get();
    }

    void
    clearTail()
    {
        if (tail_ != nullptr)
            std::fill_n(tail_.get(), tailWords, Word{0});
    }

    bool
    tailEmpty() const
    {
        return tail_ == nullptr ||
            std::all_of(tail_.get(), tail_.get() + tailWords,
                        [](Word w) { return w == 0; });
    }

    Word tailWord(unsigned w) const { return tail_ ? tail_[w] : 0; }

    /** Words worth scanning: 1 without a tail, all with one. */
    unsigned wordLimit() const { return tail_ ? tailWords + 1 : 1; }

    /** Word @p w of the whole mask (0 = the inline word). */
    Word word(unsigned w) const { return w == 0 ? w0_ : tail_[w - 1]; }

    Word w0_ = 0;
    std::unique_ptr<Word[]> tail_;
};

static_assert(sizeof(CoreSet) <= 16,
              "CoreSet must stay two words: inline word + tail pointer");

} // namespace spp

#endif // SPP_COMMON_CORE_SET_HH
