/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives a run. Events are type-erased callables
 * scheduled at absolute ticks; same-tick events fire in scheduling
 * order (FIFO), which makes protocol behaviour deterministic.
 */

#ifndef SPP_EVENT_EVENT_QUEUE_HH
#define SPP_EVENT_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace spp {

/**
 * Calendar queue over (tick, seq, action) triples: a ring of
 * per-tick FIFO slots covering the near-time window
 * [curTick(), curTick() + windowSlots), with a binary-heap overflow
 * for far-future events. Nearly every event in a coherence run is a
 * short latency hop (cache/dir/link delays of a few dozen ticks), so
 * the common schedule() appends to a slot's FIFO and the common
 * step() pops from the current slot — both O(1).
 *
 * Every pending event lives in an address-stable Node drawn from a
 * LIFO freelist the queue owns (nodes are carved from fixed-size
 * chunks that never move). schedule() constructs the closure
 * directly in its node's InlineFn, each slot is an intrusive
 * head/tail list of nodes, and the far heap orders (when, seq, node)
 * handles, so a closure is never moved after it is built. step()
 * unlinks the node, invokes and destroys the closure in place, and
 * returns the node to the freelist. In steady state the queue
 * therefore allocates nothing, event memory is bounded by the peak
 * number of pending events, and the node a new event takes is the
 * one most recently freed (still in cache). Closures still pending
 * when the queue is destroyed are destroyed with it.
 *
 * Determinism contract (same as a pure heap): events fire in
 * ascending (when, seq) order, seq being global insertion order, so
 * same-tick events run FIFO. The two structures never hold entries
 * that interleave incorrectly: a far entry for tick T can only be
 * inserted while T lies beyond the window, and a slot entry for T
 * only while T lies inside it; the window base (curTick()) never
 * moves backwards, so every heap entry for T predates — and has a
 * smaller seq than — every slot entry for T. Draining heap entries
 * due at T before the slot FIFO at T therefore reproduces the exact
 * global order without ever migrating entries between structures.
 *
 * The heap is managed explicitly (std::pop_heap over a vector):
 * extracting an event must fully remove it from the container
 * *before* running it, because the action may schedule new events.
 */
class EventQueue
{
  public:
    /**
     * Inline capacity for event closures. Sized for the fattest
     * kernel closure (the L2-miss continuation: a DoneFn plus line,
     * pc and issue-time context); anything bigger fails to compile
     * in schedule() rather than silently regressing to heap
     * allocation.
     */
    static constexpr std::size_t actionCapacity = 88;

    using Action = InlineFn<actionCapacity>;

    /**
     * Observer of periodic tick-boundary crossings (telemetry
     * sampling). onBoundary(b) fires the first time execution
     * reaches a tick >= b, *before* the event at that tick runs, so
     * the observer sees simulator state exactly as of the start of
     * the boundary tick. When a single event advances time across
     * several boundaries, one callback fires per boundary (in
     * order), all observing the same quiescent state.
     */
    class TickObserver
    {
      public:
        virtual ~TickObserver() = default;
        virtual void onBoundary(Tick boundary) = 0;
    };

    EventQueue() = default;

    // Slots and the far heap point into the node chunks.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /**
     * Install @p obs, firing every @p period ticks starting at the
     * next multiple of @p period after curTick(); nullptr removes
     * the observer. The observer is polled on the event execution
     * path rather than scheduled as events, so the queue still
     * drains naturally and a disabled (null) observer costs one
     * predictable branch per event.
     */
    void
    setTickObserver(TickObserver *obs, Tick period = 0)
    {
        obs_ = obs;
        if (obs != nullptr) {
            SPP_ASSERT(period > 0,
                       "tick-observer period must be non-zero");
            obs_period_ = period;
            obs_next_ = (cur_tick_ / period + 1) * period;
        }
    }

    bool hasTickObserver() const { return obs_ != nullptr; }

    /**
     * Schedule @p fn at absolute time @p when (>= curTick()). @p fn is
     * any callable that fits an Action, or an Action itself; it is
     * built directly in the event's node and not moved again.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        SPP_ASSERT(when >= cur_tick_,
                   "schedule in the past: {} < {}", when, cur_tick_);
        Node *node = acquireNode();
        node->action.emplace(std::forward<F>(fn));
        if (when - cur_tick_ < windowSlots) {
            const std::size_t idx = when & windowMask;
            Slot &slot = slots_[idx];
            node->next = nullptr;
            if (slot.head == nullptr) {
                slot.head = node;
                occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            } else {
                slot.tail->next = node;
            }
            slot.tail = node;
        } else {
            far_.push_back(FarEntry{when, next_seq_, node});
            std::push_heap(far_.begin(), far_.end(), FarLater{});
        }
        ++next_seq_;
        ++pending_;
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        schedule(cur_tick_ + delay, std::forward<F>(fn));
    }

    bool empty() const { return pending_ == 0; }

    std::size_t pending() const { return pending_; }

    /** Events waiting in the near-time window's slots. */
    std::size_t nearPending() const { return pending_ - far_.size(); }

    /** Events parked in the far-future overflow heap. */
    std::size_t farPending() const { return far_.size(); }

    /** Near-window slots currently holding at least one event. */
    std::size_t
    occupiedSlots() const
    {
        std::size_t n = 0;
        for (const std::uint64_t w : occupancy_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Tick of the next pending event; queue must be non-empty. */
    Tick
    nextEventTick() const
    {
        SPP_ASSERT(pending_ != 0, "peek on empty event queue");
        const Tick near = nearNextTick();
        if (!far_.empty() && far_.front().when < near)
            return far_.front().when;
        return near;
    }

    /** Execute the single next event; queue must be non-empty. */
    void
    step()
    {
        SPP_ASSERT(pending_ != 0, "step on empty event queue");
        const Tick now = nextEventTick();
        cur_tick_ = now;
        if (obs_ != nullptr) [[unlikely]] {
            while (cur_tick_ >= obs_next_) {
                obs_->onBoundary(obs_next_);
                obs_next_ += obs_period_;
            }
        }

        // Far entries due now were all scheduled before any slot
        // entry for this tick existed (see class comment), so they
        // run first; among themselves the heap yields (when, seq)
        // order.
        Node *node = nullptr;
        if (!far_.empty() && far_.front().when == now) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            node = far_.back().node;
            far_.pop_back();
        } else {
            const std::size_t idx = now & windowMask;
            Slot &slot = slots_[idx];
            node = slot.head;
            slot.head = node->next;
            if (slot.head == nullptr) {
                // Drained: clear the occupancy bit. The action below
                // may schedule back into this same slot; that re-sets
                // the bit.
                occupancy_[idx >> 6] &=
                    ~(std::uint64_t{1} << (idx & 63));
            }
        }
        --pending_;
        // The node is unlinked, so the action may schedule freely
        // (other nodes come off the freelist); it is destroyed before
        // its node is recycled.
        node->action.consume();
        node->next = free_;
        free_ = node;
        ++executed_;
    }

    /**
     * Run until the queue drains or curTick() would exceed @p limit
     * (0 = no limit). @return true if the queue drained.
     */
    bool
    run(Tick limit = 0)
    {
        while (pending_ != 0) {
            if (limit != 0 && nextEventTick() > limit)
                return false;
            step();
        }
        return true;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Enumerate the due tick of every pending event as
     * fn(Tick when, std::size_t count), in ascending tick order.
     * Event actions themselves are opaque; this exposes exactly the
     * queue's *timing* profile, which the model checker folds into
     * its state hash (two states with different in-flight event
     * schedules must not be identified). O(windowSlots + pending +
     * far log far) — a model-checking path, not a hot path.
     */
    template <typename Fn>
    void
    forEachPendingTick(Fn fn) const
    {
        // Far entries first into a sorted scratch list: the heap's
        // internal layout depends on insertion history and must not
        // leak into enumeration order.
        std::vector<Tick> far_ticks;
        far_ticks.reserve(far_.size());
        for (const FarEntry &e : far_)
            far_ticks.push_back(e.when);
        std::sort(far_ticks.begin(), far_ticks.end());

        std::size_t fi = 0;
        const std::size_t base = cur_tick_ & windowMask;
        for (std::size_t k = 0; k < windowSlots; ++k) {
            const std::size_t idx = (base + k) & windowMask;
            std::size_t n = 0;
            for (const Node *e = slots_[idx].head; e != nullptr;
                 e = e->next)
                ++n;
            if (n == 0)
                continue;
            // Far entries due at or before this slot tick precede it
            // (far entries for a tick always predate slot entries for
            // the same tick; see the class comment).
            const Tick when = cur_tick_ + k;
            while (fi < far_ticks.size() && far_ticks[fi] <= when) {
                std::size_t c = 1;
                while (fi + c < far_ticks.size() &&
                       far_ticks[fi + c] == far_ticks[fi])
                    ++c;
                fn(far_ticks[fi], c);
                fi += c;
            }
            fn(when, n);
        }
        while (fi < far_ticks.size()) {
            std::size_t c = 1;
            while (fi + c < far_ticks.size() &&
                   far_ticks[fi + c] == far_ticks[fi])
                ++c;
            fn(far_ticks[fi], c);
            fi += c;
        }
    }

    /** Near-time window width in ticks (and slots). */
    static constexpr std::size_t windowSlots = 1024;

    /** Event nodes carved from the allocator per freelist refill. */
    static constexpr std::size_t nodesPerChunk = 64;

  private:
    static constexpr std::uint64_t windowMask = windowSlots - 1;
    static constexpr std::size_t occupancyWords = windowSlots / 64;

    /** One pending event. `next` links the node into its slot's FIFO
     * while pending and into the freelist while free; a free node's
     * action is empty. */
    struct Node
    {
        Node *next = nullptr;
        Action action;
    };

    /** One tick's FIFO of nodes; empty when head is null (tail is
     * then stale). */
    struct Slot
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Node *node;
    };

    /** Heap comparator: true when @p a fires after @p b, so the
     * earliest (when, seq) sits at far_.front(). */
    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            return a.when != b.when ? a.when > b.when
                                    : a.seq > b.seq;
        }
    };

    /** Pop a node off the freelist, carving a new chunk when it is
     * empty. The node's action is empty. The freelist is intrusive
     * rather than a Pool<Node>: Pool's per-call statistics and vector
     * stack measured about 8% slower on the 16-core paper grid. */
    Node *
    acquireNode()
    {
        if (free_ == nullptr) [[unlikely]]
            addChunk();
        Node *node = free_;
        free_ = node->next;
        return node;
    }

    /** Push a fresh chunk of nodes onto the (empty) freelist, lowest
     * address on top. */
    void
    addChunk()
    {
        chunks_.push_back(std::make_unique<Node[]>(nodesPerChunk));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = nodesPerChunk; i-- > 0;) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }

    /**
     * Tick of the first occupied slot at or after curTick();
     * maxTick when the window is empty. Scans the occupancy bitmap
     * circularly starting at the slot of curTick(); because the
     * window is exactly windowSlots wide, the first set bit in
     * circular order is the earliest due tick.
     */
    Tick
    nearNextTick() const
    {
        const std::size_t base = cur_tick_ & windowMask;
        const std::size_t base_word = base >> 6;
        // Head of the base word: bits at or after the base slot.
        std::uint64_t w = occupancy_[base_word] &
            (~std::uint64_t{0} << (base & 63));
        if (w != 0)
            return slotTick(base_word, w, base);
        // Following words, wrapping; the scan ends back at the base
        // word, where only the bits before the base slot remain.
        for (std::size_t k = 1; k <= occupancyWords; ++k) {
            const std::size_t word =
                (base_word + k) & (occupancyWords - 1);
            w = occupancy_[word];
            if (k == occupancyWords)
                w &= (std::uint64_t{1} << (base & 63)) - 1;
            if (w != 0)
                return slotTick(word, w, base);
        }
        return maxTick;
    }

    /** Due tick of the lowest set bit of @p w (a non-zero occupancy
     * word), scanning circularly from the @p base slot. */
    Tick
    slotTick(std::size_t word, std::uint64_t w,
             std::size_t base) const
    {
        const std::size_t idx = (word << 6) +
            static_cast<std::size_t>(std::countr_zero(w));
        return cur_tick_ + ((idx - base) & windowMask);
    }

    std::array<Slot, windowSlots> slots_{};
    std::array<std::uint64_t, occupancyWords> occupancy_{};
    std::vector<FarEntry> far_;
    /** Node storage. Chunks never move or shrink, so nodes are
     * address-stable; destroying them destroys the closures of
     * events still pending (a run cut off by its tick limit). */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr; ///< LIFO freelist through Node::next.
    std::size_t pending_ = 0;
    Tick cur_tick_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    TickObserver *obs_ = nullptr;
    Tick obs_period_ = 0;
    Tick obs_next_ = maxTick;
};

} // namespace spp

#endif // SPP_EVENT_EVENT_QUEUE_HH
