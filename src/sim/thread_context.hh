/**
 * @file
 * Per-thread simulation context: the API workload programs run
 * against.
 *
 * A ThreadContext pins one logical thread to one core (the paper's
 * first-touch binding) and exposes awaitable operations: memory
 * accesses, compute delays, and synchronization primitives. Sync
 * primitives model their own coherence traffic (barrier arrival
 * writes, lock-word read-modify-writes, condition flag reads), so
 * synchronization costs flow through the same cache/NoC path as data.
 */

#ifndef SPP_SIM_THREAD_CONTEXT_HH
#define SPP_SIM_THREAD_CONTEXT_HH

#include <coroutine>

#include "coherence/mem_sys.hh"
#include "common/inline_fn.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sync/sync_manager.hh"
#include "trace/format.hh"

namespace spp {

class CmpSystem;

/** Shared-memory layout constants used by workloads. */
namespace layout {
/** Base of the synchronization-variable region. */
inline constexpr Addr syncBase = 0x0000'0000;
/** Base of the shared data region. */
inline constexpr Addr sharedBase = 0x1000'0000;
/** Base of core 0's private region; one privateStride per core. */
inline constexpr Addr privateBase = 0x8000'0000;
inline constexpr Addr privateStride = 0x0100'0000;
/** Synthetic PCs for sync-primitive memory operations. */
inline constexpr Pc syncPcBase = 0xff00'0000;
} // namespace layout

/**
 * The per-thread execution context.
 *
 * Every operation, awaited by a workload coroutine or issued by a
 * trace replay, goes through one dispatch path: issueTraceOp(). A
 * thread has at most one operation in flight, so the operation, its
 * completion and the pending memory access's continuation are parked
 * in per-thread slots, and the closures handed to the memory system
 * and the sync manager capture only `this`. Issuing a read or write
 * allocates nothing, whether it hits or misses.
 */
class ThreadContext
{
  public:
    /** Completion of one issued operation: resumes the awaiting
     * coroutine or advances a replay chain. Inline storage. */
    using Action = InlineFn<16>;

    ThreadContext(CmpSystem &sys, CoreId core, unsigned n_threads,
                  std::uint64_t seed);

    CoreId self() const { return core_; }
    unsigned numThreads() const { return n_threads_; }
    Rng &rng() { return rng_; }

    /** Address of shared line #@p index. */
    Addr shared(std::uint64_t index) const;
    /** Address of this thread's private line #@p index. */
    Addr priv(std::uint64_t index) const;
    /** Address of thread @p t's private line #@p index (sharing). */
    Addr privOf(CoreId t, std::uint64_t index) const;

    /** Awaitable form of one operation: issued on suspension. */
    struct Op
    {
        ThreadContext *tc;
        TraceOp op;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            tc->issueTraceOp(op, [h]() { h.resume(); });
        }

        AccessOutcome await_resume() const { return tc->last_outcome_; }
    };

    /** Load from @p addr attributed to static instruction @p pc. */
    Op read(Addr addr, Pc pc);
    /** Store to @p addr attributed to static instruction @p pc. */
    Op write(Addr addr, Pc pc);
    /** Execute @p instructions of local compute (2-issue core). */
    Op compute(std::uint64_t instructions);

    /** Global barrier across all threads; @p sid is the call site. */
    Op barrier(unsigned id, Pc sid);
    /** Acquire lock @p id (critical section begins). */
    Op lock(unsigned id);
    /** Release lock @p id (critical section ends). */
    Op unlock(unsigned id);
    /** Wait on condition @p id until signalled. */
    Op condWait(unsigned id, Pc sid);
    /** Signal one waiter of condition @p id. */
    Op condSignal(unsigned id, Pc sid);
    /** Wake all waiters of condition @p id. */
    Op condBroadcast(unsigned id, Pc sid);
    /** Semaphore post: wake a waiter or bank a token. */
    Op semPost(unsigned id, Pc sid);
    /** Semaphore wait: proceed immediately if a token is banked. */
    Op semWait(unsigned id, Pc sid);
    /** Wait for all other threads to finish. */
    Op join(Pc sid);

    /**
     * Issue @p op's underlying machine operations and run @p done at
     * completion. Awaiting a factory Op calls this; so does trace
     * replay, which does not report to the trace sink (a replay is
     * not re-recorded).
     */
    void issueTraceOp(const TraceOp &op, Action done);

  private:
    /** Record @p op with the trace sink (if any) and wrap it. */
    Op makeOp(const TraceOp &op);

    /** Memory access; @p done runs after last_outcome_ is set. */
    void mem(Addr addr, bool is_write, Pc pc, Action done);
    /** MemSys completion of the access mem() issued. */
    void memDone(const AccessOutcome &out);
    /** Run (and clear) the parked sync op's completion. */
    void finishOp();
    /** The parked sync op's primitive id. */
    unsigned opId() const { return static_cast<unsigned>(op_.arg); }

    // Bodies of the sync ops. Each reads the parked op_ and ends by
    // running op_done_: via finishOp(), or by handing it to its last
    // access as that access's continuation.
    void doBarrier();
    void doLock();
    void doUnlock();
    void doCondWait();
    void doCondSignal();
    void doCondBroadcast();
    void doSemPost();
    void doSemWait();

    CmpSystem &sys_;
    CoreId core_;
    unsigned n_threads_;
    Rng rng_;
    AccessOutcome last_outcome_;

    /** The sync op in flight and its completion. */
    TraceOp op_;
    Action op_done_;
    /** The access in flight: its continuation, address and PC. */
    Action mem_done_;
    Addr mem_addr_ = 0;
    Pc mem_pc_ = 0;
};

} // namespace spp

#endif // SPP_SIM_THREAD_CONTEXT_HH
