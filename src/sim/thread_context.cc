#include "sim/thread_context.hh"

#include "sim/cmp_system.hh"

namespace spp {

ThreadContext::ThreadContext(CmpSystem &sys, CoreId core,
                             unsigned n_threads, std::uint64_t seed)
    : sys_(sys), core_(core), n_threads_(n_threads), rng_(seed)
{
}

Addr
ThreadContext::shared(std::uint64_t index) const
{
    return layout::sharedBase +
        index * sys_.config().lineBytes;
}

Addr
ThreadContext::priv(std::uint64_t index) const
{
    return privOf(core_, index);
}

Addr
ThreadContext::privOf(CoreId t, std::uint64_t index) const
{
    return layout::privateBase +
        static_cast<Addr>(t) * layout::privateStride +
        index * sys_.config().lineBytes;
}

void
ThreadContext::mem(Addr addr, bool is_write, Pc pc, Action done)
{
    mem_done_ = std::move(done);
    mem_addr_ = addr;
    mem_pc_ = pc;
    sys_.memSys().access(core_, addr, is_write, pc,
        [this](const AccessOutcome &out) { memDone(out); });
}

void
ThreadContext::memDone(const AccessOutcome &out)
{
    last_outcome_ = out;
    if (sys_.accessObserver())
        sys_.accessObserver()(core_, mem_addr_, mem_pc_, out);
    // Take the continuation out of its slot first: it may issue the
    // thread's next access, which refills the slot.
    Action done = std::move(mem_done_);
    done();
}

void
ThreadContext::finishOp()
{
    Action done = std::move(op_done_);
    done();
}

ThreadContext::Op
ThreadContext::makeOp(const TraceOp &op)
{
    // Ops are recorded at factory-call time — i.e. in per-thread
    // program order, before any of the op's internal memory traffic —
    // which is exactly the order a replay must re-issue them in.
    if (TraceSink *sink = sys_.traceSink())
        sink->record(core_, op);
    return Op{this, op};
}

ThreadContext::Op
ThreadContext::read(Addr addr, Pc pc)
{
    return makeOp({TraceOpKind::read, addr, pc, 0});
}

ThreadContext::Op
ThreadContext::write(Addr addr, Pc pc)
{
    return makeOp({TraceOpKind::write, addr, pc, 0});
}

ThreadContext::Op
ThreadContext::compute(std::uint64_t instructions)
{
    return makeOp({TraceOpKind::compute, 0, 0, instructions});
}

ThreadContext::Op
ThreadContext::barrier(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::barrier, 0, sid, id});
}

ThreadContext::Op
ThreadContext::lock(unsigned id)
{
    return makeOp({TraceOpKind::lock, 0, 0, id});
}

ThreadContext::Op
ThreadContext::unlock(unsigned id)
{
    return makeOp({TraceOpKind::unlock, 0, 0, id});
}

ThreadContext::Op
ThreadContext::condWait(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::condWait, 0, sid, id});
}

ThreadContext::Op
ThreadContext::condSignal(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::condSignal, 0, sid, id});
}

ThreadContext::Op
ThreadContext::condBroadcast(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::condBroadcast, 0, sid, id});
}

ThreadContext::Op
ThreadContext::semPost(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::semPost, 0, sid, id});
}

ThreadContext::Op
ThreadContext::semWait(unsigned id, Pc sid)
{
    return makeOp({TraceOpKind::semWait, 0, sid, id});
}

ThreadContext::Op
ThreadContext::join(Pc sid)
{
    return makeOp({TraceOpKind::join, 0, sid, 0});
}

void
ThreadContext::doBarrier()
{
    // Arrival: write the barrier counter line (contended), then
    // block; on release read the generation flag written by the
    // last arriver, then continue into the new epoch.
    mem(sys_.syncManager().barrierAddr(opId()), true,
        layout::syncPcBase + opId(), [this]() {
            sys_.syncManager().barrierArrive(
                core_, opId(), n_threads_, op_.pc, [this]() {
                    mem(sys_.syncManager().barrierGenAddr(opId()),
                        false, layout::syncPcBase + 0x1000 + opId(),
                        std::move(op_done_));
                });
        });
}

void
ThreadContext::doLock()
{
    sys_.syncManager().lockAcquire(core_, opId(), [this]() {
        // Lock-word read-modify-write: communicates with the
        // previous holder (migratory pattern).
        mem(sys_.syncManager().lockAddr(opId()), true,
            layout::syncPcBase + 0x2000 + opId(),
            std::move(op_done_));
    });
}

void
ThreadContext::doUnlock()
{
    // Release store on the lock word, then hand the lock over.
    mem(sys_.syncManager().lockAddr(opId()), true,
        layout::syncPcBase + 0x3000 + opId(), [this]() {
            sys_.syncManager().lockRelease(core_, opId());
            finishOp();
        });
}

void
ThreadContext::doCondWait()
{
    sys_.syncManager().condWait(core_, opId(), op_.pc, [this]() {
        // Read the state the signaller published.
        mem(sys_.syncManager().condAddr(opId()), false,
            layout::syncPcBase + 0x4000 + opId(),
            std::move(op_done_));
    });
}

void
ThreadContext::doCondSignal()
{
    mem(sys_.syncManager().condAddr(opId()), true,
        layout::syncPcBase + 0x5000 + opId(), [this]() {
            sys_.syncManager().condSignal(core_, opId(), op_.pc);
            finishOp();
        });
}

void
ThreadContext::doCondBroadcast()
{
    mem(sys_.syncManager().condAddr(opId()), true,
        layout::syncPcBase + 0x6000 + opId(), [this]() {
            sys_.syncManager().condBroadcast(core_, opId(), op_.pc);
            finishOp();
        });
}

void
ThreadContext::doSemPost()
{
    // Publish the produced state, then post the token.
    mem(sys_.syncManager().condAddr(opId()), true,
        layout::syncPcBase + 0x7000 + opId(), [this]() {
            sys_.syncManager().semPost(core_, opId(), op_.pc);
            finishOp();
        });
}

void
ThreadContext::doSemWait()
{
    sys_.syncManager().semWait(core_, opId(), op_.pc, [this]() {
        // Consume: read the state the producer published.
        mem(sys_.syncManager().condAddr(opId()), false,
            layout::syncPcBase + 0x8000 + opId(),
            std::move(op_done_));
    });
}

void
ThreadContext::issueTraceOp(const TraceOp &op, Action done)
{
    // Memory and compute ops dominate every trace; test for them
    // with predictable branches before the sync-op switch.
    if (op.kind == TraceOpKind::read) {
        mem(op.addr, false, op.pc, std::move(done));
        return;
    }
    if (op.kind == TraceOpKind::write) {
        mem(op.addr, true, op.pc, std::move(done));
        return;
    }
    if (op.kind == TraceOpKind::compute) {
        // 2-issue in-order core: IPC of 2 on compute bursts.
        const Tick delay = (op.arg + 1) / 2;
        sys_.eventQueue().scheduleAfter(delay > 0 ? delay : 1,
                                        std::move(done));
        return;
    }
    // A sync op: park it and its completion; the steps below run as
    // `this`-only callbacks from the memory system and sync manager.
    op_ = op;
    op_done_ = std::move(done);
    switch (op.kind) {
      case TraceOpKind::read:
      case TraceOpKind::write:
      case TraceOpKind::compute:
        break;
      case TraceOpKind::barrier:
        doBarrier();
        break;
      case TraceOpKind::lock:
        doLock();
        break;
      case TraceOpKind::unlock:
        doUnlock();
        break;
      case TraceOpKind::condWait:
        doCondWait();
        break;
      case TraceOpKind::condSignal:
        doCondSignal();
        break;
      case TraceOpKind::condBroadcast:
        doCondBroadcast();
        break;
      case TraceOpKind::semPost:
        doSemPost();
        break;
      case TraceOpKind::semWait:
        doSemWait();
        break;
      case TraceOpKind::join:
        sys_.syncManager().joinAll(core_, op.pc,
                                   [this]() { finishOp(); });
        break;
    }
}

} // namespace spp
