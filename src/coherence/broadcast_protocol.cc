#include "coherence/broadcast_protocol.hh"

namespace spp {

BroadcastMemSys::BroadcastMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh)
    : SnoopMemSys(cfg, eq, mesh, nullptr, /*speculative_memory=*/true)
{
}

void
BroadcastMemSys::launch(Mshr &m)
{
    const CoreId core = m.core;
    const Addr line = m.line;
    const std::uint64_t txn = m.txn;
    const CoreId home = map_.homeNode(line);
    m.peerResponsesDue = n_cores_ - 1;

    // The request is "ordered" once it would be visible on the
    // ordered fabric: one traversal to the ordering point. Upgrades
    // may resume the core at that point (TSO bus semantics).
    const Tick ordering_delay = mesh_.zeroLoadLatency(
        mesh_.hops(core, home), cfg_.ctrlPacketBytes);
    eq_.scheduleAfter(ordering_delay, [this, core, line, txn]() {
        if (Mshr *mm = txnFor(core, line, txn)) {
            mm->ordered = true;
            checkCompletion(*mm);
        }
    });
    Msg like;
    like.line = line;
    like.requester = core;
    like.txn = txn;
    like.isWrite = m.isWrite;
    for (CoreId c = 0; c < n_cores_; ++c) {
        if (c != core)
            sendSnoop(core, c, like);
    }

    // Speculative memory fetch at the home tile, cancellable by an
    // owner hit. When the requester is the home, start it locally;
    // otherwise the snoopReq arriving at the home starts it.
    SpecFetch &sf = spec_fetch_.findOrInsert(line);
    sf.key = TxnKey{core, txn};
    sf.cancelled = false;
    if (home == core)
        fetchAtHome(line, sf.key);
}

void
BroadcastMemSys::observeSnoop(const Msg &m)
{
    if (m.dst == map_.homeNode(m.line))
        fetchAtHome(m.line, TxnKey{m.requester, m.txn});
}

void
BroadcastMemSys::fetchAtHome(Addr line, const TxnKey &key)
{
    eq_.scheduleAfter(memAccessLatency(line), [this, line, key]() {
        const SpecFetch *f = spec_fetch_.find(line);
        if (f == nullptr || !(f->key == key) || f->cancelled)
            return;
        spec_fetch_.erase(line);
        sendMemoryData(line, key, Mesif::invalid);
    });
}

BroadcastMemSys::SpecFetch *
BroadcastMemSys::fetchOf(const Msg &m)
{
    SpecFetch *f = spec_fetch_.find(m.line);
    if (f == nullptr || !(f->key == TxnKey{m.requester, m.txn}))
        return nullptr;
    return f;
}

void
BroadcastMemSys::handleMsg(const Msg &m)
{
    // The speculative fetch's life cycle; the rest is shared.
    switch (m.type) {
      case MsgType::cancel:
        if (SpecFetch *f = fetchOf(m))
            f->cancelled = true;
        return;
      case MsgType::dirUpdate: // Dirty owner: memory is now current.
        if (SpecFetch *f = fetchOf(m))
            f->cancelled = true;
        break;
      case MsgType::unblock:
        if (fetchOf(m) != nullptr)
            spec_fetch_.erase(m.line);
        break;
      default:
        break;
    }
    SnoopMemSys::handleMsg(m);
}

void
BroadcastMemSys::hashState(StateHasher &h) const
{
    SnoopMemSys::hashState(h);
    spec_fetch_.forEach([&](std::uint64_t line, const SpecFetch &f) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(f.key.requester);
        sub.mix(f.key.txn);
        sub.mix(f.cancelled);
        h.mixUnordered(sub.value());
    });
}

} // namespace spp
