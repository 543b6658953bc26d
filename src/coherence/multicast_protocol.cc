#include "coherence/multicast_protocol.hh"

namespace spp {

MulticastMemSys::MulticastMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 DestinationPredictor *predictor)
    : SnoopMemSys(cfg, eq, mesh, predictor,
                  /*speculative_memory=*/false),
      dir_(cfg)
{
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
MulticastMemSys::launch(Mshr &m)
{
    // Snoop the predicted set; an empty prediction degrades to the
    // full broadcast.
    CoreSet targets = m.out.pred.targets;
    targets.reset(m.core);
    if (targets.empty()) {
        targets = CoreSet::all(n_cores_);
        targets.reset(m.core);
    }

    Msg like;
    like.line = m.line;
    like.requester = m.core;
    like.txn = m.txn;
    like.isWrite = m.isWrite;
    for (CoreId t : targets)
        sendSnoop(m.core, t, like);

    // Verification request to the home's memory-side directory.
    Msg v;
    v.type = m.isWrite ? MsgType::reqWrite : MsgType::reqRead;
    v.line = m.line;
    v.src = m.core;
    v.dst = map_.homeNode(m.line);
    v.requester = m.core;
    v.txn = m.txn;
    v.isWrite = m.isWrite;
    v.hadCopy = m.hadLine;
    v.predicted = m.out.pred.valid();
    v.set = targets;
    sendMsg(v);
}

void
MulticastMemSys::onGrant(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "multicast grant for missing txn");
    SPP_ASSERT(!m->grantReceived, "duplicate multicast grant");
    m->grantReceived = true;
    m->mustAck = msg.set; // Every node that was (or will be) snooped.
    m->peerResponsesDue = static_cast<unsigned>(msg.set.count());
    if (m->isWrite)
        m->needData = msg.needData;
    checkCompletion(*m);
}

// ---------------------------------------------------------------------
// Home (memory-side directory) side
// ---------------------------------------------------------------------

void
MulticastMemSys::onVerify(const Msg &m)
{
    // Pool-slot capture: a Msg (with its multi-word CoreSet) exceeds
    // the inline action capacity, so the deferred lookup carries a
    // slot pointer instead of the message itself.
    Msg *pending = msg_pool_.acquire();
    *pending = m;
    eq_.scheduleAfter(cfg_.dirLatency, [this, pending]() {
        processVerify(*pending);
        msg_pool_.release(pending);
    });
}

void
MulticastMemSys::fetchAtHome(Addr line, const TxnKey &key,
                             Mesif fill_state)
{
    eq_.scheduleAfter(memAccessLatency(line),
                      [this, line, key, fill_state]() {
                          sendMemoryData(line, key, fill_state);
                      });
}

void
MulticastMemSys::processVerify(const Msg &m)
{
    DirEntry &e = dir_.findOrCreate(m.line);
    const CoreId home = map_.homeNode(m.line);
    const TxnKey key{m.requester, m.txn};
    CoreSet snooped = m.set;
    bool need_data = true;

    if (m.isWrite) {
        const CoreSet required = e.sharers.others(m.requester);
        const CoreSet missing = required - m.set;
        for (CoreId t : missing)
            sendSnoop(home, t, m);
        snooped |= missing;
        if (!missing.empty())
            ++insufficient_masks_;

        need_data = !(m.hadCopy && e.sharers.test(m.requester));
        if (need_data && e.owner == invalidCore)
            fetchAtHome(m.line, key, Mesif::modified);
        // An existing owner is in `required`, hence snooped; its
        // ackInv carries the data.

        e.sharers.setSingle(m.requester);
        e.owner = m.requester;
    } else {
        if (e.owner != invalidCore && e.owner != m.requester) {
            if (!m.set.test(e.owner)) {
                sendSnoop(home, e.owner, m);
                snooped.set(e.owner);
                ++insufficient_masks_;
            }
        } else {
            const bool solo = e.sharers.others(m.requester).empty();
            fetchAtHome(m.line, key,
                        solo ? Mesif::exclusive : cfg_.cleanSharedFill());
            e.sharers.set(m.requester);
            e.owner = solo || cfg_.enableFState ? m.requester
                                                : invalidCore;
            goto granted;
        }
        e.sharers.set(m.requester);
        e.owner = cfg_.enableFState ? m.requester : invalidCore;
    }

  granted:
    Msg g;
    g.type = MsgType::grant;
    g.line = m.line;
    g.src = home;
    g.dst = m.requester;
    g.requester = m.requester;
    g.txn = m.txn;
    g.set = snooped;
    g.needData = need_data;
    sendMsg(g);
}

// ---------------------------------------------------------------------
// Peer side (the rest is the shared snooping engine)
// ---------------------------------------------------------------------

void
MulticastMemSys::observeSnoop(const Msg &m)
{
    trainExternalAt(m.dst, m.line, m.requester, m.isWrite);
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
MulticastMemSys::handleMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::reqRead:
      case MsgType::reqWrite:
        onVerify(m);
        return;
      case MsgType::grant:
        onGrant(m);
        return;
      case MsgType::wbNotice: // The evictor leaves the directory.
        if (DirEntry *e = dir_.find(m.line))
            e->evict(m.requester);
        break;
      default:
        break;
    }
    SnoopMemSys::handleMsg(m);
}

void
MulticastMemSys::hashState(StateHasher &h) const
{
    SnoopMemSys::hashState(h);
    dir_.forEach([&](Addr line, const DirEntry &e) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(e.owner);
        sub.mix(e.sharers.overflowed());
        hashCoreSet(sub, e.sharers.members());
        h.mixUnordered(sub.value());
    });
}

} // namespace spp
