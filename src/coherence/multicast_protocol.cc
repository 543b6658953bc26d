#include "coherence/multicast_protocol.hh"

namespace spp {

MulticastMemSys::MulticastMemSys(const Config &cfg, EventQueue &eq,
                                 Mesh &mesh,
                                 DestinationPredictor *predictor)
    : MemSys(cfg, eq, mesh, predictor),
      sharer_layout_(SharerLayout::fromConfig(cfg))
{
}

DirEntry &
MulticastMemSys::dirAt(Addr line)
{
    if (DirEntry *e = dir_.find(line))
        return *e;
    DirEntry &e = dir_.insert(line);
    e.sharers = SharerTracker(sharer_layout_);
    return e;
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
MulticastMemSys::startMiss(Mshr &m)
{
    const TxnKey key{m.core, m.txn};
    const CoreId core = m.core;
    const Addr line = m.line;
    auto go = [this, core, line]() {
        Mshr *mm = mshrFor(core, line);
        SPP_ASSERT(mm, "multicast start without MSHR");
        launch(*mm);
    };
    if (locks_.acquireOrQueue(line, key, go))
        go();
}

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
MulticastMemSys::sendSnoop(CoreId src, CoreId dst, const Msg &like)
{
    Msg s = like;
    s.type = MsgType::snoopReq;
    s.src = src;
    s.dst = dst;
    sendMsg(s);
}

MulticastMemSys::Mshr *
MulticastMemSys::txnFor(CoreId core, Addr line, std::uint64_t txn)
{
    if (Mshr *m = mshrFor(core, line)) {
        if (m->txn == txn)
            return m;
    }
    return lingering_.find(txn);
}

void
MulticastMemSys::onData(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    if (!m) {
        // The home serves memory data when its directory lists no
        // owner, but an evicted owner's writeback buffer answers
        // snoops until its wbAck arrives; the transaction can then
        // complete on the (fresher) buffer copy plus all snoop
        // responses before the slower memory data lands. Late memory
        // data for a retired transaction is dropped; late *peer*
        // data would mean lost coherence state.
        SPP_ASSERT(msg.fromMemory,
                   "multicast peer data for missing txn at core {}",
                   msg.dst);
        ++late_data_drops_;
        return;
    }
    // Duplicates are reachable here for the same reason: the buffer
    // copy and home memory data race when the transaction is still
    // live. Absorb keeps the freshest version.
    absorbData(*m, msg);
    if (!msg.fromMemory)
        ++m->peerResponses;
    checkCompletion(*m);
}

void
MulticastMemSys::onAckInv(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "multicast ackInv for missing txn");
    ++m->peerResponses;
    if (msg.hadCopy)
        m->out.servicedBy.set(msg.src);
    if (msg.ownerAck)
        absorbData(*m, msg);
    checkCompletion(*m);
}

void
MulticastMemSys::onSnoopResp(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "multicast snoopResp for missing txn");
    ++m->peerResponses;
    checkCompletion(*m);
}

void
MulticastMemSys::onGrant(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "multicast grant for missing txn");
    SPP_ASSERT(!m->grantReceived, "duplicate multicast grant");
    m->grantReceived = true;
    m->mustAck = msg.set; // Every node that was (or will be) snooped.
    if (m->isWrite)
        m->needData = msg.needData;
    checkCompletion(*m);
}

bool
MulticastMemSys::maybeResumeCore(Mshr &m)
{
    if (m.coreResumed)
        return false;
    if (!m.isWrite) {
        // Reads resume on data (memory data is authoritative: the
        // home consults its directory before fetching).
        if (!m.dataReceived)
            return false;
    } else {
        // Writes resume once the home ordered/verified the request
        // and the data (if any) arrived.
        if (!m.grantReceived || (m.needData && !m.dataReceived))
            return false;
    }
    m.coreResumed = true;
    finishOutcome(m);
    const CoreId core = m.core;
    const std::uint64_t txn = m.txn;
    Mshr &moved = lingering_.insert(txn);
    moved = std::move(m);
    mshr_[core].reset();
    DoneFn done = std::move(moved.done);
    moved.done = nullptr;
    done(moved.out);
    return true;
}

void
MulticastMemSys::checkCompletion(Mshr &m)
{
    const CoreId core = m.core;
    const Addr line = m.line;
    const std::uint64_t txn = m.txn;
    maybeResumeCore(m);
    Mshr *mm = txnFor(core, line, txn);
    SPP_ASSERT(mm, "multicast txn lost during completion");
    if (!mm->coreResumed || !mm->grantReceived)
        return;
    if (mm->peerResponses < mm->mustAck.count())
        return;
    Msg u;
    u.type = MsgType::unblock;
    u.line = line;
    u.src = core;
    u.dst = map_.homeNode(line);
    u.requester = core;
    u.txn = txn;
    sendMsg(u);
    lingering_.erase(txn);
}

void
MulticastMemSys::onCompleteMiss(Mshr &m)
{
    (void)m; // Retirement handled by checkCompletion's lingering path.
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
MulticastMemSys::sendMemoryData(Addr line, CoreId requester,
                                std::uint64_t txn, Mesif fill_state)
{
    eq_.scheduleAfter(memAccessLatency(line), [this, line, requester, txn,
                                        fill_state]() {
        Msg d;
        d.type = MsgType::data;
        d.line = line;
        d.src = map_.homeNode(line);
        d.dst = requester;
        d.requester = requester;
        d.txn = txn;
        d.fromMemory = true;
        d.fillState = fill_state;
        d.version = memVersion(line);
        sendMsg(d);
    });
}

void
MulticastMemSys::processVerify(const Msg &m)
{
    DirEntry &e = dirAt(m.line);
    const CoreId home = map_.homeNode(m.line);
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
            sendMemoryData(m.line, m.requester, m.txn,
                           Mesif::modified);
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
            sendMemoryData(m.line, m.requester, m.txn,
                           solo ? Mesif::exclusive
                                : cfg_.cleanSharedFill());
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

void
MulticastMemSys::onUnblock(const Msg &m)
{
    locks_.release(m.line, TxnKey{m.requester, m.txn});
}

void
MulticastMemSys::onWbNotice(const Msg &m)
{
    onWriteback(m.requester, m.line);
    if (m.ownerAck)
        depositMemVersion(m.line, m.version);
    applyWriteback(m.requester, m.line);
    locks_.release(m.line, TxnKey{m.requester, m.txn});
}

void
MulticastMemSys::onWriteback(CoreId core, Addr line)
{
    DirEntry *e = dir_.find(line);
    if (e == nullptr)
        return;
    e->sharers.reset(core);
    if (e->owner == core)
        e->owner = invalidCore;
}

// ---------------------------------------------------------------------
// Peer side
// ---------------------------------------------------------------------

void
MulticastMemSys::onSnoopReq(const Msg &m)
{
    const CoreId self = m.dst;
    const CoreId home = map_.homeNode(m.line);
    countSnoop();
    trainExternalAt(self, m.line, m.requester, m.isWrite);
    PeerView v = peerView(self, m.line);

    if (!m.isWrite) {
        if (v.valid && canForward(v.state)) {
            const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
            if (v.state == Mesif::modified) {
                Msg dep;
                dep.type = MsgType::dirUpdate;
                dep.line = m.line;
                dep.src = self;
                dep.dst = home;
                dep.requester = m.requester;
                dep.txn = m.txn;
                dep.version = v.version;
                sendMsgAfter(lat, dep);
            }
            downgradeToShared(self, m.line);
            Msg d;
            d.type = MsgType::data;
            d.line = m.line;
            d.src = self;
            d.dst = m.requester;
            d.requester = m.requester;
            d.txn = m.txn;
            d.fillState = cfg_.cleanSharedFill();
            d.version = v.version;
            sendMsgAfter(lat, d);
        } else {
            Msg r;
            r.type = MsgType::snoopResp;
            r.line = m.line;
            r.src = self;
            r.dst = m.requester;
            r.requester = m.requester;
            r.txn = m.txn;
            r.hadCopy = v.valid;
            sendMsgAfter(cfg_.l2TagLatency, r);
        }
        return;
    }

    if (v.valid) {
        Msg a;
        a.type = MsgType::ackInv;
        a.line = m.line;
        a.src = self;
        a.dst = m.requester;
        a.requester = m.requester;
        a.txn = m.txn;
        a.hadCopy = true;
        Tick lat = cfg_.l2TagLatency;
        if (canForward(v.state)) {
            a.ownerAck = true;
            a.version = v.version;
            lat += cfg_.l2DataLatency;
        }
        invalidateAt(self, m.line);
        if (Mshr *own = mshrFor(self, m.line)) {
            if (own->isWrite)
                own->needData = true;
        }
        sendMsgAfter(lat, a);
    } else {
        Msg r;
        r.type = MsgType::snoopResp;
        r.line = m.line;
        r.src = self;
        r.dst = m.requester;
        r.requester = m.requester;
        r.txn = m.txn;
        r.hadCopy = false;
        sendMsgAfter(cfg_.l2TagLatency, r);
    }
}

// ---------------------------------------------------------------------
// Dispatch / diagnostics
// ---------------------------------------------------------------------

void
MulticastMemSys::handleMsg(const Msg &m)
{
    switch (m.type) {
      case MsgType::reqRead:
      case MsgType::reqWrite:
        onVerify(m);
        break;
      case MsgType::snoopReq:
        onSnoopReq(m);
        break;
      case MsgType::snoopResp:
        onSnoopResp(m);
        break;
      case MsgType::data:
        onData(m);
        break;
      case MsgType::ackInv:
        onAckInv(m);
        break;
      case MsgType::grant:
        onGrant(m);
        break;
      case MsgType::unblock:
        onUnblock(m);
        break;
      case MsgType::wbNotice:
        onWbNotice(m);
        break;
      case MsgType::wbAck:
        finishWriteback(m.dst, m.line);
        break;
      case MsgType::dirUpdate:
        depositMemVersion(m.line, m.version);
        break;
      default:
        SPP_PANIC("multicast protocol got {}", toString(m.type));
    }
}

std::string
MulticastMemSys::dumpOutstanding() const
{
    std::string out = MemSys::dumpOutstanding();
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        out += strfmt("lingering txn {} core {} line {} write={} "
                      "responses={}/{} grant={} data={}\n",
                      txn, m.core, m.line, m.isWrite,
                      m.peerResponses, m.mustAck.count(),
                      m.grantReceived, m.dataReceived);
    });
    out += strfmt("insufficient multicast masks: {}\n",
                  insufficient_masks_);
    return out;
}

void
MulticastMemSys::hashState(StateHasher &h) const
{
    MemSys::hashState(h);
    dir_.forEach([&](Addr line, const DirEntry &e) {
        StateHasher sub;
        sub.mix(line);
        sub.mix(e.owner);
        sub.mix(e.sharers.overflowed());
        hashCoreSet(sub, e.sharers.members());
        h.mixUnordered(sub.value());
    });
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        StateHasher sub;
        sub.mix(txn);
        hashMshr(sub, m);
        h.mixUnordered(sub.value());
    });
}

} // namespace spp
