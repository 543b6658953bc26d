#include "coherence/snoop_protocol.hh"

namespace spp {

SnoopMemSys::SnoopMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                         DestinationPredictor *predictor,
                         bool speculative_memory)
    : MemSys(cfg, eq, mesh, predictor),
      speculative_memory_(speculative_memory)
{
}

// ---------------------------------------------------------------------
// Requester side
// ---------------------------------------------------------------------

void
SnoopMemSys::startMiss(Mshr &m)
{
    const TxnKey key{m.core, m.txn};
    const CoreId core = m.core;
    const Addr line = m.line;
    auto go = [this, core, line]() {
        Mshr *mm = mshrFor(core, line);
        SPP_ASSERT(mm, "snooping miss started without MSHR");
        launch(*mm);
    };
    if (locks_.acquireOrQueue(line, key, go))
        go();
}

void
SnoopMemSys::sendSnoop(CoreId src, CoreId dst, const Msg &like)
{
    Msg s = like;
    s.type = MsgType::snoopReq;
    s.src = src;
    s.dst = dst;
    sendMsg(s);
}

void
SnoopMemSys::sendMemoryData(Addr line, const TxnKey &key,
                            Mesif fill_state)
{
    Msg d;
    d.type = MsgType::data;
    d.line = line;
    d.src = map_.homeNode(line);
    d.dst = key.requester;
    d.requester = key.requester;
    d.txn = key.txn;
    d.fromMemory = true;
    d.fillState = fill_state;
    d.version = memVersion(line);
    sendMsg(d);
}

SnoopMemSys::Mshr *
SnoopMemSys::txnFor(CoreId core, Addr line, std::uint64_t txn)
{
    if (Mshr *m = mshrFor(core, line)) {
        if (m->txn == txn)
            return m;
    }
    return lingering_.find(txn);
}

void
SnoopMemSys::countResponse(Mshr &m, bool had_copy)
{
    ++m.peerResponses;
    if (had_copy && speculative_memory_)
        m.peerHadCopy = true;
}

void
SnoopMemSys::onData(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    if (!m) {
        // Memory data can outlive its transaction: the owner's data
        // (or an evicted owner's writeback buffer, which answers
        // snoops until its wbAck) plus every snoop response retire
        // it first. Drop it. Late *peer* data would mean lost
        // coherence state.
        SPP_ASSERT(msg.fromMemory, "peer data for missing txn at core {}",
                   msg.dst);
        ++late_data_drops_;
        return;
    }
    // absorbData resolves the memory/owner race: owner data is at
    // least as fresh as memory and wins version ties, so late memory
    // data never overrides an owner's response.
    absorbData(*m, msg);
    if (!msg.fromMemory) // Owner data doubles as its snoop response.
        countResponse(*m, true);
    checkCompletion(*m);
}

void
SnoopMemSys::onAckInv(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "ackInv for missing txn at core {}", msg.dst);
    countResponse(*m, msg.hadCopy);
    if (msg.hadCopy)
        m->out.servicedBy.set(msg.src);
    if (msg.ownerAck) // Authoritative owner data.
        absorbData(*m, msg);
    checkCompletion(*m);
}

void
SnoopMemSys::onSnoopResp(const Msg &msg)
{
    Mshr *m = txnFor(msg.dst, msg.line, msg.txn);
    SPP_ASSERT(m, "snoopResp for missing txn at core {}", msg.dst);
    countResponse(*m, msg.hadCopy);
    checkCompletion(*m);
}

void
SnoopMemSys::maybeResumeCore(Mshr &m)
{
    if (m.coreResumed)
        return;
    // Reads resume on data. Writes resume once ordered (broadcast:
    // the ordering delay elapsed; multicast: the home's grant
    // arrived) and the data, if any, arrived. Speculative memory
    // data is consumable only once every snoop response confirmed
    // no cache owner exists.
    const bool data_ok = m.dataReceived &&
        (m.dataFromPeer || !speculative_memory_ ||
         m.peerResponses >= m.peerResponsesDue);
    if (m.needData && !data_ok)
        return;
    if (m.isWrite && !m.ordered && !m.grantReceived)
        return;
    if (speculative_memory_ && !m.isWrite && !m.dataFromPeer) {
        // Memory data with sharers on chip fills Forwarding; a solo
        // copy fills Exclusive.
        m.fillState = m.peerHadCopy ? cfg_.cleanSharedFill()
                                    : Mesif::exclusive;
    }
    m.coreResumed = true;
    finishOutcome(m);

    // Move the transaction aside so the core can issue its next
    // access; responses keep finding it via txnFor().
    const CoreId core = m.core;
    const std::uint64_t txn = m.txn;
    Mshr &moved = lingering_.insert(txn);
    moved = std::move(m);
    mshr_[core].reset();
    DoneFn done = std::move(moved.done);
    moved.done = nullptr;
    done(moved.out);
}

void
SnoopMemSys::checkCompletion(Mshr &m)
{
    // maybeResumeCore may move the Mshr into lingering_; re-resolve
    // before the final-drain check.
    const CoreId core = m.core;
    const Addr line = m.line;
    const std::uint64_t txn = m.txn;
    maybeResumeCore(m);
    Mshr *mm = txnFor(core, line, txn);
    SPP_ASSERT(mm, "snooping txn lost during completion");
    if (!mm->coreResumed || mm->peerResponses < mm->peerResponsesDue)
        return;
    // Fully drained: release the home ordering lock.
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

// ---------------------------------------------------------------------
// Peer side
// ---------------------------------------------------------------------

void
SnoopMemSys::onSnoopReq(const Msg &m)
{
    const CoreId self = m.dst;
    const CoreId home = map_.homeNode(m.line);
    countSnoop();
    observeSnoop(m);
    const PeerView v = peerView(self, m.line);
    auto reply = [&](MsgType type, CoreId dst) {
        Msg r;
        r.type = type;
        r.line = m.line;
        r.src = self;
        r.dst = dst;
        r.requester = m.requester;
        r.txn = m.txn;
        return r;
    };

    if (!v.valid || (!m.isWrite && !canForward(v.state))) {
        Msg r = reply(MsgType::snoopResp, m.requester);
        r.hadCopy = v.valid;
        sendMsgAfter(cfg_.l2TagLatency, r);
        return;
    }

    if (!m.isWrite) {
        // Forward from the F/E/M copy; dirty data also goes home.
        const Tick lat = cfg_.l2TagLatency + cfg_.l2DataLatency;
        if (v.state == Mesif::modified) {
            Msg dep = reply(MsgType::dirUpdate, home);
            dep.version = v.version;
            sendMsgAfter(lat, dep);
        } else if (speculative_memory_) {
            sendMsgAfter(lat, reply(MsgType::cancel, home));
        }
        downgradeToShared(self, m.line);
        Msg d = reply(MsgType::data, m.requester);
        d.fillState = cfg_.cleanSharedFill();
        d.version = v.version;
        sendMsgAfter(lat, d);
        return;
    }

    Msg a = reply(MsgType::ackInv, m.requester);
    a.hadCopy = true;
    Tick lat = cfg_.l2TagLatency;
    if (canForward(v.state)) {
        a.ownerAck = true;
        a.version = v.version;
        lat += cfg_.l2DataLatency;
        if (speculative_memory_)
            sendMsgAfter(lat, reply(MsgType::cancel, home));
    }
    invalidateAt(self, m.line);
    // An in-flight upgrade at this peer just lost its copy; it now
    // needs data from the eventual owner or memory.
    if (Mshr *own = mshrFor(self, m.line)) {
        if (own->isWrite)
            own->needData = true;
    }
    sendMsgAfter(lat, a);
}

// ---------------------------------------------------------------------
// Dispatch / diagnostics
// ---------------------------------------------------------------------

void
SnoopMemSys::handleMsg(const Msg &m)
{
    switch (m.type) {
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
      case MsgType::unblock:
        locks_.release(m.line, TxnKey{m.requester, m.txn});
        break;
      case MsgType::wbNotice:
        applyWriteback(m);
        break;
      case MsgType::wbAck:
        finishWriteback(m.dst, m.line);
        break;
      case MsgType::dirUpdate:
        depositMemVersion(m.line, m.version);
        break;
      default:
        SPP_PANIC("{} protocol got {}", toString(cfg_.protocol),
                  toString(m.type));
    }
}

std::string
SnoopMemSys::dumpOutstanding() const
{
    std::string out = MemSys::dumpOutstanding();
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        out += strfmt("lingering txn {} core {} line {} write={} "
                      "responses={}/{} ordered={} grant={} data={}\n",
                      txn, m.core, m.line, m.isWrite, m.peerResponses,
                      m.peerResponsesDue == Mshr::dueUnknown
                          ? std::string("?")
                          : strfmt("{}", m.peerResponsesDue),
                      m.ordered, m.grantReceived, m.dataReceived);
    });
    return out;
}

void
SnoopMemSys::hashState(StateHasher &h) const
{
    MemSys::hashState(h);
    lingering_.forEach([&](std::uint64_t txn, const Mshr &m) {
        StateHasher sub;
        sub.mix(txn);
        hashMshr(sub, m);
        h.mixUnordered(sub.value());
    });
}

} // namespace spp
