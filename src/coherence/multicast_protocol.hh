/**
 * @file
 * Multicast snooping with destination-set prediction — the paper's
 * second use case ("In snooping protocols, prediction relaxes the
 * high bandwidth requirements by replacing broadcast with
 * multicast"), in the style of Bilir et al.'s multicast snooping [8].
 *
 * A miss snoops only the *predicted* set of nodes instead of
 * broadcasting. The home tile keeps a memory-side directory used
 * purely for verification and fallback: it checks whether the
 * multicast mask covered every node that had to be contacted, snoops
 * the missed nodes itself when it did not, supplies memory data when
 * no cache owner exists, and tells the requester how many responses
 * to expect. Ordering reuses the per-line home lock (as in the
 * broadcast model); peers behave exactly as broadcast snoop targets.
 *
 * Bandwidth: a correct prediction costs |predicted| + 1 request
 * messages instead of N-1; an empty prediction degrades to full
 * broadcast.
 */

#ifndef SPP_COHERENCE_MULTICAST_PROTOCOL_HH
#define SPP_COHERENCE_MULTICAST_PROTOCOL_HH


#include "coherence/directory_protocol.hh" // DirEntry
#include "coherence/mem_sys.hh"

namespace spp {

/** Predicted-multicast snooping memory system
 * (Protocol::multicast). */
class MulticastMemSys : public MemSys
{
  public:
    MulticastMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    DestinationPredictor *predictor);

    std::string dumpOutstanding() const override;

    std::size_t outstandingTxns() const override
    {
        return lingering_.size();
    }

    PoolStats txnPoolStats() const override
    {
        return lingering_.stats();
    }

    /** Multicasts whose mask missed a required node (fallback). */
    std::uint64_t insufficientMasks() const
    {
        return insufficient_masks_;
    }

    void hashState(StateHasher &h) const override;

    /**
     * Late memory-data messages dropped because their transaction had
     * fully retired (an evicted owner's writeback buffer answering a
     * predicted snoop while home memory data is still in flight). The
     * model checker's race-witness tests assert exploration reaches
     * this window.
     */
    std::uint64_t lateDataDrops() const { return late_data_drops_; }

    /** Peek the memory-side verification directory (tests). */
    const DirEntry *
    dirEntry(Addr line) const
    {
        return dir_.find(line);
    }

  protected:
    void startMiss(Mshr &m) override;
    void handleMsg(const Msg &m) override;
    void onCompleteMiss(Mshr &m) override;
    void onWriteback(CoreId core, Addr line) override;

  private:
    void launch(Mshr &m);
    void sendSnoop(CoreId src, CoreId dst, const Msg &like);
    void onVerify(const Msg &m);
    void processVerify(const Msg &m);
    void onGrant(const Msg &m);
    void onSnoopResp(const Msg &m);
    void onData(const Msg &m);
    void onAckInv(const Msg &m);
    void onUnblock(const Msg &m);
    void onWbNotice(const Msg &m);
    void onSnoopReq(const Msg &m);
    void checkCompletion(Mshr &m);
    Mshr *txnFor(CoreId core, Addr line, std::uint64_t txn);
    bool maybeResumeCore(Mshr &m);
    void sendMemoryData(Addr line, CoreId requester,
                        std::uint64_t txn, Mesif fill_state);

    /** Find-or-create the entry for @p line in the configured
     * sharer format. */
    DirEntry &dirAt(Addr line);

    /** Memory-side verification directory. */
    PooledMap<DirEntry> dir_;
    SharerLayout sharer_layout_;
    /** Resumed-but-not-drained transactions, keyed by txn id;
     * per-miss churn, so entries come from a pool. */
    PooledMap<Mshr> lingering_;
    std::uint64_t insufficient_masks_ = 0;
    std::uint64_t late_data_drops_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_MULTICAST_PROTOCOL_HH
