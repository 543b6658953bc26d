/**
 * @file
 * The snooping engine shared by broadcast and predicted multicast.
 *
 * Both protocols order a miss by the per-line home lock (zero-latency
 * arbitration, see line_lock.hh), snoop peers directly, and let the
 * core resume before the transaction fully drains: the requester
 * keeps collecting snoop responses in a lingering entry and unblocks
 * the home once the last one arrived. Peers answer every snoop the
 * same way in both protocols — forward data from a forwarding copy
 * (depositing dirty data at memory via dirUpdate), invalidate on
 * writes, and reply with a snoopResp otherwise.
 *
 * An engine supplies what differs: which peers a miss snoops
 * (launch), what a peer does before looking up its copy
 * (observeSnoop), and its own message types (handleMsg, falling back
 * to this class for the shared ones). One flag distinguishes the
 * memory side: with speculative memory (broadcast) the home fetches
 * without knowing whether a cache owns the line, so forwarding peers
 * cancel the fetch and memory data counts only once every snoop
 * response ruled an owner out; otherwise (multicast) the home's
 * directory decides and its memory data is authoritative.
 */

#ifndef SPP_COHERENCE_SNOOP_PROTOCOL_HH
#define SPP_COHERENCE_SNOOP_PROTOCOL_HH

#include "coherence/mem_sys.hh"

namespace spp {

/** Snooping memory system base (broadcast and multicast). */
class SnoopMemSys : public MemSys
{
  public:
    std::string dumpOutstanding() const override;

    std::size_t outstandingTxns() const override
    {
        return lingering_.size();
    }

    PoolStats txnPoolStats() const override { return lingering_.stats(); }

    void hashState(StateHasher &h) const override;

    /**
     * Late memory-data messages dropped because their transaction had
     * fully retired: the owner's (or an evicted owner's writeback
     * buffer's) cache-to-cache data plus every snoop response beat
     * the slower memory data. A correctness-relevant ordering window:
     * the model checker's race-witness tests assert exploration
     * actually drives executions into it.
     */
    std::uint64_t lateDataDrops() const { return late_data_drops_; }

  protected:
    SnoopMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                DestinationPredictor *predictor,
                bool speculative_memory);

    /** Queue for the home lock, then launch(). */
    void startMiss(Mshr &m) final;

    /** Dispatch the message types both engines share. */
    void handleMsg(const Msg &m) override;

    /**
     * Send the miss's snoops and home request; the home lock is held.
     * Must set m.peerResponsesDue, or leave it unknown until a later
     * message (multicast's grant) fixes it.
     */
    virtual void launch(Mshr &m) = 0;

    /** Peer m.dst received snoop @p m and is about to look it up. */
    virtual void observeSnoop(const Msg &m) = 0;

    /** Send a snoopReq modelled on @p like from @p src to @p dst. */
    void sendSnoop(CoreId src, CoreId dst, const Msg &like);

    /** Send memory's copy of @p line from its home to @p key 's
     * requester (@p fill_state invalid: the requester chooses). */
    void sendMemoryData(Addr line, const TxnKey &key, Mesif fill_state);

    /**
     * The transaction state for a response: the active MSHR, or a
     * lingering transaction whose core already resumed.
     */
    Mshr *txnFor(CoreId core, Addr line, std::uint64_t txn);

    /** Resume the core and/or retire @p m as far as it allows. */
    void checkCompletion(Mshr &m);

  private:
    void onSnoopReq(const Msg &m);
    void onSnoopResp(const Msg &m);
    void onData(const Msg &m);
    void onAckInv(const Msg &m);

    /** Count one peer's snoop response (owner data included). */
    void countResponse(Mshr &m, bool had_copy);

    /**
     * Resume the core as soon as its data (or, for writes, ordering)
     * allows: the MSHR moves into lingering_ so the core can issue
     * its next access, which leaves @p m dangling.
     */
    void maybeResumeCore(Mshr &m);

    const bool speculative_memory_;
    /** Resumed-but-not-drained transactions, keyed by txn id;
     * per-miss churn, so entries come from a pool. */
    PooledMap<Mshr> lingering_;
    std::uint64_t late_data_drops_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_SNOOP_PROTOCOL_HH
