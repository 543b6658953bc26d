/**
 * @file
 * Distributed directory MESIF protocol with the paper's Section 4.5
 * destination-set prediction extension.
 *
 * Baseline transaction flow (no prediction):
 *   requester --req--> home directory --fwd/inv--> peers --data/ack-->
 *   requester --unblock--> home.
 * The home directory serializes transactions per line (LineLockTable)
 * and keeps a full-map sharer vector plus the owner (the E/M/F
 * holder, which can source data cache-to-cache).
 *
 * Prediction extension (Section 4.5): on a miss, the requester sends
 * predicted requests directly to the predicted nodes and, in
 * parallel, the normal request (carrying the predicted bit vector) to
 * the directory. Predicted owners forward data immediately (2-hop
 * miss); predicted sharers invalidate and ack directly. The directory
 * detects insufficient predictions and services them at baseline
 * latency. Races between predicted requests and in-flight
 * transactions resolve via Nacks: a peer accepts a predicted request
 * only if the line's home lock is free or held by the same
 * transaction; a requester whose predicted targets all Nacked
 * escalates with predFailed, and Nacked invalidation targets are
 * retried directly once the grant names the authoritative ack set.
 */

#ifndef SPP_COHERENCE_DIRECTORY_PROTOCOL_HH
#define SPP_COHERENCE_DIRECTORY_PROTOCOL_HH

#include <unordered_map>

#include "coherence/mem_sys.hh"
#include "common/sharer_tracker.hh"

namespace spp {

/**
 * Directory entry: a sharer set in the configured representation
 * (full map / coarse vector / limited pointers; sharer_tracker.hh)
 * plus the exact owner. Protocols act on the conservative superset
 * the tracker reports, so inexact formats cost extra invalidations,
 * never correctness.
 */
struct DirEntry
{
    SharerTracker sharers;
    CoreId owner = invalidCore; ///< E/M/F holder, if any.

    /** @p core wrote its copy back: it is no longer sharer or owner. */
    void
    evict(CoreId core)
    {
        sharers.reset(core);
        if (owner == core)
            owner = invalidCore;
    }
};

/**
 * Directory entries by line, each created on first touch with an
 * empty sharer set in the configured sharer format. The home
 * directory (DirectoryMemSys) and the multicast verification
 * directory (MulticastMemSys) are both one of these. Lines are never
 * removed, so the node churn PooledMap avoids does not occur here.
 */
class DirTable : public PooledMap<DirEntry>
{
  public:
    explicit DirTable(const Config &cfg)
        : layout_(SharerLayout::fromConfig(cfg))
    {}

    /** Find-or-create the entry for @p line. */
    DirEntry &
    findOrCreate(Addr line)
    {
        if (DirEntry *e = find(line))
            return *e;
        DirEntry &e = insert(line);
        e.sharers = SharerTracker(layout_);
        return e;
    }

  private:
    SharerLayout layout_;
};

/**
 * Directory MESIF memory system (Protocol::directory and
 * Protocol::predicted).
 */
class DirectoryMemSys : public MemSys
{
  public:
    DirectoryMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    DestinationPredictor *predictor);

    /** Directory-state consistency check (tests; call when drained). */
    void checkDirectory() const;

    /** Peek a directory entry (tests). */
    const DirEntry *dirEntry(Addr line) const;

    /** Misses serviced without directory indirection (Fig. 12). */
    std::uint64_t indirectionsAvoided() const
    {
        return indirections_avoided_;
    }

    PoolStats txnPoolStats() const override { return txns_.stats(); }

    void hashState(StateHasher &h) const override;

  protected:
    void startMiss(Mshr &m) override;
    void handleMsg(const Msg &m) override;

  private:
    /** Per-line transaction bookkeeping while the home lock is held. */
    struct DirTxn
    {
        TxnKey key;
        bool waitingPeer = false;   ///< Read left to the peer path.
    };

    // Home-side handlers.
    void onRequest(const Msg &m);
    void processRequest(const Msg &m);
    void processRead(const Msg &m);
    void processWrite(const Msg &m);
    void onPredFailed(const Msg &m);
    void onUnblock(const Msg &m);
    void onWbNotice(const Msg &m);
    void onDirUpdate(const Msg &m);
    void serviceReadFromDir(const Msg &m, DirEntry &e);
    void sendMemoryData(Addr line, CoreId requester, Mesif fill_state);
    bool takeEarlyPredFailure(Addr line, const TxnKey &key);

    // Peer-side handlers.
    void onFwdRead(const Msg &m);
    void onInv(const Msg &m);
    void onPredRequest(const Msg &m);

    // Requester-side handlers.
    void onData(const Msg &m);
    void onAckInv(const Msg &m);
    void onNack(const Msg &m);
    void onGrant(const Msg &m);
    void maybeRetryNacked(Mshr &m);
    void checkCompletion(Mshr &m);

    DirTable dir_;
    /** One entry per in-flight home transaction: per-miss insert and
     * erase, so entries come from a pool. */
    PooledMap<DirTxn> txns_;
    /** predFailed notices that arrived before their request was
     * processed (their request may be queued behind other
     * transactions, so several can be pending per line). */
    std::unordered_map<Addr, std::vector<TxnKey>> early_pred_failed_;
    /** Unblocks that arrived before their request was processed. */
    std::unordered_map<Addr, std::vector<TxnKey>> early_unblock_;

    /** Find-and-erase @p key in an early-record map. */
    static bool takeEarly(
        std::unordered_map<Addr, std::vector<TxnKey>> &map, Addr line,
        const TxnKey &key);
    std::uint64_t indirections_avoided_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_DIRECTORY_PROTOCOL_HH
