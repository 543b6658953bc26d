/**
 * @file
 * Broadcast snooping protocol over a (modelled) totally ordered
 * interconnect.
 *
 * The paper's latency-ideal / bandwidth-maximal endpoint: every miss
 * is broadcast to all peers; the owner responds cache-to-cache (2-hop
 * miss), sharers invalidate on writes, and every peer returns a snoop
 * response so the requester can resolve ordering (the shared snooping
 * engine, snoop_protocol.hh). The home tile starts a speculative
 * memory fetch in parallel, cancelled by an owner's cancel (or dirty
 * dirUpdate) message.
 *
 * Total order is modelled by the shared per-line home lock: a miss
 * acquires it (zero-latency arbitration, see line_lock.hh) before
 * broadcasting and releases it on completion. Waiting time while the
 * line is held by another miss is paid for real. A write is ordered
 * one control-packet traversal to the home after it is broadcast.
 */

#ifndef SPP_COHERENCE_BROADCAST_PROTOCOL_HH
#define SPP_COHERENCE_BROADCAST_PROTOCOL_HH

#include "coherence/snoop_protocol.hh"

namespace spp {

/** Snooping broadcast memory system (Protocol::broadcast). */
class BroadcastMemSys : public SnoopMemSys
{
  public:
    BroadcastMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh);

    PoolStats
    txnPoolStats() const override
    {
        PoolStats sum = SnoopMemSys::txnPoolStats();
        sum += spec_fetch_.stats();
        return sum;
    }

    void hashState(StateHasher &h) const override;

  protected:
    void handleMsg(const Msg &m) override;
    void launch(Mshr &m) override;
    void observeSnoop(const Msg &m) override;

  private:
    /** Home-side speculative memory fetch state, keyed by line. */
    struct SpecFetch
    {
        TxnKey key;
        bool cancelled = false;
    };

    /** Send memory data for @p key after the home's memory access,
     * unless an owner cancelled the fetch meanwhile. */
    void fetchAtHome(Addr line, const TxnKey &key);

    /** The fetch of @p m 's transaction, if still pending. */
    SpecFetch *fetchOf(const Msg &m);

    /** Per-miss insert/erase churn: pool-backed (see pool.hh). */
    PooledMap<SpecFetch> spec_fetch_;
};

} // namespace spp

#endif // SPP_COHERENCE_BROADCAST_PROTOCOL_HH
