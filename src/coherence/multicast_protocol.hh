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
 * to expect. Ordering reuses the per-line home lock, and peers answer
 * snoops exactly as broadcast targets do (the shared snooping engine,
 * snoop_protocol.hh); a write is ordered when its grant arrives.
 *
 * Bandwidth: a correct prediction costs |predicted| + 1 request
 * messages instead of N-1; an empty prediction degrades to full
 * broadcast.
 */

#ifndef SPP_COHERENCE_MULTICAST_PROTOCOL_HH
#define SPP_COHERENCE_MULTICAST_PROTOCOL_HH

#include "coherence/directory_protocol.hh" // DirTable
#include "coherence/snoop_protocol.hh"

namespace spp {

/** Predicted-multicast snooping memory system
 * (Protocol::multicast). */
class MulticastMemSys : public SnoopMemSys
{
  public:
    MulticastMemSys(const Config &cfg, EventQueue &eq, Mesh &mesh,
                    DestinationPredictor *predictor);

    /** Multicasts whose mask missed a required node (fallback). */
    std::uint64_t insufficientMasks() const
    {
        return insufficient_masks_;
    }

    void hashState(StateHasher &h) const override;

    /** Peek the memory-side verification directory (tests). */
    const DirEntry *
    dirEntry(Addr line) const
    {
        return dir_.find(line);
    }

  protected:
    void handleMsg(const Msg &m) override;
    void launch(Mshr &m) override;
    void observeSnoop(const Msg &m) override;

  private:
    void onVerify(const Msg &m);
    void processVerify(const Msg &m);
    void onGrant(const Msg &m);
    /** Send memory data for @p key after the home's memory access. */
    void fetchAtHome(Addr line, const TxnKey &key, Mesif fill_state);

    /** Memory-side verification directory. */
    DirTable dir_;
    std::uint64_t insufficient_masks_ = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_MULTICAST_PROTOCOL_HH
