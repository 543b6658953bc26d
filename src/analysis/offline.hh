/**
 * @file
 * Offline predictor study (the paper's Section 3.2 methodology):
 * "we collected L2 miss traces that contain the miss data address,
 * type, PC, and the target set of cores ... along with all
 * sync-points and their type and static/dynamic IDs. Traces do not
 * capture the effects of timing and are used only for
 * characterization."
 *
 * Here the recorded trace is a `.spptrace` op stream: replaying it
 * under its recording Config reproduces the live run's misses and
 * sync-points event for event (trace/replay.hh), so the study simply
 * observes that replay.
 */

#ifndef SPP_ANALYSIS_OFFLINE_HH
#define SPP_ANALYSIS_OFFLINE_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "mem/address_map.hh"
#include "predict/predictor.hh"
#include "sim/cmp_system.hh"
#include "sync/sync_types.hh"
#include "trace/format.hh"

namespace spp {

/** Results of one predictor over an offline study. */
struct OfflineResult
{
    std::uint64_t misses = 0;
    std::uint64_t commMisses = 0;
    std::uint64_t attempted = 0;
    std::uint64_t sufficient = 0;   ///< Of communicating misses.
    double predictedTargets = 0.0;  ///< Avg set size per attempt.
    std::size_t storageBits = 0;

    double
    accuracy() const
    {
        return commMisses
            ? static_cast<double>(sufficient) /
                  static_cast<double>(commMisses)
            : 0.0;
    }
};

/**
 * Feeds each miss and sync-point, in order, into one freshly built
 * predictor per requested kind. The predictors only watch — none
 * steers the observed machine — so every kind sees the same stream;
 * each prediction is scored against the caches that actually
 * serviced the miss, then trained on them.
 */
class OfflineStudy : public SyncListener
{
  public:
    OfflineStudy(const Config &cfg,
                 const std::vector<PredictorKind> &kinds);

    /** Observe @p sys: takes its access-observer slot and registers
     * one sync listener. The study must outlive the run and stay at
     * its address. */
    void attach(CmpSystem &sys);

    /** One L2 miss by @p core to the line holding @p addr. */
    void onMiss(CoreId core, Addr addr, Pc pc, const AccessOutcome &out);

    void onSyncPoint(CoreId core, const SyncPointInfo &info) override;

    /** One result per kind, in constructor order. */
    std::vector<OfflineResult> results() const;

  private:
    struct Lane
    {
        std::unique_ptr<DestinationPredictor> predictor;
        SpPredictor *sp = nullptr;  ///< predictor, when it is SP.
        OfflineResult res;
        double setSum = 0.0;
    };

    AddressMap map_;
    std::vector<Lane> lanes_;
};

/**
 * Replay @p trace once under @p cfg with an OfflineStudy of @p kinds
 * attached; one result per kind. Call traceReplayError() first — a
 * thread-count mismatch is fatal here.
 */
std::vector<OfflineResult>
evaluateOffline(const TraceData &trace, const Config &cfg,
                const std::vector<PredictorKind> &kinds);

} // namespace spp

#endif // SPP_ANALYSIS_OFFLINE_HH
