#include "analysis/stats_report.hh"

#include <ostream>
#include <sstream>

#include "core/sp_predictor.hh" // toString(PredSource)

namespace spp {

namespace {

void
line(std::ostream &os, const std::string &prefix, const char *name,
     std::uint64_t v)
{
    os << prefix << '.' << name << ' ' << v << '\n';
}

void
avg(std::ostream &os, const std::string &prefix, const char *name,
    const Average &a)
{
    os << prefix << '.' << name << ".mean " << a.mean() << '\n';
    os << prefix << '.' << name << ".count " << a.count() << '\n';
    os << prefix << '.' << name << ".max " << a.max() << '\n';
}

} // namespace

void
dumpStats(std::ostream &os, const RunResult &r,
          const std::string &prefix)
{
    line(os, prefix, "ticks", r.ticks);
    line(os, prefix, "events", r.eventsExecuted);

    const std::string mem = prefix + ".mem";
    line(os, mem, "accesses", r.mem.accesses.value());
    line(os, mem, "l1_hits", r.mem.l1Hits.value());
    line(os, mem, "l2_hits", r.mem.l2Hits.value());
    line(os, mem, "misses", r.mem.misses.value());
    line(os, mem, "upgrade_misses", r.mem.upgradeMisses.value());
    line(os, mem, "communicating_misses",
         r.mem.communicatingMisses.value());
    line(os, mem, "offchip_misses", r.mem.offChipMisses.value());
    line(os, mem, "writebacks", r.mem.writebacks.value());
    line(os, mem, "snoop_lookups", r.mem.snoopLookups.value());
    avg(os, mem, "miss_latency", r.mem.missLatency);
    avg(os, mem, "comm_miss_latency", r.mem.commMissLatency);
    avg(os, mem, "noncomm_miss_latency", r.mem.nonCommMissLatency);
    avg(os, mem, "hit_latency", r.mem.hitLatency);

    const std::string pred = prefix + ".pred";
    line(os, pred, "attempted", r.mem.predictionsAttempted.value());
    line(os, pred, "suppressed",
         r.mem.predictionsSuppressed.value());
    line(os, pred, "on_communicating",
         r.mem.predictionsOnCommunicating.value());
    line(os, pred, "on_noncomm", r.mem.predictionsOnNonComm.value());
    line(os, pred, "sufficient", r.mem.predictionsSufficient.value());
    line(os, pred, "waste_bytes_comm",
         r.mem.predWasteBytesComm.value());
    line(os, pred, "waste_bytes_noncomm",
         r.mem.predWasteBytesNonComm.value());
    avg(os, pred, "predicted_targets", r.mem.predictedTargets);
    avg(os, pred, "actual_targets", r.mem.actualTargets);
    line(os, pred, "storage_bits", r.predictorStorageBits);
    line(os, pred, "table_accesses", r.predictorTableAccesses);
    line(os, pred, "indirections_avoided", r.indirectionsAvoided);
    for (unsigned s = 0; s < r.mem.sufficientBySource.size(); ++s) {
        os << pred << ".sufficient_by_source."
           << toString(static_cast<PredSource>(s)) << ' '
           << r.mem.sufficientBySource[s] << '\n';
    }

    const std::string sp = prefix + ".sp";
    line(os, sp, "epochs_started", r.sp.epochsStarted.value());
    line(os, sp, "noisy_epochs", r.sp.noisyEpochs.value());
    line(os, sp, "lock_epochs", r.sp.lockEpochs.value());
    line(os, sp, "recoveries", r.sp.recoveries.value());
    line(os, sp, "warmup_extractions",
         r.sp.warmupExtractions.value());
    line(os, sp, "pattern_hits", r.sp.patternHits.value());

    const std::string noc = prefix + ".noc";
    line(os, noc, "packets", r.noc.packets.value());
    line(os, noc, "bytes", r.noc.flitBytes.value());
    line(os, noc, "byte_hops", r.noc.byteHops.value());
    line(os, noc, "byte_routers", r.noc.byteRouters.value());
    line(os, noc, "router_traversals", r.noc.routerTraversals.value());
    avg(os, noc, "packet_latency", r.noc.packetLatency);
    static const char *cls_names[] = {"request", "pred_request",
                                      "forward", "response", "data",
                                      "dir_update"};
    for (unsigned c = 0; c < 6; ++c) {
        os << noc << ".bytes_by_class." << cls_names[c] << ' '
           << r.noc.bytesByClass[c] << '\n';
    }

    const std::string sync = prefix + ".sync";
    line(os, sync, "sync_points", r.sync.syncPoints.value());
    line(os, sync, "barriers_released",
         r.sync.barriersReleased.value());
    line(os, sync, "lock_acquisitions",
         r.sync.lockAcquisitions.value());
    line(os, sync, "lock_contended", r.sync.lockContended.value());
    line(os, sync, "wakeups", r.sync.wakeups.value());
}

std::string
statsToString(const RunResult &r, const std::string &prefix)
{
    std::ostringstream os;
    dumpStats(os, r, prefix);
    return os.str();
}

} // namespace spp
