#include "analysis/offline.hh"

#include "common/logging.hh"
#include "trace/replay.hh"

namespace spp {

OfflineStudy::OfflineStudy(const Config &cfg,
                           const std::vector<PredictorKind> &kinds)
    : map_(cfg)
{
    for (PredictorKind kind : kinds) {
        if (kind == PredictorKind::none)
            SPP_FATAL("offline evaluation needs a predictor kind");
        Lane &lane = lanes_.emplace_back();
        lane.predictor = makePredictor(cfg, kind);
        if (kind == PredictorKind::sp)
            lane.sp = static_cast<SpPredictor *>(lane.predictor.get());
    }
}

void
OfflineStudy::attach(CmpSystem &sys)
{
    sys.syncManager().addListener(this);
    sys.setAccessObserver(
        [this](CoreId core, Addr addr, Pc pc, const AccessOutcome &out) {
            if (out.miss())
                onMiss(core, addr, pc, out);
        });
}

void
OfflineStudy::onSyncPoint(CoreId core, const SyncPointInfo &info)
{
    for (Lane &lane : lanes_)
        if (lane.sp)
            lane.sp->onSyncPoint(core, info);
}

void
OfflineStudy::onMiss(CoreId core, Addr addr, Pc pc,
                     const AccessOutcome &out)
{
    PredictionQuery q;
    q.core = core;
    q.line = map_.lineAddr(addr);
    q.macroBlock = map_.macroBlock(q.line);
    q.pc = pc;
    q.isWrite = out.isWrite;

    for (Lane &lane : lanes_) {
        DestinationPredictor &predictor = *lane.predictor;
        OfflineResult &res = lane.res;
        ++res.misses;
        Prediction p = predictor.predict(q);
        p.targets.reset(core);
        bool sufficient = false;
        if (p.valid()) {
            ++res.attempted;
            lane.setSum += p.targets.count();
            sufficient = out.communicating &&
                p.targets.contains(out.servicedBy);
        }
        if (out.communicating) {
            ++res.commMisses;
            if (sufficient)
                ++res.sufficient;
            predictor.trainResponse(q, out.servicedBy);
            // Offline external training: every serviced target
            // observed this requester.
            for (CoreId t : out.servicedBy) {
                predictor.trainExternal(t, q.line, q.macroBlock, pc,
                                        core, out.isWrite);
            }
        }
        predictor.feedback(core, p, out.communicating, sufficient);
    }
}

std::vector<OfflineResult>
OfflineStudy::results() const
{
    std::vector<OfflineResult> out;
    for (const Lane &lane : lanes_) {
        OfflineResult r = lane.res;
        if (r.attempted > 0)
            r.predictedTargets =
                lane.setSum / static_cast<double>(r.attempted);
        r.storageBits = lane.predictor->storageBits();
        out.push_back(r);
    }
    return out;
}

std::vector<OfflineResult>
evaluateOffline(const TraceData &trace, const Config &cfg,
                const std::vector<PredictorKind> &kinds)
{
    OfflineStudy study(cfg, kinds);
    CmpSystem sys(cfg);
    study.attach(sys);
    // Non-owning: the replay closures die with sys, before the
    // caller's trace can.
    sys.run(replayThreadFn(
        std::shared_ptr<const TraceData>(std::shared_ptr<void>(), &trace)));
    return study.results();
}

} // namespace spp
