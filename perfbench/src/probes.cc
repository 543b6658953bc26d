/**
 * @file
 * Isolated layer replays and the checker batch.
 */

#include "probes.hh"

#include <filesystem>
#include <memory>

#include "check/protocol_checker.hh"
#include "core/sp_predictor.hh"
#include "mem/cache_array.hh"
#include "service/result_store.hh"
#include "trace/codec.hh"
#include "trace/replay.hh"
#include "trace/store.hh"
#include "workload/fuzz.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace spp;

namespace {

/** Timed repetitions of each isolated replay; the median is kept. */
constexpr unsigned kReps = 3;

/** Executions one exploration may take. Only pingpong reaches it
 * (534 and 2038 executions uncapped on directory and predicted). */
constexpr std::uint64_t kMcExecCap = 500;

struct Access
{
    CoreId core;
    Addr line;
    bool write;
};

/** A sync point or a finished miss, in the order the run saw them. */
struct PredEvent
{
    bool sync = false;
    CoreId core = 0;
    SyncPointInfo info;
    PredictionQuery q;
    bool communicating = false;
    bool sufficient = false;
    CoreSet servicedBy;
};

class SyncCapture : public SyncListener
{
  public:
    explicit SyncCapture(std::vector<PredEvent> &out) : out_(out) {}
    void
    onSyncPoint(CoreId core, const SyncPointInfo &info) override
    {
        PredEvent e;
        e.sync = true;
        e.core = core;
        e.info = info;
        out_.push_back(e);
    }

  private:
    std::vector<PredEvent> &out_;
};

struct Captured
{
    std::shared_ptr<TraceData> trace;
    std::vector<Access> accesses;
    std::vector<PredEvent> events;
    RunResult result;
    bool ok = false;
};

/** One untimed run with every capture observer attached. */
Captured
capture(const Sample &s)
{
    Captured c;
    CmpSystem sys(s.cfg);
    TraceRecorder rec(s.cfg.numCores);
    sys.setTraceSink(&rec);
    SyncCapture sync(c.events);
    sys.syncManager().addListener(&sync);
    const Addr line_mask = ~static_cast<Addr>(s.cfg.lineBytes - 1);
    const Addr macro_mask = ~static_cast<Addr>(s.cfg.macroBlockBytes - 1);
    sys.setAccessObserver([&](CoreId core, Addr addr, Pc pc,
                              const AccessOutcome &out) {
        c.accesses.push_back({core, addr & line_mask, out.isWrite});
        if (!out.miss())
            return;
        PredEvent e;
        e.core = core;
        e.q.core = core;
        e.q.line = addr & line_mask;
        e.q.macroBlock = addr & macro_mask;
        e.q.pc = pc;
        e.q.isWrite = out.isWrite;
        e.communicating = out.communicating;
        e.sufficient = out.predSufficient;
        e.servicedBy = out.servicedBy;
        c.events.push_back(e);
    });
    c.ok = sys.tryRun(s.live, c.result) == RunStatus::ok;
    rec.data.meta = traceMetaFor(s.workload, s.cfg, s.scale);
    c.trace = std::make_shared<TraceData>(std::move(rec.data));
    return c;
}

/** Fresh per-core L1/L2 arrays fed the captured access stream. */
double
memReplaySeconds(const Config &cfg, const std::vector<Access> &acc)
{
    std::vector<CacheArray> l1, l2;
    l1.reserve(cfg.numCores);
    l2.reserve(cfg.numCores);
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        l1.emplace_back(cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes);
        l2.emplace_back(cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes);
    }
    const auto t0 = Clock::now();
    CacheLine victim;
    for (const Access &a : acc) {
        if (l1[a.core].lookup(a.line) != nullptr)
            continue;
        CacheLine *in_l2 = l2[a.core].lookup(a.line);
        if (in_l2 == nullptr) {
            in_l2 = l2[a.core].allocate(a.line, victim);
            in_l2->state = a.write ? Mesif::modified : Mesif::exclusive;
        }
        l1[a.core].allocate(a.line, victim)->state = in_l2->state;
    }
    return secondsSince(t0);
}

/** A fresh SpPredictor fed the captured sync points and misses. */
double
predictorReplaySeconds(const Config &cfg,
                       const std::vector<PredEvent> &events)
{
    SpPredictor sp(cfg, cfg.numCores);
    const auto t0 = Clock::now();
    for (const PredEvent &e : events) {
        if (e.sync) {
            sp.onSyncPoint(e.core, e.info);
            continue;
        }
        const Prediction p = sp.predict(e.q);
        if (e.communicating)
            sp.trainResponse(e.q, e.servicedBy);
        sp.feedback(e.core, p, e.communicating, e.sufficient);
    }
    return secondsSince(t0);
}

} // namespace

Sample
registrySample(const std::string &name, const Config &cfg, double scale)
{
    const WorkloadSpec *spec = findWorkload(name);
    if (spec == nullptr)
        throw std::runtime_error("unknown workload " + name);
    WorkloadParams params;
    params.scale = scale;
    return Sample{name, cfg, scale, [spec, params](ThreadContext &ctx) {
                      return spec->run(ctx, params);
                  }};
}

void
probeSamples(const std::vector<Sample> &samples,
             const std::string &work_dir, Metrics &m, Tally &checks)
{
    const std::string store = work_dir + "/probe-results";
    std::filesystem::remove_all(store);
    const std::uint64_t hits0 = resultStoreStats().hits;
    const std::uint64_t misses0 = resultStoreStats().misses;

    double live_s = 0, replay_s = 0, enc_s = 0, dec_s = 0;
    double mem_s = 0, pred_s = 0;
    std::uint64_t ops = 0, trace_bytes = 0, mem_accesses = 0;
    std::uint64_t pred_misses = 0;
    std::vector<double> put_ms, get_ms;

    for (const Sample &s : samples) {
        const std::string label = s.workload + "/" +
            toString(s.cfg.protocol) + "/" + toString(s.cfg.predictor);
        ++checks.attempted;
        const Captured cap = capture(s);
        if (!cap.ok) {
            checks.fail(label + ": capture run did not finish");
            continue;
        }
        const std::uint64_t cap_digest = runDigest(cap.result);

        // Live cell and its replay twin, alternated.
        Tally twin;
        std::vector<double> live, replay;
        const CmpSystem::ThreadFn replay_fn = replayThreadFn(cap.trace);
        for (unsigned rep = 0; rep < kReps; ++rep) {
            const std::uint64_t dl =
                timedRun(s.cfg, s.live, false, twin, label);
            live.push_back(twin.lastRunSeconds);
            const std::uint64_t dr =
                timedRun(s.cfg, replay_fn, false, twin, label + "/replay");
            replay.push_back(twin.lastRunSeconds);
            if (dl != cap_digest)
                checks.fail(label + ": capture observers perturbed the run");
            if (dr != dl)
                checks.fail(label + ": replay differs from its live twin");
        }
        for (const std::string &f : twin.failures)
            checks.fail(f);
        live_s += quantile(live, 0.5);
        replay_s += quantile(replay, 0.5);
        ops += cap.trace->totalOps();

        // Codec.
        std::vector<double> enc, dec;
        std::vector<std::uint8_t> bytes;
        for (unsigned rep = 0; rep < kReps; ++rep) {
            const auto t0 = Clock::now();
            bytes = encodeTrace(*cap.trace);
            enc.push_back(secondsSince(t0));
        }
        for (unsigned rep = 0; rep < kReps; ++rep) {
            TraceData back;
            std::string err;
            const auto t0 = Clock::now();
            const bool ok = decodeTrace(bytes, back, err);
            dec.push_back(secondsSince(t0));
            if (!ok || back.threads != cap.trace->threads)
                checks.fail(label + ": trace round trip " + err);
        }
        enc_s += quantile(enc, 0.5);
        dec_s += quantile(dec, 0.5);
        trace_bytes += bytes.size();

        // Result store: one cold lookup, then put/get pairs.
        const ContentKey key =
            resultKey(s.workload, s.cfg, s.scale, false, false, "perfbench");
        const std::string path = resultPath(store, s.workload, key.hash());
        ExperimentResult cold, warm;
        cold.run = cap.result;
        if (loadCachedResult(path, key.describe(), warm))
            checks.fail(label + ": cold store served an entry");
        for (unsigned rep = 0; rep < kReps; ++rep) {
            auto t0 = Clock::now();
            storeResult(path, key.describe(), cold);
            put_ms.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            const bool hit = loadCachedResult(path, key.describe(), warm);
            get_ms.push_back(secondsSince(t0) * 1e3);
            if (!hit || resultJson(warm.run) != resultJson(cold.run))
                checks.fail(label + ": warm entry differs from cold");
        }

        std::vector<double> mem, pred;
        for (unsigned rep = 0; rep < kReps; ++rep)
            mem.push_back(memReplaySeconds(s.cfg, cap.accesses));
        mem_s += quantile(mem, 0.5);
        mem_accesses += cap.accesses.size();
        if (s.cfg.predictor == PredictorKind::sp) {
            for (unsigned rep = 0; rep < kReps; ++rep)
                pred.push_back(predictorReplaySeconds(s.cfg, cap.events));
            pred_s += quantile(pred, 0.5);
            pred_misses += cap.result.mem.misses.value();
        }
    }
    std::filesystem::remove_all(store);

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["workload.ns_per_op"] =
        ratio((live_s - replay_s) * 1e9, static_cast<double>(ops));
    m["trace.encode_mb_per_s"] =
        ratio(static_cast<double>(trace_bytes) / 1e6, enc_s);
    m["trace.decode_mb_per_s"] =
        ratio(static_cast<double>(trace_bytes) / 1e6, dec_s);
    m["trace.bytes_per_op"] = ratio(static_cast<double>(trace_bytes),
                                    static_cast<double>(ops));
    m["service.put_ms"] = quantile(put_ms, 0.5);
    m["service.get_ms"] = quantile(get_ms, 0.5);
    const auto hits = resultStoreStats().hits - hits0;
    const auto misses = resultStoreStats().misses - misses0;
    m["service.hit_frac"] = ratio(static_cast<double>(hits),
                                  static_cast<double>(hits + misses));
    m["mem.lookup_ns"] =
        ratio(mem_s * 1e9, static_cast<double>(mem_accesses));
    m["predict.replay_ns_per_miss"] =
        ratio(pred_s * 1e9, static_cast<double>(pred_misses));
}

CheckPlan
checkPlan(std::uint64_t seed, unsigned n_seeds, unsigned cores,
          const std::vector<std::string> &mc_workloads)
{
    static constexpr std::pair<Protocol, PredictorKind> kProtocols[] = {
        {Protocol::directory, PredictorKind::none},
        {Protocol::broadcast, PredictorKind::none},
        {Protocol::predicted, PredictorKind::sp},
        {Protocol::multicast, PredictorKind::sp},
    };
    CheckPlan plan;
    for (unsigned i = 0; i < n_seeds; ++i) {
        for (const auto &[protocol, predictor] : kProtocols) {
            FuzzCase c;
            c.protocol = protocol;
            c.predictor = predictor;
            c.numCores = cores;
            c.workload.seed = seed * 1000003ull + i;
            // Half the default program length in both dimensions:
            // more, shorter systems per host-second.
            c.workload.segments = 6;
            c.workload.opsPerSegment = 12;
            plan.fuzz.push_back(c);
        }
    }
    for (const std::string &w : mc_workloads) {
        for (const auto &[protocol, predictor] : kProtocols) {
            ModelCheckOptions o;
            o.protocol = protocol;
            o.predictor = predictor;
            o.workload = w;
            o.maxExecutions = kMcExecCap;
            plan.mc.push_back(o);
        }
    }
    return plan;
}

CheckStats
runChecks(const CheckPlan &plan, Tally &t, bool profile)
{
    CheckStats s;
    const double build0 = t.buildSeconds;
    const double run0 = t.runSeconds;
    for (const FuzzCase &c : plan.fuzz) {
        const std::string label = "fuzz " + describeFuzzCase(c);
        const wl::FuzzWorkloadParams params = c.workload;
        std::unique_ptr<ProtocolChecker> checker;
        t.row = std::to_string(c.workload.seed);
        timedRun(
            fuzzConfig(c),
            [params](ThreadContext &ctx) {
                return wl::fuzzProgram(ctx, params);
            },
            profile, t, label,
            [&](CmpSystem &sys) {
                // As runFuzzCase: record violations instead of aborting.
                CheckerOptions copts;
                copts.abortOnViolation = false;
                copts.watchdogTicks = c.maxTicks / 4;
                copts.dataBase = layout::sharedBase;
                checker =
                    std::make_unique<ProtocolChecker>(sys.memSys(), copts);
                sys.syncManager().addListener(checker.get());
            },
            [&](CmpSystem &, RunStatus st) {
                if (st == RunStatus::ok)
                    checker->checkQuiescent();
                if (!checker->violations().empty())
                    t.fail(label + ": " + checker->violations()[0].rule);
                s.fuzzMsgs += checker->messagesChecked();
                // The checker unhooks itself from the live MemSys.
                checker.reset();
            });
    }
    s.fuzzBuildSeconds = t.buildSeconds - build0;
    s.fuzzRunSeconds = t.runSeconds - run0;

    for (const ModelCheckOptions &o : plan.mc) {
        HostReference::get().maybeSample();
        ++t.attempted;
        const auto t0 = Clock::now();
        const ModelCheckResult r = modelCheck(o);
        s.mcSeconds += secondsSince(t0);
        if (r.failed())
            t.fail("model check " + describeModelCheck(o));
        s.mcExecs += r.executions;
        s.statesHashed += r.statesHashed;
        s.statesPruned += r.statesPruned;
        t.mixDigest(fnvMix(
            0, std::to_string(r.executions) + " " +
                   std::to_string(r.choicePoints) + " " +
                   std::to_string(r.statesHashed) + " " +
                   std::to_string(r.statesPruned) + " " +
                   std::to_string(r.branchesReduced) + " " +
                   std::to_string(r.lateDataDrops)));
    }
    return s;
}

void
checkMetrics(const CheckStats &s, Metrics &m)
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["check.fuzz_msgs_per_s"] =
        ratio(static_cast<double>(s.fuzzMsgs), s.fuzzRunSeconds);
    m["check.mc_execs_per_s"] =
        ratio(static_cast<double>(s.mcExecs), s.mcSeconds);
    m["check.mc_pruned_frac"] = ratio(static_cast<double>(s.statesPruned),
                                      static_cast<double>(s.statesHashed));
    m["check.build_frac"] =
        ratio(s.fuzzBuildSeconds,
              s.fuzzBuildSeconds + s.fuzzRunSeconds + s.mcSeconds);
}

} // namespace perfbench
