/**
 * @file
 * The four workloads. README.md says why each exists and which layer
 * it stresses; the sizes below are chosen so one pass takes a few
 * host-seconds on a 4-vCPU VM.
 */

#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "bench.hh"
#include "common/content_store.hh"
#include "probes.hh"
#include "service/result_store.hh"
#include "trace/codec.hh"
#include "trace/replay.hh"
#include "trace/store.hh"
#include "workload/fuzz.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace spp;

namespace {

/** One protocol/predictor setting of a grid column. */
struct Setting
{
    Protocol protocol;
    PredictorKind predictor;
    double hotThreshold = 0.10;
    unsigned historyDepth = 2;
};

const Setting kDirectory{Protocol::directory, PredictorKind::none};
const Setting kBroadcast{Protocol::broadcast, PredictorKind::none};
const Setting kSp{Protocol::predicted, PredictorKind::sp};
const Setting kMulticast{Protocol::multicast, PredictorKind::sp};

bool
isDefaultSp(const Config &c)
{
    return c.protocol == Protocol::predicted &&
        c.predictor == PredictorKind::sp && c.hotThreshold == 0.10 &&
        c.historyDepth == 2;
}

Config
configFor(const Setting &s, unsigned cores, std::uint64_t seed)
{
    Config cfg;
    cfg.numCores = cores;
    cfg.meshX = cores == 64 ? 8 : 4;
    cfg.meshY = cores / cfg.meshX;
    cfg.protocol = s.protocol;
    cfg.predictor = s.predictor;
    cfg.hotThreshold = s.hotThreshold;
    cfg.historyDepth = s.historyDepth;
    cfg.seed = seed;
    cfg.validate();
    return cfg;
}

std::string
labelOf(const std::string &app, const Config &c)
{
    std::string s = app + "/" + toString(c.protocol);
    if (c.predictor != PredictorKind::none)
        s += std::string("+") + toString(c.predictor);
    if (c.predictor == PredictorKind::sp && !isDefaultSp(c) &&
        c.protocol == Protocol::predicted)
        s += "(t=" + std::to_string(c.hotThreshold).substr(0, 4) +
            ",d=" + std::to_string(c.historyDepth) + ")";
    return s;
}

/** Untimed construction of each distinct configuration: validates
 * the grid and leaves the allocator in its steady state. */
void
warmBuild(const std::vector<Config> &cfgs)
{
    std::set<std::string> seen;
    for (const Config &c : cfgs) {
        const std::string key = std::to_string(c.numCores) +
            toString(c.protocol) + toString(c.predictor);
        if (seen.insert(key).second)
            CmpSystem warm(c);
    }
}

/** Untimed warm-up runs, so the first timed pass finds code and data
 * caches as later passes do. Their results are discarded. */
void
warmUp(const std::vector<Sample> &samples)
{
    Tally discard;
    for (const Sample &s : samples)
        timedRun(s.cfg, s.live, false, discard, "warm-up");
}

/**
 * Fig. 7/9/10 reductions over (directory, predicted+sp) pairs:
 * geomean of the tick ratio, mean accuracy over communicating misses,
 * mean NoC byte ratio.
 */
Metrics
spMetrics(const std::vector<std::pair<RunResult, RunResult>> &pairs)
{
    double log_exec = 0, acc = 0, bytes = 0;
    for (const auto &[dir, sp] : pairs) {
        log_exec += std::log(static_cast<double>(sp.ticks) /
                             static_cast<double>(dir.ticks));
        const auto comm = sp.mem.communicatingMisses.value();
        acc += comm ? static_cast<double>(
                          sp.mem.predictionsSufficient.value()) /
                static_cast<double>(comm)
                    : 0.0;
        bytes += static_cast<double>(sp.noc.flitBytes.value()) /
            static_cast<double>(dir.noc.flitBytes.value());
    }
    const auto n = static_cast<double>(pairs.size());
    if (pairs.empty())
        return {};
    return {{"sp_exec_norm", std::exp(log_exec / n)},
            {"sp_accuracy", acc / n},
            {"sp_bytes_norm", bytes / n}};
}

/** A small checker batch for workloads that do not run one. */
void
checkProbe(std::uint64_t seed, Metrics &m, Tally &checks)
{
    Tally t;
    const CheckStats s =
        runChecks(checkPlan(seed, 2, 16, {"conflict"}), t, false);
    checkMetrics(s, m);
    checks.attempted += t.attempted;
    for (const std::string &f : t.failures)
        checks.fail(f);
}

struct GridCell
{
    std::string label;
    Sample sample;
    RunResult last;
};

/** paper16 and wide64: live generators over a protocol grid. */
class GridWorkload : public Workload
{
  public:
    GridWorkload(const Options &o, std::vector<std::string> apps,
                 std::vector<Setting> settings, unsigned cores,
                 double scale, std::set<std::string> skip_broadcast,
                 std::string sample_app, std::string warm_app)
        : o_(o), apps_(std::move(apps)), settings_(std::move(settings)),
          cores_(cores), scale_(scale),
          skip_broadcast_(std::move(skip_broadcast)),
          sample_app_(std::move(sample_app)), warm_app_(std::move(warm_app))
    {}

    void
    setup() override
    {
        cells_.clear();
        std::vector<Config> cfgs;
        for (const std::string &app : apps_) {
            for (const Setting &s : settings_) {
                if (s.protocol == Protocol::broadcast &&
                    skip_broadcast_.count(app))
                    continue;
                const Config cfg = configFor(s, cores_, o_.seed);
                cells_.push_back({labelOf(app, cfg),
                                  registrySample(app, cfg, scale_), {}});
                cfgs.push_back(cfg);
            }
        }
        warmBuild(cfgs);
        std::vector<Sample> warm;
        for (const GridCell &c : cells_)
            if (c.sample.workload == warm_app_ &&
                c.sample.cfg.protocol != Protocol::broadcast)
                warm.push_back(c.sample);
        warmUp(warm);
    }

    void
    pass(Tally &t, bool profile) override
    {
        for (GridCell &c : cells_) {
            t.row = c.sample.workload;
            timedRun(c.sample.cfg, c.sample.live, profile, t, c.label, {},
                     {}, &c.last);
        }
    }

    void
    probe(Metrics &m, Tally &checks) override
    {
        std::vector<Sample> samples;
        for (const GridCell &c : cells_)
            if (c.sample.workload == sample_app_ &&
                c.sample.cfg.protocol != Protocol::broadcast)
                samples.push_back(c.sample);
        probeSamples(samples, o_.workDir, m, checks);
        checkProbe(o_.seed, m, checks);
    }

    Metrics
    modelled() const override
    {
        std::vector<std::pair<RunResult, RunResult>> pairs;
        for (const GridCell &d : cells_) {
            if (d.sample.cfg.protocol != Protocol::directory)
                continue;
            for (const GridCell &p : cells_)
                if (p.sample.workload == d.sample.workload &&
                    isDefaultSp(p.sample.cfg))
                    pairs.emplace_back(d.last, p.last);
        }
        return spMetrics(pairs);
    }

  private:
    Options o_;
    std::vector<std::string> apps_;
    std::vector<Setting> settings_;
    unsigned cores_;
    double scale_;
    std::set<std::string> skip_broadcast_;
    std::string sample_app_;   ///< Its non-broadcast cells are probed.
    std::string warm_app_;     ///< Its non-broadcast cells warm up.
    std::vector<GridCell> cells_;
};

/**
 * ablate16_reuse: record .spptrace files once per app (setup), then
 * each pass decodes them, replays every SP setting into a cold result
 * store and re-serves the grid warm. No generator coroutine runs in a
 * pass.
 */
class ReuseWorkload : public Workload
{
  public:
    ReuseWorkload(const Options &o, std::vector<std::string> apps,
                  double scale)
        : o_(o), apps_(std::move(apps)), scale_(scale),
          trace_dir_(o.workDir + "/traces"),
          store_dir_(o.workDir + "/results")
    {
        settings_ = {kDirectory, kSp};
        for (const double th : {0.05, 0.20})
            settings_.push_back(
                {Protocol::predicted, PredictorKind::sp, th, 2});
        for (const unsigned d : {1u, 4u})
            settings_.push_back(
                {Protocol::predicted, PredictorKind::sp, 0.10, d});
    }

    void
    setup() override
    {
        std::filesystem::remove_all(trace_dir_);
        apps_state_.clear();
        std::vector<Config> cfgs;
        for (const Setting &s : settings_)
            cfgs.push_back(configFor(s, 16, o_.seed));
        warmBuild(cfgs);
        for (const std::string &app : apps_) {
            AppState st;
            st.app = app;
            // The trace is recorded from the live directory cell; that
            // run is the live twin of the directory replay.
            const Sample live = registrySample(app, cfgs[0], scale_);
            CmpSystem sys(live.cfg);
            TraceRecorder rec(live.cfg.numCores);
            sys.setTraceSink(&rec);
            RunResult r;
            if (sys.tryRun(live.live, r) != RunStatus::ok)
                throw std::runtime_error(app + ": recording run failed");
            st.liveDigest = runDigest(r);
            rec.data.meta = traceMetaFor(app, live.cfg, scale_);
            st.ops = rec.data.totalOps();
            const auto t0 = Clock::now();
            const std::vector<std::uint8_t> bytes = encodeTrace(rec.data);
            encode_s_ += secondsSince(t0);
            encode_mb_ += static_cast<double>(bytes.size()) / 1e6;
            st.bytes = bytes.size();
            st.path = tracePath(trace_dir_, app, rec.data.meta.keyHash);
            std::string err;
            if (!writeFileBytesAtomic(st.path, bytes, err))
                throw std::runtime_error(st.path + ": " + err);
            apps_state_.push_back(std::move(st));
        }
    }

    void
    pass(Tally &t, bool profile) override
    {
        std::filesystem::remove_all(store_dir_);
        cold_.clear();
        struct Cell
        {
            std::string label, key, path;
            ExperimentResult res;
        };
        std::vector<Cell> cells;
        for (AppState &st : apps_state_) {
            std::vector<std::uint8_t> bytes;
            std::string err;
            auto data = std::make_shared<TraceData>();
            const auto t0 = Clock::now();
            const bool ok = readFileBytes(st.path, bytes, err) &&
                decodeTrace(bytes, *data, err);
            decode_s_ += secondsSince(t0);
            decode_mb_ += static_cast<double>(bytes.size()) / 1e6;
            if (!ok) {
                t.fail(st.path + ": " + err);
                continue;
            }
            const CmpSystem::ThreadFn fn = replayThreadFn(data);
            t.row = st.app;
            for (const Setting &s : settings_) {
                const Config cfg = configFor(s, 16, o_.seed);
                Cell c;
                c.label = labelOf(st.app, cfg) + "/replay";
                if (const std::string e = traceReplayError(*data, cfg);
                    !e.empty()) {
                    t.fail(c.label + ": " + e);
                    continue;
                }
                const ContentKey key =
                    resultKey(st.app, cfg, scale_, false, false, "perfbench");
                c.key = key.describe();
                c.path = resultPath(store_dir_, st.app, key.hash());
                ++lookups_;
                if (loadCachedResult(c.path, c.key, c.res)) {
                    ++hits_;
                    t.fail(c.label + ": cold store served an entry");
                }
                const std::uint64_t d = timedRun(cfg, fn, profile, t,
                                                 c.label, {}, {}, &c.res.run);
                if (cfg.protocol == Protocol::directory &&
                    d != st.liveDigest)
                    t.fail(c.label + ": replay differs from its live twin");
                const auto p0 = Clock::now();
                storeResult(c.path, c.key, c.res);
                put_ms_.push_back(secondsSince(p0) * 1e3);
                cold_.push_back({st.app, cfg, c.res.run});
                cells.push_back(std::move(c));
            }
        }
        for (const Cell &c : cells) {
            ExperimentResult warm;
            ++lookups_;
            const auto g0 = Clock::now();
            const bool hit = loadCachedResult(c.path, c.key, warm);
            get_ms_.push_back(secondsSince(g0) * 1e3);
            hits_ += hit ? 1 : 0;
            if (!hit || resultJson(warm.run) != resultJson(c.res.run))
                t.fail(c.label + ": warm entry differs from cold");
        }
    }

    void
    probe(Metrics &m, Tally &checks) override
    {
        // Live twins of the directory and default-SP replays.
        std::vector<Sample> samples;
        for (const std::string &app : apps_)
            for (const Setting &s : {kDirectory, kSp})
                samples.push_back(
                    registrySample(app, configFor(s, 16, o_.seed), scale_));
        probeSamples(samples, o_.workDir, m, checks);
        checkProbe(o_.seed, m, checks);

        // The store and codec figures come from the passes themselves.
        std::uint64_t bytes = 0, ops = 0;
        for (const AppState &st : apps_state_) {
            bytes += st.bytes;
            ops += st.ops;
        }
        m["trace.encode_mb_per_s"] = encode_mb_ / encode_s_;
        m["trace.decode_mb_per_s"] = decode_mb_ / decode_s_;
        m["trace.bytes_per_op"] =
            static_cast<double>(bytes) / static_cast<double>(ops);
        m["service.put_ms"] = quantile(put_ms_, 0.5);
        m["service.get_ms"] = quantile(get_ms_, 0.5);
        m["service.hit_frac"] =
            static_cast<double>(hits_) / static_cast<double>(lookups_);
    }

    Metrics
    modelled() const override
    {
        std::vector<std::pair<RunResult, RunResult>> pairs;
        for (const ColdResult &d : cold_) {
            if (d.cfg.protocol != Protocol::directory)
                continue;
            for (const ColdResult &p : cold_)
                if (p.app == d.app && isDefaultSp(p.cfg))
                    pairs.emplace_back(d.run, p.run);
        }
        return spMetrics(pairs);
    }

  private:
    struct AppState
    {
        std::string app, path;
        std::uint64_t liveDigest = 0, bytes = 0, ops = 0;
    };
    struct ColdResult
    {
        std::string app;
        Config cfg;
        RunResult run;
    };

    Options o_;
    std::vector<std::string> apps_;
    double scale_;
    std::string trace_dir_, store_dir_;
    std::vector<Setting> settings_;
    std::vector<AppState> apps_state_;
    std::vector<ColdResult> cold_;
    double encode_s_ = 0, encode_mb_ = 0, decode_s_ = 0, decode_mb_ = 0;
    std::vector<double> put_ms_, get_ms_;
    std::uint64_t hits_ = 0, lookups_ = 0;
};

/**
 * check16: fuzz cases under the checker plus model checking. Its
 * sp_* figures come from a reference pair of paper cells run in the
 * set-up: the fuzz programs' own SP figures are not paper figures,
 * and they move 15-30% between seeds.
 */
class CheckWorkload : public Workload
{
  public:
    CheckWorkload(const Options &o, unsigned n_seeds,
                  std::vector<std::string> mc_workloads)
        : o_(o), n_seeds_(n_seeds), mc_workloads_(std::move(mc_workloads))
    {}

    void
    setup() override
    {
        plan_ = checkPlan(o_.seed, n_seeds_, 16, mc_workloads_);
        std::vector<Config> cfgs;
        for (const FuzzCase &c : plan_.fuzz) {
            cfgs.push_back(fuzzConfig(c));
            cfgs.back().validate();
        }
        warmBuild(cfgs);
        CheckPlan warm;
        warm.fuzz.assign(plan_.fuzz.begin(), plan_.fuzz.begin() + 4);
        Tally discard;
        runChecks(warm, discard, false);

        reference_.clear();
        for (const Setting &s : {kDirectory, kSp}) {
            const Sample ref = registrySample(
                "radiosity", configFor(s, 16, o_.seed), kReferenceScale);
            RunResult r;
            timedRun(ref.cfg, ref.live, false, discard, "reference", {}, {},
                     &r);
            reference_.push_back(r);
        }
        if (discard.failed != 0)
            throw std::runtime_error("check16 set-up: " +
                                     discard.failures[0]);
    }

    void
    pass(Tally &t, bool profile) override
    {
        const CheckStats s = runChecks(plan_, t, profile);
        if (!profile)
            untraced_.merge(s);
    }

    void
    probe(Metrics &m, Tally &checks) override
    {
        std::vector<Sample> samples;
        for (std::size_t i = 0; i < plan_.fuzz.size() && i < 8; ++i) {
            const FuzzCase &c = plan_.fuzz[i];
            const wl::FuzzWorkloadParams params = c.workload;
            samples.push_back({"fuzz", fuzzConfig(c), 1.0,
                               [params](ThreadContext &ctx) {
                                   return wl::fuzzProgram(ctx, params);
                               }});
        }
        probeSamples(samples, o_.workDir, m, checks);
        checkMetrics(untraced_, m);
    }

    Metrics
    modelled() const override
    {
        return spMetrics({{reference_[0], reference_[1]}});
    }

  private:
    static constexpr double kReferenceScale = 0.1;

    Options o_;
    unsigned n_seeds_;
    std::vector<std::string> mc_workloads_;
    CheckPlan plan_;
    std::vector<RunResult> reference_;  ///< radiosity: directory, sp.
    CheckStats untraced_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    const std::vector<std::string> all = [] {
        std::vector<std::string> v;
        for (const WorkloadSpec &s : workloadRegistry())
            v.push_back(s.name);
        return v;
    }();
    if (o.workload == "paper16") {
        const auto apps = o.tiny
            ? std::vector<std::string>{"radiosity", "x264"}
            : all;
        return std::make_unique<GridWorkload>(
            o, apps,
            std::vector<Setting>{kDirectory, kBroadcast, kSp, kMulticast},
            16, o.tiny ? 0.02 : 0.1, std::set<std::string>{},
            "radiosity", "x264");
    }
    if (o.workload == "wide64") {
        // fft and ocean broadcast cells alone cost 9 s and 2 s per pass
        // at their smallest size; they would crowd out every other
        // cell, so wide64 runs broadcast on the two cheaper apps only.
        const auto apps = o.tiny
            ? std::vector<std::string>{"streamcluster"}
            : std::vector<std::string>{"ocean", "fft", "streamcluster",
                                       "radiosity"};
        return std::make_unique<GridWorkload>(
            o, apps, std::vector<Setting>{kDirectory, kBroadcast, kSp}, 64,
            0.02, std::set<std::string>{"ocean", "fft"},
            "streamcluster", "streamcluster");
    }
    if (o.workload == "ablate16_reuse")
        return std::make_unique<ReuseWorkload>(
            o,
            o.tiny ? std::vector<std::string>{"radiosity"}
                   : std::vector<std::string>{"radiosity", "ocean", "fft",
                                              "streamcluster"},
            o.tiny ? 0.02 : 0.1);
    if (o.workload == "check16")
        return std::make_unique<CheckWorkload>(
            o, o.tiny ? 1 : 24,
            o.tiny ? std::vector<std::string>{"conflict"}
                   : std::vector<std::string>{"conflict", "writeback",
                                              "pingpong", "race",
                                              "wbrace"});
    return nullptr;
}

} // namespace perfbench
