/**
 * @file
 * perfbench: the repository's same-host benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--tiny] [--work-dir DIR]
 *
 * Untraced (--trace 0): repeats the set-up, then whole passes over
 * the workload until S seconds are used, and prints the end-to-end
 * metrics. Traced (--trace 1): alternates untraced and self-profiled
 * passes, then runs the isolated layer replays, and prints the
 * per-layer metrics. Either way the last stdout line is
 * "RESULT {json}" with raw metric values; perfbench/run.py attaches
 * units and checks the metric names.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"

using namespace perfbench;

namespace {

/** Set-up repetitions; setup_s is their median. */
constexpr unsigned kSetupReps = 5;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper16|wide64|ablate16_reuse|"
                 "check16 --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--work-dir DIR]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.workDir = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = next();
            else if (a == "--seed")
                o.seed = std::stoull(next());
            else if (a == "--seconds")
                o.seconds = std::stod(next());
            else if (a == "--trace")
                o.trace = std::stoi(next()) != 0;
            else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--work-dir")
                o.workDir = next();
            else
                usage(argv[0]);
        } catch (const std::logic_error &) {
            usage(argv[0]);
        }
    }
    if (o.workload.empty() || !(o.seconds > 0))
        usage(argv[0]);
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return ratio(static_cast<double>(a), static_cast<double>(b));
}

/** Exact work counters of one pass, for equality between runs. */
std::string
exactCounters(const Tally &t)
{
    const std::pair<const char *, std::uint64_t> fields[] = {
        {"accesses", t.accesses},
        {"l1_hits", t.l1Hits},
        {"l2_hits", t.l2Hits},
        {"misses", t.misses},
        {"events", t.events},
        {"packets", t.packets},
        {"router_traversals", t.routerTraversals},
        {"snoop_lookups", t.snoops},
        {"sync_points", t.syncPoints},
        {"lock_acquisitions", t.lockAcquisitions},
        {"lock_contended", t.lockContended},
        {"pred_misses", t.predMisses},
        {"pred_table_accesses", t.predTableAccesses},
        {"pred_attempted", t.predAttempted},
        {"pred_sufficient", t.predSufficient},
        {"run_allocs", t.runAllocs},
    };
    std::string s = "{";
    for (const auto &[name, v] : fields)
        s += std::string(s.size() > 1 ? ", " : "") + "\"" + name +
            "\": " + std::to_string(v);
    return s + "}";
}

/**
 * Time @p fn with the host reference sampled before, during (from
 * the timed calls) and after it. Returns the host seconds spent in
 * @p fn itself and sets @p factor to the interval's speed factor.
 */
template <typename Fn>
double
referenced(Fn &&fn, double &factor)
{
    HostReference &ref = HostReference::get();
    ref.reset();
    ref.sample();
    const double spent0 = ref.spentSeconds();
    const auto t0 = Clock::now();
    fn();
    const double s = secondsSince(t0) - (ref.spentSeconds() - spent0);
    ref.sample();
    factor = ref.factor();
    return s;
}

struct Pass
{
    double wall = 0;     ///< Host seconds, reference samples excluded.
    double factor = 1;   ///< Host speed factor over the pass.
    Tally t;

    /** Pass time at the reference's nominal host speed. */
    double norm() const { return wall / factor; }
};

Pass
runPass(Workload &w, bool profile)
{
    Pass p;
    p.wall = referenced([&] { w.pass(p.t, profile); }, p.factor);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    spp::setQuiet(true);
    const auto start = Clock::now();

    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 1)
        load[0] = -1;
    std::printf("host: {\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"loadavg_1m\": %.2f}\n",
                sysconf(_SC_NPROCESSORS_ONLN), jsonString(cpuModel()).c_str(),
                jsonString(__VERSION__).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(), load[0]);
    std::printf("run: workload %s, seed %llu, seconds %g, trace %d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.tiny ? ", tiny" : "");

    std::unique_ptr<Workload> w = makeWorkload(o);
    if (!w)
        usage(argv[0]);
    std::filesystem::create_directories(o.workDir);

    std::vector<double> setups;
    for (unsigned i = 0; i < kSetupReps; ++i) {
        double factor = 1;
        const double s = referenced([&] { w->setup(); }, factor);
        setups.push_back(s / factor);
    }
    const double setup_s = quantile(setups, 0.5);

    // Untraced passes (and, in trace mode, self-profiled ones
    // alternating with them) until the time budget is spent. A pass
    // is only started if it is expected to end within the budget.
    // An untraced run makes at least two passes, so the statistics
    // can be compared across reps; a traced run compares its traced
    // passes with the untraced ones instead.
    const double budget = o.trace ? o.seconds / 2 : o.seconds;
    const std::size_t min_passes = o.trace ? 1 : 2;
    std::vector<Pass> plain, traced;
    const auto t_measure = Clock::now();
    while (true) {
        plain.push_back(runPass(*w, false));
        if (o.trace)
            traced.push_back(runPass(*w, true));
        const double used = secondsSince(t_measure);
        const double per = used / static_cast<double>(plain.size());
        if (plain.size() >= min_passes && used + per > budget)
            break;
    }

    // Output checks over the passes.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto collect = [&](const Tally &t) {
        attempted += t.attempted;
        failed += t.failed;
        failures.insert(failures.end(), t.failures.begin(),
                        t.failures.end());
    };
    for (const std::vector<Pass> *set : {&plain, &traced}) {
        for (const Pass &p : *set) {
            collect(p.t);
            if (p.t.cellDigests != plain[0].t.cellDigests) {
                ++failed;
                failures.push_back(set == &plain
                                       ? "statistics differ across reps"
                                       : "traced pass differs from untraced");
            }
        }
    }
    const Tally &exact = plain.back().t;

    Metrics m;
    if (!o.trace) {
        std::vector<double> walls, raw_walls, factors;
        std::map<std::string, std::vector<double>> row_ns;
        double run_s = 0;
        std::uint64_t accesses = 0;
        for (const Pass &p : plain) {
            walls.push_back(p.norm());
            raw_walls.push_back(p.wall);
            factors.push_back(p.factor);
            for (const auto &[row, v] : p.t.rows)
                if (v.second > 0)
                    row_ns[row].push_back(v.first * 1e9 /
                                          static_cast<double>(v.second));
            run_s += p.t.normRunSeconds;
            accesses += p.t.accesses;
        }
        // One sample per row: its median over the passes, so a burst
        // of host noise in one pass does not move the percentiles.
        std::vector<double> ns;
        for (const auto &[row, v] : row_ns)
            ns.push_back(quantile(v, 0.5));
        m["setup_s"] = setup_s;
        m["wall_s"] = quantile(walls, 0.5);
        m["accesses_per_s"] = ratio(static_cast<double>(accesses), run_s);
        std::printf("host speed factor: median %.3f (min %.3f, max %.3f); "
                    "raw median wall %.3f s\n",
                    quantile(factors, 0.5), quantile(factors, 0),
                    quantile(factors, 1), quantile(raw_walls, 0.5));
        m["host_ns_per_access.p50"] = quantile(ns, 0.5);
        m["host_ns_per_access.p90"] = quantile(ns, 0.9);
        m["peak_rss_mb"] = peakRssMb();
        for (const auto &[k, v] : w->modelled())
            m[k] = v;
        std::printf("passes: %zu, ns/access samples (rows): %zu\n",
                    plain.size(), ns.size());
    } else {
        Tally checks;
        w->probe(m, checks);
        collect(checks);

        std::vector<double> walls_u, walls_t, build_ms, build_mb;
        Tally prof;
        for (const Pass &p : plain) {
            walls_u.push_back(p.norm());
            build_ms.insert(build_ms.end(), p.t.buildMs.begin(),
                            p.t.buildMs.end());
            build_mb.insert(build_mb.end(), p.t.buildMb.begin(),
                            p.t.buildMb.end());
        }
        for (const Pass &p : traced) {
            walls_t.push_back(p.norm());
            prof.events += p.t.events;
            prof.kernelNs += p.t.kernelNs;
            prof.protocolNs += p.t.protocolNs;
            prof.protocolCalls += p.t.protocolCalls;
            prof.predictorNs += p.t.predictorNs;
            prof.predictorCalls += p.t.predictorCalls;
            prof.nocNs += p.t.nocNs;
            prof.nocCalls += p.t.nocCalls;
        }
        const Tally &e = exact;
        m["event.events_per_access"] = ratio(e.events, e.accesses);
        m["event.loop_ns_per_event"] = ratio(prof.kernelNs, prof.events);
        m["sim.build_ms"] = quantile(build_ms, 0.5);
        m["sim.rss_mb_per_system"] = quantile(build_mb, 0.5);
        m["mem.l1_hit_frac"] = ratio(e.l1Hits, e.accesses);
        m["mem.l2_hit_frac"] = ratio(e.l2Hits, e.accesses - e.l1Hits);
        m["coherence.handler_ns_per_msg"] =
            ratio(prof.protocolNs, prof.protocolCalls);
        m["coherence.msgs_per_miss"] = ratio(e.packets, e.misses);
        m["coherence.allocs_per_miss"] = ratio(e.runAllocs, e.misses);
        m["coherence.miss_latency_cycles"] =
            ratio(e.missLatencySum, static_cast<double>(e.missLatencyCount));
        m["noc.inject_ns_per_packet"] = ratio(prof.nocNs, prof.nocCalls);
        m["noc.hops_per_packet"] =
            ratio(e.routerTraversals - e.packets, e.packets);
        m["noc.snoops_per_miss"] = ratio(e.snoops, e.misses);
        m["noc.packet_latency_cycles"] = ratio(
            e.packetLatencySum, static_cast<double>(e.packetLatencyCount));
        m["predict.ns_per_call"] =
            ratio(prof.predictorNs, prof.predictorCalls);
        m["predict.table_accesses_per_miss"] =
            ratio(e.predTableAccesses, e.predMisses);
        m["predict.sufficient_frac"] =
            ratio(e.predSufficient, e.predAttempted);
        m["sync.points_per_kaccess"] = ratio(e.syncPoints * 1000, e.accesses);
        m["sync.contended_lock_frac"] =
            ratio(e.lockContended, e.lockAcquisitions);
        m["host.allocs_per_access"] = ratio(e.runAllocs, e.accesses);
        m["trace_overhead_frac"] =
            quantile(walls_t, 0.5) / quantile(walls_u, 0.5) - 1.0;
        std::printf("passes: %zu untraced, %zu traced\n", plain.size(),
                    traced.size());
    }

    std::printf("statistics digest: %016llx\n",
                static_cast<unsigned long long>(plain[0].t.digest));
    const std::string counters = exactCounters(exact);
    std::printf("exact counters: %s\n", counters.c_str());
    std::printf("exact counters digest: %016llx\n",
                static_cast<unsigned long long>(fnvMix(0, counters)));
    std::printf("checks: %llu attempted, %llu failed (failed_frac %g)\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                ratio(failed, attempted));
    for (const std::string &f : failures)
        std::printf("  FAILED %s\n", f.c_str());
    std::printf("elapsed: %.3f s\n", secondsSince(start));
    std::filesystem::remove_all(o.workDir);

    std::string metrics;
    for (const auto &[k, v] : m)
        metrics += (metrics.empty() ? "" : ", ") + jsonString(k) + ": " +
            num(v);
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}
