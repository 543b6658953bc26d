/**
 * @file
 * Batch experiment server frontend (sweep-as-a-service).
 *
 * Runs a SweepServer (src/service/server.hh) over stdin/stdout by
 * default, or over a unix-domain socket with --socket PATH: clients
 * connect, write newline-delimited JSON requests and read streamed
 * per-cell result events; connections are served one at a time, in
 * order, and a shutdown op from any client stops the listener.
 *
 *   echo '{"op":"sweep","id":"q1","scale":0.1,
 *          "cells":[{"workload":"ocean"}]}' | sweep_server
 *
 * All the shared bench flags apply: --result-store DIR gives every
 * request the content-addressed result cache (warm cells answer
 * without simulating), --jobs N sizes the worker pool, --cores /
 * --mesh / --format / --set shape the base config that request
 * "set" objects specialize. --triage order|skip turns on the
 * analytical triage hook (service/triage.hh), fed from --trace-dir.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <streambuf>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_common.hh"
#include "service/server.hh"

using namespace spp;
using namespace spp::bench;

namespace {

/** Minimal read/write streambuf over a connected socket fd. */
class FdStreamBuf : public std::streambuf
{
  public:
    explicit FdStreamBuf(int fd) : fd_(fd)
    {
        setg(buf_, buf_, buf_);
    }

  protected:
    int_type
    underflow() override
    {
        const ssize_t n = ::read(fd_, buf_, sizeof(buf_));
        if (n <= 0)
            return traits_type::eof();
        setg(buf_, buf_, buf_ + n);
        return traits_type::to_int_type(buf_[0]);
    }

    int_type
    overflow(int_type ch) override
    {
        if (ch == traits_type::eof())
            return ch;
        const char c = traits_type::to_char_type(ch);
        return ::write(fd_, &c, 1) == 1 ? ch : traits_type::eof();
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        std::streamsize done = 0;
        while (done < n) {
            const ssize_t w = ::write(
                fd_, s + done, static_cast<std::size_t>(n - done));
            if (w <= 0)
                break;
            done += w;
        }
        return done;
    }

  private:
    int fd_;
    char buf_[4096];
};

int
serveSocket(SweepServer &server, const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        SPP_FATAL("--socket path is too long ({} bytes max)",
                  sizeof(addr.sun_path) - 1);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0)
        SPP_FATAL("socket(AF_UNIX) failed");
    ::unlink(path.c_str());
    if (::bind(lfd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(lfd, 8) != 0) {
        ::close(lfd);
        SPP_FATAL("cannot listen on '{}'", path);
    }
    std::fprintf(stderr, "sweep_server: listening on %s\n",
                 path.c_str());
    while (!server.shutdownRequested()) {
        const int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd < 0)
            break;
        FdStreamBuf in_buf(cfd);
        FdStreamBuf out_buf(cfd);
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        server.serve(in, out);
        ::close(cfd);
    }
    ::close(lfd);
    ::unlink(path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    g_telemetry = TelemetryOptions::fromEnv();
    g_attribution = AttributionOptions::fromEnv();
    g_trace = TraceOptions::fromEnv();
    g_result_store = ResultStoreOptions::fromEnv();
    g_settings.clear();

    std::string socket_path;
    std::string triage = "off";
    double threshold = 0.25;
    double scale = 0.0;

    FlagSet fs("Batch experiment server: newline-delimited JSON "
               "requests in, streamed per-cell results out "
               "(protocol: src/service/server.hh)",
               benchEnvNote());
    addBenchFlags(fs);
    fs.onValue("--socket", "PATH",
               "listen on a unix socket instead of stdin/stdout",
               [&](const std::string &v) { socket_path = v; });
    fs.onValue("--triage", "MODE",
               "off|order|skip: analytical cell triage from the "
               "trace store",
               [&](const std::string &v) { triage = v; });
    fs.onValue("--triage-threshold", "X",
               "skip mode drops trace-backed cells scoring below X "
               "(default 0.25)",
               [&](const std::string &v) {
                   threshold =
                       parsePositiveDouble("--triage-threshold",
                                           v.c_str());
               });
    fs.onValue("--scale", "S",
               "default workload scale for requests without one "
               "(default SPP_BENCH_SCALE)",
               [&](const std::string &v) {
                   scale = parsePositiveDouble("--scale", v.c_str());
               });
    fs.parse(argc, argv);
    finishBenchInit();

    ServerOptions so;
    so.resultStore = g_result_store;
    so.traceDir = g_trace.dir;
    so.jobs = g_jobs;
    applyGeometry(so.baseConfig);
    so.defaultScale = scale > 0.0 ? scale : defaultBenchScale();
    if (triage == "off")
        so.triage = TriageMode::off;
    else if (triage == "order")
        so.triage = TriageMode::order;
    else if (triage == "skip")
        so.triage = TriageMode::skip;
    else
        SPP_FATAL("--triage expects off|order|skip, got '{}'",
                  triage);
    so.triageThreshold = threshold;

    SweepServer server(so);
    QuietScope quiet;
    if (socket_path.empty()) {
        server.serve(std::cin, std::cout);
        return 0;
    }
    return serveSocket(server, socket_path);
}
