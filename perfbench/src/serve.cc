#include "serve.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "service/batch_scheduler.hh"
#include "service/daemon/client.hh"
#include "service/results_store.hh"
#include "sim/random.hh"
#include "spans.hh"
#include "stats.hh"

extern char **environ;

namespace perfbench {

using namespace qtenon;
namespace qd = qtenon::service::daemon;

namespace {

struct Shape {
    const char *algorithm;
    std::uint32_t qubits;
};
constexpr Shape shapes[] = {
    {"qaoa", 6}, {"qaoa", 8}, {"vqe", 6}, {"vqe", 7}, {"vqe", 8}};
constexpr std::uint32_t numShapes = sizeof(shapes) / sizeof(shapes[0]);

qd::JobRequest
request(std::uint64_t seed, std::uint32_t shape)
{
    qd::JobRequest r;
    r.name = "serve-mix";
    r.algorithm = shapes[shape].algorithm;
    r.qubits = shapes[shape].qubits;
    r.shots = 200;
    r.iterations = 1;
    r.seed = seed;
    return r;
}

} // namespace

Schedule
makeSchedule(std::uint64_t seed, const std::vector<double> &rates,
             const std::vector<std::size_t> &counts)
{
    Schedule s;
    s.rates = rates;
    sim::Rng rng(seed);
    // Schedule time and pool index of every fresh request, in order.
    std::vector<std::pair<double, std::uint32_t>> fresh;
    std::size_t eligible = 0;
    double base = 0.0;
    for (std::uint32_t seg = 0; seg < rates.size(); ++seg) {
        const double dt = 1.0 / rates[seg];
        for (std::size_t k = 0; k < counts[seg]; ++k) {
            Planned p;
            p.atS = static_cast<double>(k) * dt;
            p.segment = seg;
            const double abs = base + p.atS;
            while (eligible < fresh.size() &&
                   fresh[eligible].first <= abs - repeatMinAgeS)
                ++eligible;
            if (eligible > 0 && rng.uniform() < repeatShare) {
                p.req = fresh[rng.index(eligible)].second;
                p.repeat = true;
            } else {
                // Request j depends only on (seed, j), so schedules of
                // one seed share their pool prefix.
                const std::uint64_t j = s.pool.size();
                p.req = static_cast<std::uint32_t>(j);
                s.pool.push_back(request(
                    service::deriveJobSeed(seed, j),
                    static_cast<std::uint32_t>(
                        service::deriveJobSeed(~seed, j) % numShapes)));
                fresh.emplace_back(abs, p.req);
            }
            s.sends.push_back(p);
        }
        base += static_cast<double>(counts[seg]) * dt;
    }
    return s;
}

namespace {

constexpr double latencyLimitMs = 50.0;
/**
 * The rate ladder for max_rate_rps: the fixed rate, at which p50/p99
 * are reported, then six bursts far past saturation. At about
 * 3.5 ms per computed request on two workers the fixed rate keeps the
 * workers under a third busy, so it meets the limit even while the
 * host runs at half speed, and the highest rate that meets the limit
 * does not flip between runs. A burst's drain time is compute-bound:
 * wall_s is its median over the bursts.
 */
const std::vector<double> ladder = {300.0,  3000.0, 3000.0, 3000.0,
                                    3000.0, 3000.0, 3000.0};
const std::vector<std::size_t> ladderCounts = {3000, 1000, 1000, 1000,
                                               1000, 1000, 1000};
constexpr double fixedRate = 300.0;
constexpr double burstRate = 3000.0;
constexpr std::size_t fixedCount = 3000;
/** Sends per latency window (p99 with ten samples beyond it). */
constexpr std::size_t windowRequests = 1000;
/** Run length the counts above are sized for. */
constexpr double countSeconds = 25.0;
/** Latency charged to a request that failed or never came back. */
constexpr double failedLatencyMs = 1e6;

/** A qtenond child process; stopped (or killed) on destruction. */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &bin, const std::string &socket,
                  const std::string &metrics_json,
                  const std::string &log_path)
    {
        std::vector<std::string> args = {
            bin, "--socket", socket, "--jobs", "2",
            // Admission never refuses at the ladder's rates: every
            // request is either served or a benchmark failure.
            "--queue-depth", "4096", "--quota", "4096",
            "--cache", "16384"};
        if (!metrics_json.empty()) {
            args.push_back("--metrics-json");
            args.push_back(metrics_json);
        }
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        const int rc = posix_spawn(&_pid, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            _pid = -1;
            throw std::runtime_error("cannot start " + bin + ": " +
                                     std::strerror(rc));
        }
    }

    ~DaemonProcess()
    {
        if (_pid > 0) {
            ::kill(_pid, SIGKILL);
            ::waitpid(_pid, nullptr, 0);
        }
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    bool
    alive()
    {
        if (_pid <= 0)
            return false;
        int status = 0;
        if (::waitpid(_pid, &status, WNOHANG) == 0)
            return true;
        _pid = -1;
        return false;
    }

    /** SIGTERM (graceful drain), then wait; SIGKILL after 30 s.
     *  Returns the exit code, or -1 when it had to be killed. */
    int
    stop()
    {
        if (_pid <= 0)
            return -1;
        ::kill(_pid, SIGTERM);
        const std::uint64_t deadline = nowNs() + 30'000'000'000ull;
        int status = 0;
        for (;;) {
            const pid_t r = ::waitpid(_pid, &status, WNOHANG);
            if (r == _pid)
                break;
            if (nowNs() > deadline) {
                ::kill(_pid, SIGKILL);
                ::waitpid(_pid, &status, 0);
                _pid = -1;
                return -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        _pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    void
    kill()
    {
        if (_pid > 0)
            ::kill(_pid, SIGKILL);
    }

  private:
    pid_t _pid = -1;
};

/** A running daemon with the two client connections. */
struct Server {
    std::unique_ptr<DaemonProcess> proc;
    std::array<qd::DaemonClient, 2> clients;
    std::uint64_t nextId = 1;
};

std::unique_ptr<Server>
startServer(const Options &opt, std::uint32_t index,
            const std::string &metrics_json)
{
    auto srv = std::make_unique<Server>();
    const std::string tag = std::to_string(::getpid()) + "-" +
        std::to_string(index);
    const std::string socket = opt.workdir + "/qtenond-" + tag + ".sock";
    srv->proc = std::make_unique<DaemonProcess>(
        opt.qtenond, socket, metrics_json,
        opt.workdir + "/qtenond.log");
    const std::uint64_t deadline = nowNs() + 10'000'000'000ull;
    for (auto &c : srv->clients) {
        for (;;) {
            try {
                c.connect(socket);
                break;
            } catch (const std::exception &) {
                if (!srv->proc->alive())
                    throw std::runtime_error("qtenond exited at start");
                if (nowNs() > deadline)
                    throw;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500));
            }
        }
    }
    return srv;
}

struct Got {
    std::uint64_t dueNs = 0;
    std::uint64_t sentNs = 0;
    std::uint64_t recvNs = 0;
    std::string type;
    std::string cache;
    std::string bytes;
};

/** Send sends[begin, end) on schedule, alternating connections, and
 *  collect every reply. */
std::vector<Got>
runSegment(Server &srv, const Schedule &s, std::size_t begin,
           std::size_t end, SpanLog *log)
{
    const std::size_t n = end - begin;
    std::vector<Got> got(n);
    std::array<std::size_t, 2> expected{};
    for (std::size_t i = 0; i < n; ++i)
        ++expected[i % 2];
    const std::uint64_t base = srv.nextId;
    srv.nextId += n;
    std::atomic<std::size_t> received{0};
    std::atomic<bool> readerFailed{false};
    std::array<std::string, 2> errors;

    auto reader = [&](std::size_t c) {
        try {
            for (std::size_t k = 0; k < expected[c]; ++k) {
                auto r = srv.clients[c].readResponse();
                const std::uint64_t t = nowNs();
                if (r.id < base || r.id >= base + n)
                    throw std::runtime_error("reply for unknown id " +
                                             std::to_string(r.id));
                auto &g = got[r.id - base];
                g.recvNs = t;
                g.type = r.type;
                g.cache = r.cacheState;
                g.bytes = std::move(r.resultBytes);
                received.fetch_add(1);
            }
        } catch (const std::exception &e) {
            errors[c] = e.what();
            readerFailed.store(true);
        }
    };
    std::thread r0(reader, 0);
    std::thread r1(reader, 1);

    std::string sendError;
    const std::uint64_t start = nowNs() + 2'000'000;
    const double t0 = s.sends[begin].atS;
    try {
        Scope root(log, "sender");
        for (std::size_t i = 0; i < n; ++i) {
            const auto &p = s.sends[begin + i];
            const std::uint64_t due = start +
                static_cast<std::uint64_t>((p.atS - t0) * 1e9);
            {
                Scope wait(log, "schedule.wait");
                std::this_thread::sleep_until(
                    std::chrono::steady_clock::time_point(
                        std::chrono::nanoseconds(due)));
            }
            got[i].dueNs = due;
            got[i].sentNs = nowNs();
            Scope submit(log, "daemon.submit");
            srv.clients[i % 2].submitAsync(s.pool[p.req], base + i);
        }
    } catch (const std::exception &e) {
        sendError = e.what();
    }
    const std::uint64_t deadline = nowNs() + 60'000'000'000ull;
    while (received.load() < n && !readerFailed.load() &&
           sendError.empty() && nowNs() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (received.load() < n)
        srv.proc->kill(); // unblocks the readers
    r0.join();
    r1.join();
    for (const auto &e : errors)
        if (!e.empty())
            std::fprintf(stderr, "perfbench: reader: %s\n", e.c_str());
    if (!sendError.empty())
        std::fprintf(stderr, "perfbench: sender: %s\n",
                     sendError.c_str());
    return got;
}

/**
 * Set-up of one serving target: start the daemon, connect, then one
 * second of open-loop traffic at the fixed rate on requests of its
 * own, so the daemon's first concurrent jobs fall outside timing.
 */
std::unique_ptr<Server>
prepareServer(const Options &opt, std::uint32_t index,
              const std::string &metrics_json)
{
    auto srv = startServer(opt, index, metrics_json);
    const auto warm = makeSchedule(
        ~(opt.seed * 0x9e3779b97f4a7c15ull + index), {fixedRate},
        {static_cast<std::size_t>(fixedRate)});
    for (const auto &g :
         runSegment(*srv, warm, 0, warm.sends.size(), nullptr))
        if (g.type != "result")
            throw std::runtime_error("warm-up request got '" + g.type +
                                     "'");
    std::printf("  warm-up %u: %zu requests at %.0f req/s, all served\n",
                index, warm.sends.size(), fixedRate);
    return srv;
}

bool
resultOk(const std::string &bytes)
{
    try {
        const auto v = service::json::Value::parse(bytes);
        return v.at("status").asString() == "ok";
    } catch (const std::exception &) {
        return false;
    }
}

struct RateStats {
    double rate = 0.0;
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double hitP50Ms = 0.0;
    double missP50Ms = 0.0;
    double lagP99Ms = 0.0;
    double lagMaxMs = 0.0;
    double wallS = 0.0;
    double achievedRps = 0.0;
    bool backlogGrowing = false;
    bool pass = false;
};

/**
 * Check every reply of one segment (result frame, status ok, and the
 * same bytes as every other reply to the same request) and summarize
 * its latencies, timed from each request's scheduled send time.
 */
RateStats
evaluate(const Schedule &s, std::size_t begin,
         const std::vector<Got> &got,
         std::map<std::uint32_t, std::string> &firstBytes, Outcome &out)
{
    RateStats st;
    st.rate = s.rates[s.sends[begin].segment];
    st.sent = got.size();
    std::vector<double> lat;
    std::vector<double> hit;
    std::vector<double> miss;
    std::vector<double> lag;
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto &g = got[i];
        const auto &p = s.sends[begin + i];
        bool ok = g.type == "result" && resultOk(g.bytes);
        if (ok) {
            const auto [it, inserted] = firstBytes.emplace(p.req, g.bytes);
            if (!inserted && it->second != g.bytes) {
                ok = false;
                out.fail("request " + std::to_string(p.req) +
                         ": reply bytes differ from an earlier reply");
            }
        }
        if (g.type == "rejected")
            ++st.rejected;
        lag.push_back(static_cast<double>(g.sentNs - g.dueNs) * 1e-6);
        if (!ok) {
            ++st.failed;
            lat.push_back(failedLatencyMs);
            continue;
        }
        ++st.ok;
        last = std::max(last, g.recvNs);
        const double ms = static_cast<double>(g.recvNs - g.dueNs) * 1e-6;
        lat.push_back(ms);
        if (g.cache == "hit") {
            ++st.hits;
            hit.push_back(ms);
        } else {
            ++st.misses;
            miss.push_back(ms);
        }
    }
    out.attempted += st.sent;
    out.failed += st.failed;
    if (st.failed)
        out.fail(std::to_string(st.failed) + " of " +
                 std::to_string(st.sent) + " requests failed at " +
                 std::to_string(st.rate) + " req/s");
    // p50 and p99 are medians over consecutive windows of
    // windowRequests sends (p99 has ten samples beyond it in each), so
    // a burst of load from elsewhere on the host that covers less than
    // half of the segment does not decide them.
    const std::size_t nwin = std::max<std::size_t>(
        1, lat.size() / windowRequests);
    std::vector<double> win50;
    std::vector<double> win99;
    for (std::size_t w = 0; w < nwin; ++w) {
        const auto b = lat.begin() + w * (lat.size() / nwin);
        const auto e = w + 1 == nwin ? lat.end()
                                     : b + lat.size() / nwin;
        win50.push_back(percentile({b, e}, 50));
        win99.push_back(percentile({b, e}, 99));
    }
    st.p50Ms = median(win50);
    st.p99Ms = median(win99);
    st.hitP50Ms = median(hit);
    st.missP50Ms = median(miss);
    st.lagP99Ms = percentile(lag, 99);
    st.lagMaxMs = percentile(lag, 100);
    if (last > got.front().dueNs) {
        st.wallS = static_cast<double>(last - got.front().dueNs) * 1e-9;
        st.achievedRps = static_cast<double>(st.ok) / st.wallS;
    }
    // Backlog: latency in the last quarter of the segment against the
    // second quarter.
    const std::size_t q = lat.size() / 4;
    if (q > 0) {
        const std::vector<double> q2(lat.begin() + q, lat.begin() + 2 * q);
        const std::vector<double> q4(lat.end() - q, lat.end());
        st.backlogGrowing = median(q4) > 2.0 * median(q2) + 5.0;
    }
    st.pass = st.failed == 0 && st.p99Ms <= latencyLimitMs &&
        !st.backlogGrowing;
    std::printf("  %5.0f req/s: sent %zu ok %zu failed %zu rejected %zu"
                " | hits %zu misses %zu | p50 %.3f ms p99 %.3f ms "
                "(median of %zu windows, %zu beyond p99 in each; window "
                "p99s",
                st.rate, st.sent, st.ok, st.failed, st.rejected, st.hits,
                st.misses, st.p50Ms, st.p99Ms, nwin,
                samplesBeyond(lat.size() / nwin, 99));
    for (double v : win99)
        std::printf(" %.1f", v);
    std::printf(") | hit p50 %.3f miss p50 %.3f | lag p99 %.3f max %.3f "
                "ms | backlog %s | %s\n",
                st.hitP50Ms, st.missP50Ms, st.lagP99Ms, st.lagMaxMs,
                st.backlogGrowing ? "GROWING" : "steady",
                st.pass ? "meets 50 ms p99" : "misses 50 ms p99");
    return st;
}

/** Segment boundaries of @p s. */
std::vector<std::size_t>
segmentStarts(const Schedule &s)
{
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < s.sends.size(); ++i)
        if (i == 0 || s.sends[i].segment != s.sends[i - 1].segment)
            starts.push_back(i);
    starts.push_back(s.sends.size());
    return starts;
}

/**
 * Recompute a few distinct requests in this process and compare with
 * the daemon's bytes (a cache hit must equal a recompute); their
 * digests are the reference for the default seed.
 */
void
recomputeSample(const Options &opt, const Schedule &s,
                const std::map<std::uint32_t, std::string> &firstBytes,
                Outcome &out)
{
    // The same eight requests in both modes (pool prefixes agree).
    std::vector<std::string> digests;
    for (std::size_t j = 0; j < s.pool.size() && digests.size() < 8;
         j += 50) {
        ++out.attempted;
        auto r = service::runJobSpec(s.pool[j].toJobSpec(), 0);
        r.status = service::JobStatus::Ok;
        r.jobId = 0;
        r.name.clear();
        const std::string bytes =
            service::jobResultToJson(r, /*deterministic_only=*/true)
                .dump(0);
        digests.push_back(bytesDigest(bytes));
        const auto it = firstBytes.find(static_cast<std::uint32_t>(j));
        if (it == firstBytes.end() || it->second != bytes) {
            ++out.failed;
            out.fail("request " + std::to_string(j) +
                     ": daemon bytes differ from an in-process recompute");
        }
    }
    std::printf("recompute: %zu requests re-run in process\n",
                digests.size());
    checkReference(opt, "serve-mix", digests, out);
}

/** Stats frame, then a graceful drain that must exit 0. */
service::json::Value
finish(Server &srv, Outcome &out)
{
    auto stats = srv.clients[0].stats(srv.nextId++).body;
    for (auto &c : srv.clients)
        c.close();
    const int code = srv.proc->stop();
    if (code != 0)
        out.fail("qtenond exited with " + std::to_string(code));
    return stats;
}

double
childPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
jsonNumber(const service::json::Value &v,
           std::initializer_list<const char *> path)
{
    const service::json::Value *cur = &v;
    for (const char *k : path) {
        cur = cur->find(k);
        if (!cur)
            return 0.0;
    }
    return cur->asDouble();
}

} // namespace

Outcome
runServeMix(const Options &opt)
{
    if (opt.qtenond.empty())
        throw std::invalid_argument("serve-mix needs --qtenond");
    Outcome out;
    std::vector<double> setups;
    std::unique_ptr<Server> srv;
    for (int k = 0; k < setupRepeats; ++k) {
        if (srv)
            finish(*srv, out);
        srv.reset();
        const std::uint64_t t0 = nowNs();
        srv = prepareServer(opt, static_cast<std::uint32_t>(k), "");
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    std::map<std::uint32_t, std::string> firstBytes;
    if (!opt.trace) {
        std::vector<std::size_t> counts;
        for (std::size_t c : ladderCounts)
            counts.push_back(static_cast<std::size_t>(
                c * std::max(1.0, opt.seconds / countSeconds)));
        const auto sched = makeSchedule(opt.seed, ladder, counts);
        const auto starts = segmentStarts(sched);
        std::printf("open loop, limit p99 <= %.0f ms:\n",
                    latencyLimitMs);
        std::vector<RateStats> rungs;
        for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
            const auto got = runSegment(*srv, sched, starts[k],
                                        starts[k + 1], nullptr);
            rungs.push_back(
                evaluate(sched, starts[k], got, firstBytes, out));
        }
        const auto stats = finish(*srv, out);
        std::printf("daemon stats: %s\n", stats.dump(0).c_str());
        recomputeSample(opt, sched, firstBytes, out);

        const RateStats *fixed = nullptr;
        const RateStats *best = nullptr;
        std::vector<double> bursts;
        for (const auto &r : rungs) {
            if (r.rate == fixedRate)
                fixed = &r;
            if (r.rate == burstRate)
                bursts.push_back(r.wallS);
            if (r.pass && (!best || r.rate > best->rate))
                best = &r;
        }
        if (!best)
            std::printf("no rate of the ladder meets the limit\n");
        // On a shared host latency percentiles move with other load far
        // more than the end-to-end bounds allow; they are reported here
        // and in the traced run, not gated.
        std::printf("at %.0f req/s: p50_ms %.4f ms, p99_ms %.4f ms, "
                    "hit_p50_ms %.4f ms, miss_p50_ms %.4f ms\n",
                    fixedRate, fixed->p50Ms, fixed->p99Ms,
                    fixed->hitP50Ms, fixed->missP50Ms);
        out.add("wall_s", median(bursts), "s");
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", childPeakRssMb(), "MB");
        out.add("max_rate_rps", best ? best->achievedRps : 0.0, "1/s");
        return out;
    }

    // Traced run: the fixed rate once on a plain daemon and once on a
    // daemon recording metrics, with client spans; same schedule.
    const std::size_t count = static_cast<std::size_t>(
        fixedCount * std::max(1.0, opt.seconds / (2 * countSeconds)));
    const auto sched = makeSchedule(opt.seed, {fixedRate}, {count});
    std::printf("open loop at %.0f req/s, %zu requests:\n", fixedRate,
                count);
    const auto plain = evaluate(
        sched, 0, runSegment(*srv, sched, 0, count, nullptr), firstBytes,
        out);
    finish(*srv, out);
    srv.reset();

    const std::string metrics = opt.workdir + "/qtenond-metrics-" +
        std::to_string(::getpid()) + ".json";
    srv = prepareServer(opt, setupRepeats, metrics);
    SpanLog log;
    const auto traced = evaluate(
        sched, 0, runSegment(*srv, sched, 0, count, &log), firstBytes,
        out);
    const auto stats = finish(*srv, out);
    srv.reset();
    recomputeSample(opt, sched, firstBytes, out);

    std::ifstream in(metrics);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in)
        throw std::runtime_error("qtenond wrote no metrics to " + metrics);
    const auto reg = service::json::Value::parse(ss.str());
    std::remove(metrics.c_str());

    std::vector<SpanLog> logs;
    logs.push_back(std::move(log));
    const auto t = accumulate(logs);
    const auto &root = t.byName.at("sender");
    std::printf("sender accounting (wall %.4f s):\n",
                root.busyNs * 1e-9);
    for (const auto &[name, r] : t.byName)
        std::printf("  %-16s self %.4f s\n",
                    name == "sender" ? "other" : name.c_str(),
                    r.selfNs * 1e-9);
    if (t.selfSumNs != t.rootNs)
        out.fail("sender span self times do not add up to its wall");

    std::map<std::string, double> v;
    v["isa.compile.cache_hit_ratio"] =
        jsonNumber(stats, {"compile_cache", "hit_rate"});
    v["daemon.result_cache.hit_ratio"] =
        jsonNumber(stats, {"cache", "hit_rate"});
    v["daemon.queue_wait_p50_ms"] =
        jsonNumber(reg, {"histograms", "daemon.request.queue_wait_ns",
                         "p50"}) * 1e-6;
    v["daemon.rejected"] = jsonNumber(stats, {"rejected", "queue_full"}) +
        jsonNumber(stats, {"rejected", "quota"}) +
        jsonNumber(stats, {"rejected", "draining"});
    v["daemon.p50_ms"] = plain.p50Ms;
    v["daemon.p99_ms"] = plain.p99Ms;
    v["daemon.hit_p50_ms"] = plain.hitP50Ms;
    v["daemon.miss_p50_ms"] = plain.missP50Ms;
    v["trace.overhead_s"] = traced.wallS - plain.wallS;
    v["trace.other_share"] = root.busyNs
        ? static_cast<double>(root.selfNs) /
            static_cast<double>(root.busyNs)
        : 0.0;
    for (const auto &[name, unit] : perLayerMetrics())
        out.add(name, v.count(name) ? v[name] : 0.0, unit);
    return out;
}

} // namespace perfbench
