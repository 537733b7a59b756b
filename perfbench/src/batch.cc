/**
 * @file
 * The batch workloads: gd-sweep, sv-20q and replay-64q. Each is a
 * list of operations (jobs) run as one batch on a BatchScheduler,
 * repeated for the run's seconds; wall_s is the median batch
 * makespan.
 *
 * Untraced passes submit each job through the scheduler and run it
 * with service::runJobSpec (replay-64q: the plain replay calls). A
 * traced pass runs the same jobs through reenactJob, which times
 * every layer call, and must reproduce the untraced digests bit for
 * bit.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "reenact.hh"
#include "service/sweep.hh"
#include "stats.hh"

namespace perfbench {

using namespace qtenon;

namespace {

using OpFn = std::function<service::JobResult(
    std::uint64_t id, const service::CancelToken &, SpanLog *)>;

struct Op {
    std::string name;
    OpFn run;
};

struct BatchWorkload {
    unsigned workers = 4;
    std::vector<Op> ops;
    /** Run once, concurrently, before timing starts: enough ops to
     *  give every worker its first allocations. */
    std::vector<Op> warmup;
    /** Ops re-run serially after timing (jobs=1 invariant). */
    std::vector<std::size_t> serialSubset;
    /** Recorded traces and workloads the ops refer to. */
    std::shared_ptr<void> state;
    /** Print modeled results beside the paper's (gd-sweep). */
    std::function<void(const std::vector<service::JobResult> &)> report;
};

Op
specOp(service::JobSpec spec)
{
    std::string name = spec.name;
    return Op{std::move(name),
              [spec = std::move(spec)](std::uint64_t id,
                                       const service::CancelToken &tok,
                                       SpanLog *log) {
                  return log ? reenactJob(spec, id, tok, log)
                             : service::runJobSpec(spec, id, tok);
              }};
}

constexpr std::uint32_t gdSweepIterations = 3;

/** Paper Fig. 11: 64-qubit end-to-end speedups (QAOA, VQE, QNN). */
void
reportSpeedups(const std::vector<service::JobResult> &results)
{
    const std::map<std::string, double> paper = {
        {"QAOA", 14.7}, {"VQE", 11.7}, {"QNN", 6.9}};
    std::printf("modeled 64q end-to-end speedup over the decoupled "
                "baseline at %u GD iterations (simulated; must never "
                "move):\n",
                gdSweepIterations);
    for (const auto &r : results) {
        if (r.numQubits != 64)
            continue;
        const auto *base = r.system("baseline");
        const auto *rocket = r.system("rocket");
        const auto *boom = r.system("boom-l");
        if (!base || !rocket || !boom || !rocket->total.wall ||
            !boom->total.wall)
            continue;
        const double e2e_r = static_cast<double>(base->total.wall) /
            static_cast<double>(rocket->total.wall);
        const double e2e_b = static_cast<double>(base->total.wall) /
            static_cast<double>(boom->total.wall);
        const double p = paper.at(r.algorithm);
        std::printf("  %-4s rocket %.1fx  boom-l %.1fx  paper %.1fx  "
                    "error %+.0f%%\n",
                    r.algorithm.c_str(), e2e_r, e2e_b, p,
                    100.0 * (e2e_b - p) / p);
    }
}

/** fig11's batch: {QAOA, VQE, QNN} x {8..64} qubits, GD, 500 shots,
 *  replayed on rocket, boom-l and the baseline; 3 iterations instead
 *  of fig11's 10, so a run holds several batches to take a median
 *  over. */
BatchWorkload
gdSweep(std::uint64_t seed)
{
    service::JobSpec proto;
    proto.driver.shots = 500;
    proto.driver.iterations = gdSweepIterations;
    proto.driver.optimizer = vqa::OptimizerKind::GradientDescent;
    proto.driver.recordShotData = false;
    // Seeds come from the benchmark seed per job, so digests do not
    // depend on scheduler job ids.
    proto.deriveSeedFromJobId = false;
    auto specs = service::Sweep("gd-sweep")
                     .base(std::move(proto))
                     .algorithms({vqa::Algorithm::Qaoa,
                                  vqa::Algorithm::Vqe,
                                  vqa::Algorithm::Qnn})
                     .qubits({8, 16, 24, 32, 40, 48, 56, 64})
                     .hosts({runtime::HostCoreModel::rocket(),
                             runtime::HostCoreModel::boomLarge()})
                     .withBaseline(true)
                     .build();
    BatchWorkload w;
    w.workers = 4;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].driver.seed = service::deriveJobSeed(seed, i);
        if (specs[i].workload.numQubits == 8)
            w.serialSubset.push_back(i);
        w.ops.push_back(specOp(specs[i]));
    }
    for (std::size_t i : w.serialSubset)
        w.warmup.push_back(w.ops[i]);
    w.report = reportSpeedups;
    return w;
}

service::JobSpec
sv20Spec(vqa::Algorithm alg, std::uint32_t iterations,
         std::uint64_t seed)
{
    service::JobSpec s;
    s.name = "sv-20q/" + vqa::algorithmName(alg);
    s.workload.algorithm = alg;
    s.workload.numQubits = 20;
    s.driver.shots = 500;
    s.driver.iterations = iterations;
    // SPSA: two evaluations per iteration, so a 2^20 job stays a few
    // evolutions long and a run holds several batches.
    s.driver.optimizer = vqa::OptimizerKind::Spsa;
    s.driver.backend = quantum::BackendKind::Statevector;
    s.driver.kernel.threads = 4;
    s.driver.recordShotData = false;
    s.driver.seed = seed;
    s.deriveSeedFromJobId = false;
    s.hosts = {runtime::HostCoreModel::rocket(),
               runtime::HostCoreModel::boomLarge()};
    s.runBaseline = true;
    return s;
}

/** QAOA and QNN at 20 qubits on the statevector engine, one job at a
 *  time with 4 kernel threads. */
BatchWorkload
sv20q(std::uint64_t seed)
{
    BatchWorkload w;
    w.workers = 1;
    w.ops.push_back(specOp(
        sv20Spec(vqa::Algorithm::Qaoa, 2, service::deriveJobSeed(seed, 0))));
    w.ops.push_back(specOp(
        sv20Spec(vqa::Algorithm::Qnn, 4, service::deriveJobSeed(seed, 1))));
    w.warmup = {specOp(sv20Spec(vqa::Algorithm::Qnn, 1,
                                service::deriveJobSeed(seed, 2)))};
    return w;
}

struct RecordedTraces {
    std::vector<vqa::Workload> workloads;
    std::vector<runtime::VqaTrace> traces;
    std::vector<std::string> names;
    std::vector<std::string> optimizers;
};

/** The 64-qubit GD and SPSA traces, recorded during set-up and
 *  replayed across fig16's software configurations. */
BatchWorkload
replay64q(std::uint64_t seed)
{
    auto rec = std::make_shared<RecordedTraces>();
    std::uint64_t k = 0;
    for (auto opt : {vqa::OptimizerKind::GradientDescent,
                     vqa::OptimizerKind::Spsa}) {
        for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                         vqa::Algorithm::Qnn}) {
            vqa::WorkloadConfig wc;
            wc.algorithm = alg;
            wc.numQubits = 64;
            auto w = vqa::Workload::build(wc);
            vqa::DriverConfig dc;
            dc.shots = 500;
            dc.optimizer = opt;
            // One GD iteration is already 2p+1 rounds (385 for VQE);
            // SPSA takes two rounds per iteration.
            dc.iterations =
                opt == vqa::OptimizerKind::GradientDescent ? 1 : 10;
            dc.recordShotData = false;
            dc.seed = service::deriveJobSeed(seed, k++);
            vqa::VqaDriver driver(dc);
            rec->traces.push_back(driver.run(w));
            rec->names.push_back(vqa::algorithmName(alg));
            rec->optimizers.push_back(
                opt == vqa::OptimizerKind::GradientDescent ? "GD"
                                                           : "SPSA");
            rec->workloads.push_back(std::move(w));
        }
    }

    BatchWorkload w;
    w.workers = 4;
    w.state = rec;
    const RecordedTraces *r = rec.get();
    auto shell = [r](std::size_t t, std::uint64_t id) {
        service::JobResult res;
        res.jobId = id;
        res.numQubits = 64;
        res.algorithm = r->names[t];
        res.optimizer = r->optimizers[t];
        res.rounds = r->traces[t].rounds.size();
        return res;
    };
    for (std::size_t t = 0; t < r->traces.size(); ++t) {
        const std::string base =
            "replay-64q/" + r->names[t] + "/" + r->optimizers[t];
        for (auto sync : {runtime::SyncPolicy::Fence,
                          runtime::SyncPolicy::FineGrained}) {
            for (auto tx : {runtime::TransmissionPolicy::Batched,
                            runtime::TransmissionPolicy::Immediate}) {
                for (const auto &host :
                     {runtime::HostCoreModel::rocket(),
                      runtime::HostCoreModel::boomLarge()}) {
                    core::QtenonConfig qcfg;
                    qcfg.numQubits = 64;
                    qcfg.host = host;
                    qcfg.software.sync = sync;
                    qcfg.software.transmission = tx;
                    const std::string name = base + "/" + host.name +
                        (sync == runtime::SyncPolicy::Fence ? "/fence"
                                                            : "/fine") +
                        (tx == runtime::TransmissionPolicy::Batched
                             ? "/batched" : "/immediate");
                    w.ops.push_back(Op{
                        name,
                        [r, t, qcfg, shell](
                            std::uint64_t id,
                            const service::CancelToken &tok,
                            SpanLog *log) {
                            auto res = shell(t, id);
                            res.systems.push_back(replayQtenon(
                                qcfg, r->workloads[t].circuit,
                                r->traces[t], qcfg.host.name, tok, log,
                                &res.shotDuration));
                            res.simTicks = res.systems.back().simTicks;
                            return res;
                        }});
                }
            }
        }
        w.ops.push_back(Op{
            base + "/baseline",
            [r, t, shell](std::uint64_t id,
                          const service::CancelToken &tok,
                          SpanLog *log) {
                auto res = shell(t, id);
                res.systems.push_back(replayBaseline(
                    baseline::DecoupledConfig{},
                    r->workloads[t].circuit, r->traces[t], tok, log));
                return res;
            }});
        // The SPSA QNN trace is the cheapest to re-run serially.
        if (r->optimizers[t] == "SPSA" && r->names[t] == "QNN") {
            for (std::size_t i = w.ops.size() - 9; i < w.ops.size(); ++i)
                w.serialSubset.push_back(i);
        }
    }
    // The VQE GD trace has the most rounds: its replays touch the
    // most memory.
    w.warmup.assign(w.ops.begin() + 9, w.ops.begin() + 18);
    return w;
}

BatchWorkload
buildWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "gd-sweep")
        return gdSweep(seed);
    if (name == "sv-20q")
        return sv20q(seed);
    if (name == "replay-64q")
        return replay64q(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

/** One batch of every op. */
struct Pass {
    bool traced = false;
    double wallS = 0.0;
    std::vector<double> queueS;
    std::vector<double> runS;
    std::vector<service::JobResult> results;
    std::vector<SpanLog> logs;
};

Pass
runPass(const BatchWorkload &w, service::BatchScheduler &sched,
        bool traced)
{
    const std::size_t n = w.ops.size();
    std::vector<std::uint64_t> start(n), end(n);
    SpanCollector collector;
    std::vector<service::JobSpec> specs(n);
    for (std::size_t i = 0; i < n; ++i) {
        specs[i].name = w.ops[i].name;
        specs[i].custom = [&w, &start, &end, &collector, traced,
                           i](service::JobContext &ctx) {
            start[i] = nowNs();
            if (traced) {
                SpanLog log(i);
                {
                    Scope root(&log, "job");
                    ctx.result = w.ops[i].run(ctx.jobId, ctx.token, &log);
                }
                collector.add(std::move(log));
            } else {
                ctx.result = w.ops[i].run(ctx.jobId, ctx.token, nullptr);
            }
            end[i] = nowNs();
        };
    }
    Pass p;
    p.traced = traced;
    const std::uint64_t t0 = nowNs();
    auto handles = sched.submitAll(std::move(specs));
    sched.wait();
    const std::uint64_t t1 = nowNs();
    p.wallS = static_cast<double>(t1 - t0) * 1e-9;
    for (std::size_t i = 0; i < n; ++i) {
        p.results.push_back(handles[i].result.get());
        p.queueS.push_back(static_cast<double>(start[i] - t0) * 1e-9);
        p.runS.push_back(static_cast<double>(end[i] - start[i]) * 1e-9);
    }
    p.logs = collector.take();
    return p;
}

struct Prepared {
    BatchWorkload workload;
    std::unique_ptr<service::BatchScheduler> sched;
};

Prepared
setup(const std::string &name, std::uint64_t seed)
{
    Prepared p;
    p.workload = buildWorkload(name, seed);
    service::SchedulerConfig cfg;
    cfg.workers = p.workload.workers;
    p.sched = std::make_unique<service::BatchScheduler>(cfg);
    std::vector<service::JobSpec> specs;
    for (const auto &op : p.workload.warmup) {
        service::JobSpec s;
        s.name = "warmup";
        s.custom = [&op](service::JobContext &ctx) {
            ctx.result = op.run(ctx.jobId, ctx.token, nullptr);
        };
        specs.push_back(std::move(s));
    }
    const auto handles = p.sched->submitAll(std::move(specs));
    p.sched->wait();
    for (const auto &h : handles)
        if (h.result.get().status != service::JobStatus::Ok)
            throw std::runtime_error("warm-up job failed: " +
                                     h.result.get().error);
    return p;
}

std::vector<std::string>
digests(const Pass &p)
{
    std::vector<std::string> d;
    for (const auto &r : p.results)
        d.push_back(jobDigest(r));
    return d;
}

double
medianWall(const std::vector<Pass> &passes, bool traced)
{
    std::vector<double> w;
    for (const auto &p : passes)
        if (p.traced == traced)
            w.push_back(p.wallS);
    return median(w);
}

/** Per-layer metrics from the traced passes. */
void
addLayerMetrics(const BatchWorkload &w, const std::vector<Pass> &passes,
                Outcome &out)
{
    std::vector<SpanLog> logs;
    double traced_wall = 0.0;
    double run_sum = 0.0;
    double queue_sum = 0.0;
    std::vector<double> runs;
    double qtenon_rounds = 0.0;
    double npasses = 0.0;
    for (const auto &p : passes) {
        if (!p.traced)
            continue;
        npasses += 1.0;
        traced_wall += p.wallS;
        for (std::size_t i = 0; i < p.runS.size(); ++i) {
            run_sum += p.runS[i];
            queue_sum += p.queueS[i];
            runs.push_back(p.runS[i]);
        }
        for (const auto &r : p.results)
            for (const auto &s : r.systems)
                if (s.label != "baseline")
                    qtenon_rounds += static_cast<double>(r.rounds);
        for (const auto &l : p.logs)
            logs.push_back(l);
    }
    const auto t = accumulate(logs);
    auto row = [&](const char *name) {
        const auto it = t.byName.find(name);
        return it == t.byName.end() ? LayerTotals::Row{} : it->second;
    };
    auto per = [&](double v) { return v / npasses; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto evolve = row("quantum.evolve");
    const auto sample = row("quantum.sample");
    const auto cost = row("vqa.cost");
    const auto driver = row("vqa.driver");
    const auto compile = row("isa.compile");
    const auto plan = row("isa.plan");
    const auto csetup = row("core.setup");
    const auto replay = row("runtime.replay");
    const auto base = row("baseline.replay");
    const auto job = row("job");
    const double worker_ns = traced_wall * 1e9 * w.workers;
    const double idle_ns = worker_ns - static_cast<double>(t.rootNs);

    std::map<std::string, double> v;
    v["quantum.evolve.busy_s"] = per(evolve.busyNs * 1e-9);
    v["quantum.evolve.p50_us"] = median(evolve.durationsNs) * 1e-3;
    v["quantum.kernel.cpu_per_wall"] =
        ratio(evolve.cpuNs, evolve.busyNs);
    v["quantum.sample.busy_s"] = per(sample.busyNs * 1e-9);
    v["quantum.sample.ns_per_shot"] = ratio(sample.busyNs, sample.count);
    v["vqa.cost.busy_s"] = per(cost.busyNs * 1e-9);
    v["vqa.cost.ns_per_shot"] = ratio(cost.busyNs, cost.count);
    v["vqa.driver.self_s"] = per(driver.selfNs * 1e-9);
    v["isa.compile.busy_s"] = per(compile.busyNs * 1e-9);
    v["isa.compile.cache_hit_ratio"] =
        ratio(compile.count, compile.spans);
    v["isa.plan.busy_s"] = per(plan.busyNs * 1e-9);
    v["isa.plan.updates"] = per(plan.count);
    v["core.setup.count"] = per(csetup.spans);
    v["core.setup.p50_ms"] = median(csetup.durationsNs) * 1e-6;
    v["runtime.replay.rounds"] = per(qtenon_rounds);
    v["runtime.replay.busy_s"] = per(replay.busyNs * 1e-9);
    v["runtime.replay.events"] = per(replay.count);
    v["runtime.replay.ns_per_event"] = ratio(replay.busyNs, replay.count);
    v["baseline.replay.busy_s"] = per(base.busyNs * 1e-9);
    v["service.sched.queue_wait_s"] =
        runs.empty() ? 0.0 : queue_sum / static_cast<double>(runs.size());
    v["service.sched.run_p50_s"] = median(runs);
    v["service.sched.utilization"] =
        ratio(run_sum, traced_wall * w.workers);
    v["trace.overhead_s"] =
        medianWall(passes, true) - medianWall(passes, false);
    v["trace.other_share"] = ratio(job.selfNs, worker_ns);

    // Self times partition the root spans exactly; the rest of the
    // workers' time is idle (queue empty or batch tail).
    std::printf("traced accounting over %.0f pass(es), worker time = "
                "%u workers x %.3f s wall:\n",
                npasses, w.workers, traced_wall);
    double layers_ns = 0.0;
    for (const auto &[name, r] : t.byName) {
        if (name == "job")
            continue;
        layers_ns += static_cast<double>(r.selfNs);
        std::printf("  %-22s self %9.4f s\n", name.c_str(),
                    r.selfNs * 1e-9);
    }
    std::printf("  %-22s self %9.4f s\n  %-22s      %9.4f s\n"
                "  %-22s      %9.4f s  (worker time %.4f s)\n",
                "other", job.selfNs * 1e-9, "service.sched.idle",
                idle_ns * 1e-9, "sum",
                (layers_ns + job.selfNs + idle_ns) * 1e-9,
                worker_ns * 1e-9);
    if (t.selfSumNs != t.rootNs)
        out.fail("span self times sum to " +
                 std::to_string(t.selfSumNs) + " ns, root spans to " +
                 std::to_string(t.rootNs) + " ns");
    if (idle_ns < 0.0)
        out.fail("job spans exceed the traced worker time");

    for (const auto &[name, unit] : perLayerMetrics())
        out.add(name, v.count(name) ? v[name] : 0.0, unit);
}

} // namespace

Outcome
runBatchWorkload(const Options &opt)
{
    Outcome out;
    std::vector<double> setups;
    Prepared prep;
    for (int i = 0; i < setupRepeats; ++i) {
        prep = Prepared{};
        const std::uint64_t t0 = nowNs();
        prep = setup(opt.workload, opt.seed);
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    const BatchWorkload &w = prep.workload;

    // Untraced passes, then (traced run) traced passes; each side
    // starts another batch only while it fits in its share of time.
    std::vector<Pass> passes;
    const std::uint64_t start = nowNs();
    auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) * 1e-9;
    };
    const double untraced_budget =
        opt.trace ? opt.seconds / 2.0 : opt.seconds;
    do {
        passes.push_back(runPass(w, *prep.sched, false));
    } while (elapsed() + medianWall(passes, false) <= untraced_budget);
    if (opt.trace) {
        do {
            passes.push_back(runPass(w, *prep.sched, true));
        } while (elapsed() + medianWall(passes, true) <= opt.seconds);
    }

    // Correctness: every pass (traced ones too) reproduces the first
    // pass's digests, every job finished Ok.
    const auto first = digests(passes.front());
    for (const auto &p : passes) {
        const auto d = digests(p);
        for (std::size_t i = 0; i < d.size(); ++i) {
            ++out.attempted;
            if (p.results[i].status != service::JobStatus::Ok) {
                ++out.failed;
                out.fail(w.ops[i].name + ": " +
                         service::jobStatusName(p.results[i].status) +
                         " " + p.results[i].error);
            } else if (d[i] != first[i]) {
                ++out.failed;
                out.fail(w.ops[i].name + (p.traced ? " (traced)" : "") +
                         ": digest " + d[i] + " != " + first[i]);
            }
        }
    }
    // jobs=1 invariant: the subset re-run serially on this thread.
    for (std::size_t i : w.serialSubset) {
        ++out.attempted;
        const auto r = w.ops[i].run(i, service::CancelToken::none(),
                                    nullptr);
        if (jobDigest(r) != first[i]) {
            ++out.failed;
            out.fail(w.ops[i].name + ": serial digest differs from the " +
                     std::to_string(w.workers) + "-worker batch");
        }
    }
    std::printf("digests: %zu ops x %zu passes agree; %zu ops re-run "
                "serially\n",
                first.size(), passes.size(), w.serialSubset.size());
    checkReference(opt, opt.workload, first, out);
    if (w.report)
        w.report(passes.front().results);

    if (opt.trace) {
        addLayerMetrics(w, passes, out);
        return out;
    }
    std::vector<double> rate;
    std::printf("%zu batch(es) of %zu jobs on %u worker(s), wall s:",
                passes.size(), w.ops.size(), w.workers);
    for (const auto &p : passes) {
        rate.push_back(static_cast<double>(p.results.size()) / p.wallS);
        std::printf(" %.3f", p.wallS);
    }
    std::printf("\n");
    out.add("wall_s", medianWall(passes, false), "s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    // Jobs per second with the whole batch offered at once.
    out.add("max_rate_rps", median(rate), "1/s");
    return out;
}

} // namespace perfbench
