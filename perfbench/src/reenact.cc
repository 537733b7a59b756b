#include "reenact.hh"

#include <memory>
#include <stdexcept>

#include "isa/pass/compile_cache.hh"
#include "quantum/backend.hh"
#include "vqa/optimizer.hh"
#include "vqa/workload.hh"

namespace perfbench {

using namespace qtenon;

service::SystemRun
replayQtenon(const core::QtenonConfig &cfg,
             const quantum::QuantumCircuit &circuit,
             const runtime::VqaTrace &trace, const std::string &label,
             const service::CancelToken &token, SpanLog *log,
             sim::Tick *shot_duration)
{
    std::unique_ptr<core::QtenonSystem> sys;
    {
        Scope span(log, "core.setup");
        sys = std::make_unique<core::QtenonSystem>(cfg);
    }
    service::SystemRun run;
    run.label = label;
    {
        Scope span(log, "runtime.replay");
        const sim::Tick shot = sys->shotDuration(circuit);
        if (shot_duration)
            *shot_duration = shot;
        run.setup = sys->executor().installProgram(trace.image);
        for (const auto &round : trace.rounds) {
            token.checkpoint();
            run.rounds +=
                sys->executor().executeRound(round, trace.image, shot);
        }
        span.setCount(sys->eventQueue().eventsProcessed());
    }
    run.total = run.setup;
    run.total += run.rounds;
    run.busTransactions = sys->bus().transactions.value();
    run.pulsesGenerated = sys->controller().pulsesGenerated.value();
    run.sltHits = sys->controller().slt().hits;
    run.sltMisses = sys->controller().slt().misses;
    run.simTicks = sys->eventQueue().curTick();
    return run;
}

service::SystemRun
replayBaseline(const baseline::DecoupledConfig &cfg,
               const quantum::QuantumCircuit &circuit,
               const runtime::VqaTrace &trace,
               const service::CancelToken &token, SpanLog *log)
{
    Scope span(log, "baseline.replay");
    baseline::DecoupledSystem base(cfg);
    service::SystemRun run;
    run.label = "baseline";
    for (const auto &round : trace.rounds) {
        token.checkpoint();
        run.rounds += base.executeRound(circuit, round);
    }
    run.total = run.rounds;
    span.setCount(trace.rounds.size());
    return run;
}

namespace {

void
requireSupported(const service::JobSpec &spec)
{
    const auto &d = spec.driver;
    if (spec.custom || !spec.faultSpec.empty() || d.injector ||
        d.useExactCost || d.readoutError != 0.0)
        throw std::invalid_argument(
            "reenactJob: spec '" + spec.name +
            "' uses features the traced body does not re-enact");
}

/** VqaDriver::run, one public call per span. */
runtime::VqaTrace
reenactDriver(const vqa::DriverConfig &cfg, vqa::Workload &w,
              SpanLog *log)
{
    const auto n = w.circuit.numQubits();
    runtime::VqaTrace trace;
    trace.numQubits = n;

    isa::PipelineConfig pipe;
    pipe.vectorIsa = cfg.isaVector;
    isa::QtenonCompiler compiler(isa::CompilerCostModel{}, pipe);
    auto *cache = cfg.compileCache ? cfg.compileCache
                                   : isa::processCompileCache();
    {
        Scope span(log, "isa.compile");
        bool hit = false;
        trace.image = cache ? cache->compile(w.circuit, compiler, &hit)
                            : compiler.compile(w.circuit);
        span.setCount(hit ? 1 : 0);
    }

    quantum::BackendConfig bcfg;
    bcfg.kind = cfg.backend;
    bcfg.exactCap = cfg.exactCap;
    bcfg.kernel = cfg.kernel;
    auto backend = quantum::makeBackend(n, bcfg);
    sim::Rng rng(cfg.seed);
    trace.backend = backend->name();

    std::unique_ptr<vqa::Optimizer> opt;
    if (cfg.optimizer == vqa::OptimizerKind::GradientDescent)
        opt = std::make_unique<vqa::GradientDescent>();
    else
        opt = std::make_unique<vqa::Spsa>(0.2, 0.2, cfg.seed ^ 0xABCDu);

    const auto num_params = w.circuit.numParameters();
    const double opt_ops_per_round =
        opt->optimizerOps(num_params) /
        static_cast<double>(opt->evalsPerIteration(num_params));
    const bool record_shots = cfg.recordShotData && n <= 64;
    if (n > 64)
        throw std::invalid_argument(
            "reenactJob: registers above 64 qubits are not re-enacted");

    std::vector<double> prev_params = w.circuit.parameters();
    vqa::EvalOracle oracle = [&](const std::vector<double> &params) {
        w.circuit.setParameters(params);
        runtime::RoundRecord round;
        {
            Scope span(log, "isa.plan");
            round.updates =
                compiler.planUpdates(trace.image, prev_params, params);
            span.setCount(round.updates.size());
        }
        prev_params = params;
        round.shots = cfg.shots;
        round.postOpsPerShot = w.cost->opsPerShot();
        round.optimizerOps = opt_ops_per_round;
        {
            Scope span(log, "quantum.evolve", true);
            backend->run(w.circuit);
        }
        std::vector<std::uint64_t> shots;
        {
            Scope span(log, "quantum.sample");
            shots = backend->sample(cfg.shots, rng);
            span.setCount(shots.size());
        }
        double cost = 0.0;
        {
            Scope span(log, "vqa.cost");
            cost = w.cost->fromShots(shots);
            span.setCount(shots.size());
        }
        if (record_shots)
            round.shotData = std::move(shots);
        trace.rounds.push_back(std::move(round));
        return cost;
    };

    std::vector<double> params = w.circuit.parameters();
    for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
        Scope span(log, "vqa.driver");
        trace.costHistory.push_back(opt->iterate(params, oracle));
    }
    w.circuit.setParameters(params);
    return trace;
}

} // namespace

service::JobResult
reenactJob(const service::JobSpec &spec, std::uint64_t job_id,
           const service::CancelToken &token, SpanLog *log)
{
    requireSupported(spec);
    service::JobResult r;
    r.jobId = job_id;
    r.name = spec.name;

    auto driver_cfg = spec.driver;
    if (spec.compileCache)
        driver_cfg.compileCache = spec.compileCache;
    if (spec.deriveSeedFromJobId)
        driver_cfg.seed = service::deriveJobSeed(driver_cfg.seed, job_id);
    r.seed = driver_cfg.seed;
    r.numQubits = spec.workload.numQubits;
    r.algorithm = vqa::algorithmName(spec.workload.algorithm);
    r.optimizer =
        driver_cfg.optimizer == vqa::OptimizerKind::GradientDescent
        ? "GD" : "SPSA";
    r.compileMode =
        runtime::compileModeName(spec.qtenon.software.compile);

    token.checkpoint();
    auto workload = vqa::Workload::build(spec.workload);
    auto trace = reenactDriver(driver_cfg, workload, log);
    r.backend = trace.backend;
    r.costHistory = trace.costHistory;
    r.finalCost =
        trace.costHistory.empty() ? 0.0 : trace.costHistory.back();
    r.rounds = trace.rounds.size();
    token.checkpoint();

    std::vector<runtime::HostCoreModel> hosts = spec.hosts;
    if (hosts.empty())
        hosts.push_back(spec.qtenon.host);
    for (const auto &host : hosts) {
        auto qcfg = spec.qtenon;
        qcfg.numQubits = spec.workload.numQubits;
        qcfg.host = host;
        qcfg.software.vectorIsa = driver_cfg.isaVector;
        r.systems.push_back(replayQtenon(qcfg, workload.circuit, trace,
                                         host.name, token, log,
                                         &r.shotDuration));
        r.simTicks += r.systems.back().simTicks;
    }

    if (spec.runBaseline) {
        token.checkpoint();
        r.systems.push_back(replayBaseline(spec.baselineCfg,
                                           workload.circuit, trace,
                                           token, log));
    }
    return r;
}

} // namespace perfbench
