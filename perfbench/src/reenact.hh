/**
 * @file
 * The traced job body: service::runJobSpec re-enacted from the
 * public calls of each layer, with a span around every call. It
 * covers the declarative specs the benchmark submits (no fault
 * injection, sampled cost, ideal readout) and refuses any other, so
 * a re-enacted job is bit-identical to runJobSpec or does not run.
 */

#ifndef PERFBENCH_REENACT_HH
#define PERFBENCH_REENACT_HH

#include <cstdint>

#include "core/qtenon_system.hh"
#include "service/batch_scheduler.hh"
#include "spans.hh"

namespace perfbench {

/**
 * Run @p spec as runJobSpec would, recording spans into @p log
 * (nullptr records nothing). Throws std::invalid_argument for specs
 * outside the supported subset.
 */
qtenon::service::JobResult
reenactJob(const qtenon::service::JobSpec &spec, std::uint64_t job_id,
           const qtenon::service::CancelToken &token, SpanLog *log);

/**
 * One timing replay of @p trace on a freshly built QtenonSystem,
 * as runJobSpec does per host: "core.setup" spans the constructor
 * and "runtime.replay" the install and round replays. The shot
 * duration of @p circuit on that system goes to @p shot_duration
 * when it is non-null.
 */
qtenon::service::SystemRun
replayQtenon(const qtenon::core::QtenonConfig &cfg,
             const qtenon::quantum::QuantumCircuit &circuit,
             const qtenon::runtime::VqaTrace &trace,
             const std::string &label,
             const qtenon::service::CancelToken &token, SpanLog *log,
             qtenon::sim::Tick *shot_duration = nullptr);

/** The decoupled-baseline replay ("baseline.replay"). */
qtenon::service::SystemRun
replayBaseline(const qtenon::baseline::DecoupledConfig &cfg,
               const qtenon::quantum::QuantumCircuit &circuit,
               const qtenon::runtime::VqaTrace &trace,
               const qtenon::service::CancelToken &token,
               SpanLog *log);

} // namespace perfbench

#endif // PERFBENCH_REENACT_HH
