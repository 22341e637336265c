#include "serve/session.hpp"

#include <limits>

#include "sched/guarded.hpp"

namespace readys::serve {

namespace {

rl::SchedulingEnv::Config env_config(const SessionSpec& spec, int window,
                                     int attempt, bool incremental,
                                     bool sparse_ahat) {
  rl::SchedulingEnv::Config cfg;
  cfg.sigma = spec.sigma;
  cfg.window = window;
  // A retry replays the same DAG under a perturbed seed: the fault and
  // noise streams that killed attempt N are re-drawn, which is exactly
  // the "resubmit the job" semantics of a transient cluster fault. The
  // odd multiplier keeps the perturbation bijective over u64.
  cfg.seed = spec.seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                                     attempt);
  cfg.faults = spec.faults;
  cfg.incremental_encoding = incremental;
  cfg.sparse_ahat = sparse_ahat;
  return cfg;
}

}  // namespace

const char* qos_class_name(QosClass c) {
  switch (c) {
    case QosClass::kDeadline:
      return "deadline";
    case QosClass::kNormal:
      return "normal";
    case QosClass::kBatch:
      return "batch";
  }
  return "unknown";
}

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kCompleted:
      return "completed";
    case SessionState::kQuarantined:
      return "quarantined";
    case SessionState::kAborted:
      return "aborted";
    case SessionState::kShed:
      return "shed";
  }
  return "unknown";
}

Session::Session(std::uint64_t id, SessionSpec spec,
                 const sim::Platform& platform,
                 std::shared_ptr<const dag::TaskGraph> graph, int window,
                 int attempt, bool incremental_encoding, bool sparse_ahat)
    : id_(id),
      spec_(spec),
      attempt_(attempt),
      graph_(std::move(graph)),
      env_(*graph_, platform, core::make_costs(spec.app),
           env_config(spec, window, attempt, incremental_encoding,
                      sparse_ahat)),
      // The action stream derives from the spec seed, not the attempt:
      // sampling-mode decisions replay identically when the env state
      // does, and stay independent of every other session either way.
      action_rng_(spec.seed ^ 0x5E27E5E55104A7ULL) {
  env_.reset();
  result_.id = id_;
  result_.tenant = spec_.tenant;
  result_.heft_reference = env_.heft_reference();
  result_.attempts = attempt_ + 1;
}

std::size_t Session::mct_action() {
  const rl::Observation& obs = env_.observation();
  const auto batch = sched::one_shot_mct(mct_scratch_, env_.engine());
  for (const sim::Assignment& a : batch) {
    if (a.resource != obs.current_resource) continue;
    for (std::size_t i = 0; i < obs.ready_tasks.size(); ++i) {
      if (obs.ready_tasks[i] == a.task) return i;
    }
  }
  // MCT bound nothing to the offered processor (it preferred others):
  // decline if that is legal, otherwise take the cheapest ready task
  // here — the engine requires some action for the current resource.
  if (obs.allow_idle) return obs.idle_action();
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < obs.ready_tasks.size(); ++i) {
    const double d =
        env_.engine().expected_duration(obs.ready_tasks[i],
                                        obs.current_resource);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace readys::serve
