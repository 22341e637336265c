#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/apps.hpp"
#include "rl/env.hpp"
#include "sched/mct.hpp"
#include "sim/fault_model.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace readys::serve {

/// Scheduling priority of a session. Deadline-class sessions dequeue
/// strictly before normal ones, normal before batch; within one class
/// tenants share the service by deficit-weighted round robin (see
/// QosQueue). Numeric order IS priority order — eviction under overload
/// never displaces a higher class for a lower one.
enum class QosClass : int { kDeadline = 0, kNormal = 1, kBatch = 2 };

const char* qos_class_name(QosClass c);

/// What a client submits to the DecisionService: which DAG to schedule
/// and under what conditions. Specs are plain data and survive retries
/// unchanged — only the derived env seed varies per attempt.
struct SessionSpec {
  core::App app = core::App::kCholesky;
  int tiles = 4;
  double sigma = 0.0;           ///< task-duration noise
  std::uint64_t seed = 1;       ///< env + action-sampling stream base
  /// Admission identity for QoS: rate limits, fair dequeue and overload
  /// eviction are all per tenant. Empty is normalized to "default".
  std::string tenant = "default";
  QosClass qos = QosClass::kNormal;
  /// Per-decision deadline budget in microseconds. 0 inherits the
  /// service default; negative disables the deadline for this session
  /// (deterministic tests need timing-independent decisions).
  double deadline_us = 0.0;
  /// Fault injection for this session's engine (none() keeps the
  /// session bit-exact with a fault-free run).
  sim::FaultModel faults = sim::FaultModel::none();
  /// Chaos hook: poison this session's policy probabilities to NaN from
  /// the given decision ordinal on (-1 = never). Models a policy going
  /// non-finite mid-stream; the service must quarantine the session.
  int chaos_nan_after = -1;
};

/// Terminal disposition of a session.
enum class SessionState {
  kCompleted,    ///< DAG finished; makespan is valid
  kQuarantined,  ///< isolated after a permanent fault (reason in error)
  kAborted,      ///< retired by abort_shutdown with a partial trace
  kShed,         ///< never admitted (reason in error)
};

const char* session_state_name(SessionState s);

/// What the service hands back for one retired session.
struct SessionResult {
  std::uint64_t id = 0;
  SessionState state = SessionState::kShed;
  std::string tenant;  ///< admission identity (normalized spec.tenant)
  std::string error;  ///< shed/quarantine/abort reason ("" for completed)
  double makespan = 0.0;
  double heft_reference = 0.0;
  std::size_t decisions = 0;
  std::size_t timeouts = 0;   ///< decisions that blew the deadline budget
  std::size_t fallbacks = 0;  ///< decisions answered by one-shot MCT
  int attempts = 1;           ///< 1 + transient-fault retries
  /// Decision trace (action indices), recorded when
  /// ServiceConfig::record_actions is set — the chaos isolation test
  /// compares these bit-for-bit.
  std::vector<std::uint32_t> actions;
  /// Per-decision latency in µs, recorded when record_latencies is set.
  std::vector<double> decide_us;
  /// PolicyStore snapshot version each decision executed against,
  /// recorded when record_actions is set. The reload chaos suite pins
  /// that this is monotone per session and that every entry names a
  /// published version — i.e. no decision ever saw a torn swap.
  std::vector<std::uint64_t> weight_versions;
};

/// One live DAG session inside the service: the env, the graph it
/// observes (owned here — SimEngine and StateEncoder keep raw pointers
/// into it, so the address must be stable for the session's lifetime),
/// an MCT scratch scheduler for deadline degrades, and the per-session
/// action stream. Non-movable for the same pointer-stability reason;
/// the service holds sessions by unique_ptr.
class Session {
 public:
  /// `attempt` counts retries (0 = first run): the env seed is derived
  /// from (spec.seed, attempt) so a transient-fault resubmission replays
  /// under a fresh fault/noise stream while staying deterministic.
  /// `incremental_encoding` selects the IncrementalEncoder for this
  /// session's env (bit-identical observations; the long-lived serving
  /// path wants the amortized encode). `sparse_ahat` then skips the dense
  /// Â the f32simd backend never reads (SchedulingEnv::Config).
  Session(std::uint64_t id, SessionSpec spec, const sim::Platform& platform,
          std::shared_ptr<const dag::TaskGraph> graph, int window,
          int attempt = 0, bool incremental_encoding = false,
          bool sparse_ahat = false);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  const SessionSpec& spec() const noexcept { return spec_; }
  int attempt() const noexcept { return attempt_; }
  std::shared_ptr<const dag::TaskGraph> graph() const noexcept {
    return graph_;
  }

  rl::SchedulingEnv& env() noexcept { return env_; }
  const rl::Observation& observation() const noexcept {
    return env_.observation();
  }
  bool done() const noexcept { return env_.done(); }

  /// Per-session action-sampling stream (independent of every other
  /// session, so batch composition cannot perturb this session's draws).
  util::Rng& action_rng() noexcept { return action_rng_; }

  /// True when this session's policy output must be poisoned at the
  /// given decision ordinal (chaos_nan_after hook).
  bool poison_at(std::size_t decision) const noexcept {
    return spec_.chaos_nan_after >= 0 &&
           decision >= static_cast<std::size_t>(spec_.chaos_nan_after);
  }

  /// One-shot MCT degrade: answers the current decision instant from
  /// sched::one_shot_mct over the live engine state, mapped into the
  /// observation's action space. Falls back to ∅ (when legal) or the
  /// cheapest ready task on the offered resource when MCT binds nothing
  /// to the current processor.
  std::size_t mct_action();

  /// Accumulating result record; the service fills state/error on
  /// retirement.
  SessionResult& result() noexcept { return result_; }

 private:
  std::uint64_t id_;
  SessionSpec spec_;
  int attempt_;
  std::shared_ptr<const dag::TaskGraph> graph_;
  rl::SchedulingEnv env_;
  sched::MctScheduler mct_scratch_;
  util::Rng action_rng_;
  SessionResult result_;
};

}  // namespace readys::serve
