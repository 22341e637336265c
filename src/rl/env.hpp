#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>

#include "rl/state_encoder.hpp"
#include "sim/engine.hpp"

namespace readys::rl {

/// The paper's MDP as a step-based environment.
///
/// A decision instant occurs whenever at least one resource is idle and
/// at least one task is ready; a "current processor" is drawn uniformly
/// at random among the idle resources that have not declined at this
/// instant. The action space is {ready tasks} ∪ {∅}; picking ∅ parks the
/// current processor until the next completion event. ∅ is masked when
/// nothing is running (it would deadlock the system). The reward is zero
/// until the terminal state, where it is
///   (makespan(HEFT) − makespan) / makespan(HEFT)
/// with makespan(HEFT) the deterministic expected-duration HEFT makespan
/// (cached at construction).
class SchedulingEnv {
 public:
  struct Config {
    double sigma = 0.0;
    int window = 1;
    std::uint64_t seed = 1;
    /// Draw the current processor uniformly among idle candidates (the
    /// paper's wording). Off by default: offering the lowest-index idle
    /// resource first is strategically equivalent (∅ lets the agent pass
    /// a processor on to the next) but removes a large exogenous noise
    /// source from the returns, which stabilizes A2C substantially.
    bool random_offer = false;
    /// Fault injection for the episode engine. Down resources drop out
    /// of the candidate set (the action mask only ever offers idle, up
    /// resources), and tasks whose execution was lost reappear in the
    /// ready actions. none() keeps the environment bit-exact with the
    /// fault-free construction.
    sim::FaultModel faults = sim::FaultModel::none();
    /// Maintain observations with the IncrementalEncoder (bit-identical
    /// to the full encoder by contract; see state_encoder.hpp). Off by
    /// default: the training loop keeps its historical code path, serve
    /// sessions turn it on.
    bool incremental_encoding = false;
    /// With incremental_encoding: observations carry Â as the CSR view
    /// only and leave the dense `ahat` empty (see
    /// IncrementalEncoder::set_sparse_ahat). For consumers that read
    /// ahat_csr alone — the f32simd backend; serve sessions set it from
    /// the service's backend kind. Ignored by the full encoder.
    bool sparse_ahat = false;
  };

  struct StepResult {
    double reward = 0.0;
    bool done = false;
  };

  SchedulingEnv(const dag::TaskGraph& graph, const sim::Platform& platform,
                const sim::CostModel& costs, Config config);

  /// Starts a new episode and returns the first observation (the same
  /// object observation() refers to, so the old reset-then-observe()
  /// two-call sequence keeps working). Passing a seed reseeds every
  /// stream (noise, faults, processor draw); omitting it replays the
  /// configured seed — reset() is deterministic and idempotent.
  const Observation& reset(std::optional<std::uint64_t> seed = std::nullopt);

  /// Applies action `a` (index into observation().num_actions(): the
  /// ready tasks in order, then ∅ if allowed) and advances to the next
  /// decision instant or the terminal state.
  StepResult step(std::size_t a);

  /// Valid between reset() and a step() returning done.
  const Observation& observation() const noexcept {
    return inc_ ? inc_->observation() : obs_;
  }

  bool done() const noexcept { return engine_.finished(); }
  double makespan() const noexcept { return engine_.makespan(); }
  /// The reward denominator: expected-duration HEFT makespan.
  double heft_reference() const noexcept { return heft_ref_; }
  std::size_t decisions_this_episode() const noexcept { return decisions_; }

  const sim::SimEngine& engine() const noexcept { return engine_; }
  const StateEncoder& encoder() const noexcept { return encoder_; }

 private:
  /// Advances the engine until a decision is possible (or termination)
  /// and encodes the observation.
  void advance_to_decision();

  /// Idle resources that have not declined at the current instant.
  std::vector<sim::ResourceId> candidates() const;

  sim::SimEngine engine_;
  StateEncoder encoder_;
  std::unique_ptr<IncrementalEncoder> inc_;  ///< when incremental_encoding
  Config config_;
  util::Rng action_rng_;  ///< current-processor draw (independent of noise)
  double heft_ref_;
  Observation obs_;
  std::unordered_set<int> declined_;  ///< resources parked by ∅ this instant
  std::size_t decisions_ = 0;
};

}  // namespace readys::rl
