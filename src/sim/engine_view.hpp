#pragma once

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace readys::sim {

class EngineView;

/// Shard-scoped observable state behind an EngineView: the cluster
/// layer's ShardScheduler publishes one per shard. It holds only what
/// makes a view *scoped* — the shard's resources, its owned ready set,
/// its running list, and liveness/availability masked to its members —
/// plus the static context copied from `base`, and answers every other
/// global fact (comm model, readiness, completion, producers,
/// durations) through `base`.
///
/// Every pointer is required, non-owning, and must outlive the views
/// built on top.
struct EngineState {
  // Scalars, refreshed by the owner before handing out views.
  double now = 0.0;
  bool fault_enabled = false;
  /// Global "anything in flight" flag. Deliberately global even for
  /// shard-scoped views: the simulator's stall rule (the empty action is
  /// illegal when nothing runs anywhere) is a whole-platform property.
  bool any_running = false;

  const std::vector<ResourceId>* resources = nullptr;  ///< visible, ascending
  const std::vector<dag::TaskId>* ready = nullptr;     ///< ascending ids
  const std::vector<dag::TaskId>* ready_log = nullptr; ///< append-only
  const std::vector<RunningInfo>* running = nullptr;   ///< start order
  const std::vector<std::uint8_t>* up = nullptr;       ///< per resource
  /// Resolved availability per resource: max(now, expected finish),
  /// +inf when down or outside the scope.
  const std::vector<double>* avail = nullptr;

  /// Static context, the same objects `base` returns. Held directly:
  /// reaching them through `base` measured slower on the cluster
  /// benchmark workload.
  const dag::TaskGraph* graph = nullptr;
  const Platform* platform = nullptr;
  const CostModel* costs = nullptr;

  /// The full view global facts come from (engine-backed, or another
  /// scoped view when shard families nest).
  const EngineView* base = nullptr;
};

/// Read-only window onto simulation state — the surface schedulers see.
///
/// Non-virtual by design: the decide() hot path runs millions of times
/// per second and every accessor is one predictable branch between the
/// two backends. Engine-backed views convert implicitly from SimEngine
/// so call sites (`scheduler.decide(engine)`) stay source-compatible;
/// shard-scoped views (EngineState) let the cluster layer present one
/// shard's part of the platform through the same interface without
/// SimEngine inheriting anything.
///
/// Views are cheap value types (two pointers); they do not own state and
/// must not outlive the engine or EngineState they wrap.
class EngineView {
 public:
  /*implicit*/ EngineView(const SimEngine& engine) : engine_(&engine) {}
  /// Throws std::invalid_argument if `state.base` is null.
  explicit EngineView(const EngineState& state) : state_(&state) {
    if (state.base == nullptr) {
      throw std::invalid_argument(
          "EngineView: a scoped EngineState needs a base view");
    }
  }

  double now() const noexcept {
    return engine_ ? engine_->now() : state_->now;
  }
  const dag::TaskGraph& graph() const noexcept {
    return engine_ ? engine_->graph() : *state_->graph;
  }
  const Platform& platform() const noexcept {
    return engine_ ? engine_->platform() : *state_->platform;
  }
  const CostModel& costs() const noexcept {
    return engine_ ? engine_->costs() : *state_->costs;
  }

  /// Visible resource ids, ascending. The full view of a P-resource
  /// platform sees 0..P-1; a shard-scoped view sees only its own
  /// resources — which is what makes per-shard decide scans O(P/K).
  const std::vector<ResourceId>& resources() const noexcept {
    return engine_ ? engine_->platform().ids() : *state_->resources;
  }

  const std::vector<dag::TaskId>& ready() const noexcept {
    return engine_ ? engine_->ready() : *state_->ready;
  }
  const std::vector<dag::TaskId>& ready_log() const noexcept {
    return engine_ ? engine_->ready_log() : *state_->ready_log;
  }
  const std::vector<RunningInfo>& running() const noexcept {
    return engine_ ? engine_->running() : *state_->running;
  }
  bool any_running() const noexcept {
    return engine_ ? engine_->any_running() : state_->any_running;
  }

  /// Readiness is a DAG fact, not an ownership fact: a scoped view
  /// answers globally even for tasks its shard does not own (its
  /// ready() list stays scoped).
  bool is_ready(dag::TaskId t) const noexcept {
    return engine_ ? engine_->is_ready(t) : state_->base->is_ready(t);
  }
  bool is_up(ResourceId r) const {
    if (engine_) return engine_->is_up(r);
    return (*state_->up)[static_cast<std::size_t>(r)] != 0;
  }
  bool is_idle(ResourceId r) const {
    if (engine_) return engine_->is_idle(r);
    return (*state_->up)[static_cast<std::size_t>(r)] != 0 &&
           running_on(r) == dag::kInvalidTask;
  }
  bool is_done(dag::TaskId t) const {
    return engine_ ? engine_->is_done(t) : state_->base->is_done(t);
  }
  dag::TaskId running_on(ResourceId r) const {
    return engine_ ? engine_->running_on(r) : state_->base->running_on(r);
  }
  /// Resource that produced t's output, or -1 while t is incomplete.
  ResourceId producer_of(dag::TaskId t) const {
    return engine_ ? engine_->producer_of()[t] : state_->base->producer_of(t);
  }

  bool fault_enabled() const noexcept {
    return engine_ ? engine_->fault_enabled() : state_->fault_enabled;
  }
  bool has_comm_model() const noexcept {
    return engine_ ? engine_->has_comm_model()
                   : state_->base->has_comm_model();
  }
  /// The communication model behind this view, or nullptr.
  const CommModel* comm_model() const noexcept {
    return engine_ ? engine_->comm_model() : state_->base->comm_model();
  }

  double expected_duration(dag::TaskId t, ResourceId r) const {
    return engine_ ? engine_->expected_duration(t, r)
                   : state_->base->expected_duration(t, r);
  }

  /// Visible idle resources, ascending (scoped views report only their
  /// own shard's). Materializes a vector like SimEngine::idle_resources.
  std::vector<ResourceId> idle_resources() const;

  /// See SimEngine::expected_available_at; a scoped view reads its
  /// resolved `avail` table.
  double expected_available_at(ResourceId r) const {
    if (engine_) return engine_->expected_available_at(r);
    return (*state_->avail)[static_cast<std::size_t>(r)];
  }

  /// See SimEngine::expected_input_delay; 0 without a comm model.
  double expected_input_delay(dag::TaskId t, ResourceId r) const {
    return engine_ ? engine_->expected_input_delay(t, r)
                   : state_->base->expected_input_delay(t, r);
  }

 private:
  const SimEngine* engine_ = nullptr;
  const EngineState* state_ = nullptr;
};

}  // namespace readys::sim
