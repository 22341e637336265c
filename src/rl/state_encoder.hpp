#pragma once

#include <cstdint>
#include <vector>

#include "dag/features.hpp"
#include "dag/window.hpp"
#include "nn/gcn.hpp"
#include "sim/engine.hpp"
#include "sim/engine_view.hpp"
#include "tensor/tensor.hpp"

namespace readys::rl {

/// One observation of the MDP: the window sub-DAG with per-node features,
/// its normalized adjacency, the candidate actions (ready tasks + the
/// optional ∅), and a platform-agnostic resource-state vector.
struct Observation {
  dag::Window window;
  tensor::Tensor features;  ///< |window| x node_feature_width
  tensor::Tensor ahat;      ///< |window| x |window| renormalized adjacency
  /// CSR view of `ahat` (same values bit for bit; see
  /// nn::normalized_adjacency_csr). Both encoders fill it; the f32
  /// inference backend consumes it to stay O(nnz) per decision. Empty on
  /// hand-assembled observations — consumers must fall back to `ahat`.
  nn::SparseAdj ahat_csr;
  std::vector<std::size_t> ready_positions;  ///< rows that are ready tasks
  std::vector<dag::TaskId> ready_tasks;      ///< aligned with positions
  tensor::Tensor resource_state;             ///< 1 x resource_feature_width
  sim::ResourceId current_resource = -1;
  bool allow_idle = false;  ///< the ∅ action is legal (something running)

  /// Number of legal actions: ready tasks (+1 when ∅ is allowed).
  std::size_t num_actions() const noexcept {
    return ready_tasks.size() + (allow_idle ? 1 : 0);
  }
  /// Index of the ∅ action within the action distribution (== number of
  /// ready tasks). Only meaningful when allow_idle.
  std::size_t idle_action() const noexcept { return ready_tasks.size(); }
};

/// Builds Observations from a SimEngine. Holds the per-graph static
/// features (computed once) so per-decision encoding touches only the
/// window.
class StateEncoder {
 public:
  /// Per-node feature width: 2 degrees + one-hot type + descendant
  /// profile F + [ready, running, remaining, on-gpu] + normalized
  /// expected durations [on CPU, on GPU, on the current processor]. The
  /// duration triple is the "computing resource state" enrichment of the
  /// sub-DAG (Fig. 2): it lets task scores depend on the processor being
  /// offered, exactly the information MCT and HEFT read from the cost
  /// model.
  static int node_feature_width(int kernel_types) {
    return 2 + 2 * kernel_types + 4 + 3;
  }
  /// Width of the resource-state summary vector.
  static constexpr int kResourceFeatureWidth = 8;

  StateEncoder(const dag::TaskGraph& graph, const sim::CostModel& costs,
               int window);

  /// Encodes the state at a decision instant for `current` (an idle
  /// resource). Seeds of the window are the running tasks followed by the
  /// ready tasks, as in Fig. 1 of the paper.
  ///
  /// `allow_idle` marks the ∅ action legal. It must be false exactly when
  /// declining would deadlock: nothing is running AND no other idle
  /// resource is left to be offered at this instant. The overload without
  /// the flag derives the weaker any_running() condition, sufficient for
  /// standalone encoding.
  Observation encode(const sim::EngineView& engine, sim::ResourceId current,
                     bool allow_idle) const;
  Observation encode(const sim::EngineView& engine,
                     sim::ResourceId current) const;

  int window() const noexcept { return window_; }
  const dag::StaticFeatures& static_features() const noexcept {
    return static_;
  }
  const dag::TaskGraph& graph() const noexcept { return *graph_; }
  const sim::CostModel& costs() const noexcept { return costs_; }
  /// Normalization constant for all duration-valued features.
  double time_scale() const noexcept { return time_scale_; }

 private:
  const dag::TaskGraph* graph_;
  dag::StaticFeatures static_;
  sim::CostModel costs_;  ///< copied: tiny, and temporaries stay safe
  int window_;
  double time_scale_;  ///< max expected kernel duration on a CPU
};

/// Incremental counterpart of StateEncoder for the inference fast path.
/// Produces Observations bit-identical to StateEncoder::encode on the
/// same engine state, but amortizes the per-decision work:
///
///  - static feature columns (degrees, type one-hot, descendant profile
///    F(i)) and the normalized CPU/GPU duration columns are precomputed
///    once per graph into a base-row table and copied, never re-derived;
///  - the window sub-DAG and Â are rebuilt only when the seed lists
///    (running tasks then ready tasks) changed since the last encode —
///    consecutive offers at the same decision instant with no start in
///    between (∅ declines) reuse both outright;
///  - a rebuild works in place: it reuses the observation's node, depth
///    and edge buffers, indexes tasks through a dense task -> row table
///    (dag::extract_window_into) and keeps the CSR build's scratch;
///  - even across a rebuild, Â is reused when the induced edge set is
///    unchanged (e.g. periodic re-encodes of a quiescent state);
///  - dynamic columns are written as deltas: the running columns touched
///    by the previous encode are undone and only the current running
///    set is rewritten (O(R) instead of O(n·R)).
///
/// The ready bit is rescanned for every window row each encode because
/// readiness is a global DAG fact that can change without the scoped
/// seed lists changing (shard-scoped EngineViews). The resource-state
/// summary is always recomputed — it is O(P) and time-dependent.
///
/// The returned reference stays valid until the next encode() call.
/// Not thread-safe: one IncrementalEncoder per scheduler/session.
class IncrementalEncoder {
 public:
  IncrementalEncoder(const dag::TaskGraph& graph, const sim::CostModel& costs,
                     int window);

  /// See StateEncoder::encode for semantics; the result is bit-identical.
  const Observation& encode(const sim::EngineView& engine,
                            sim::ResourceId current, bool allow_idle);
  const Observation& encode(const sim::EngineView& engine,
                            sim::ResourceId current);

  /// The observation produced by the last encode() call.
  const Observation& observation() const noexcept { return obs_; }

  /// Drops the cached topology; the next encode() rebuilds from scratch.
  /// Reuse across engine resets is safe without this (dynamic state is
  /// re-derived from the engine every encode); call it when the encoder
  /// is re-pointed at a different engine for the same graph.
  void invalidate() noexcept { valid_ = false; }

  /// When on, observations carry Â only as the CSR view (ahat_csr) and
  /// `ahat` is left an empty 0x0 tensor so a dense consumer fails loudly
  /// instead of reading stale numbers. Skipping the O(n^2) dense build is
  /// the point: the f32 inference backend never touches it.
  /// ReadysScheduler enables this for backend=f32simd. Off by default —
  /// the bit-identity contract with StateEncoder::encode needs the dense
  /// matrix present.
  void set_sparse_ahat(bool on) noexcept {
    sparse_ahat_ = on;
    valid_ = false;
  }

  int window() const noexcept { return window_; }
  std::uint64_t window_rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t window_reuses() const noexcept { return reuses_; }
  std::uint64_t ahat_reuses() const noexcept { return ahat_reuses_; }

 private:
  void rebuild_topology();

  const dag::TaskGraph* graph_;
  dag::StaticFeatures static_;
  sim::CostModel costs_;
  int window_;
  double time_scale_;
  int width_ = 0;           ///< node_feature_width(kernel_types)
  int base_ = 0;            ///< static_width(): first dynamic column
  tensor::Tensor base_rows_;  ///< num_tasks x width: static + duration cols

  Observation obs_;
  /// task -> row of obs_.window (npos off the window); see
  /// dag::extract_window_into. obs_.window.index stays empty.
  std::vector<std::size_t> row_of_;
  /// The window's edge list before the last rebuild (the same_ahat test).
  std::vector<std::pair<std::size_t, std::size_t>> prev_edges_;
  nn::CsrScratch csr_scratch_;
  std::vector<dag::TaskId> seeds_;          ///< seed signature of obs_
  std::vector<dag::TaskId> seeds_scratch_;  ///< this encode's seeds
  std::vector<std::size_t> running_rows_;   ///< rows with running cols set
  bool valid_ = false;
  bool sparse_ahat_ = false;  ///< see set_sparse_ahat
  int last_cur_gpu_ = -1;  ///< type feeding the base+6 column (-1 = stale)

  std::uint64_t rebuilds_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t ahat_reuses_ = 0;
};

}  // namespace readys::rl
