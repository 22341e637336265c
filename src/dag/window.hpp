#pragma once

#include <unordered_map>
#include <vector>

#include "dag/task_graph.hpp"

namespace readys::dag {

/// The sliding-window sub-DAG the agent observes: running tasks, ready
/// tasks, and every descendant whose depth (shortest distance from a
/// running/ready task) is <= `window`.
struct Window {
  /// Sub-DAG nodes, as ids into the full graph. Seeds (running/ready)
  /// come first, then descendants in BFS order.
  std::vector<TaskId> nodes;
  /// Induced dependency edges as index pairs into `nodes`.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  /// BFS depth of each node (0 for seeds).
  std::vector<int> depth;
  /// task id -> position in `nodes`; filled by extract_window. Windows
  /// assembled by hand or by extract_window_into leave it empty —
  /// position_of then falls back to a linear scan.
  std::unordered_map<TaskId, std::size_t> index;

  std::size_t size() const noexcept { return nodes.size(); }

  /// Position of a task inside `nodes`, or npos if absent. O(1) via the
  /// index map when present, O(n) scan otherwise.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t position_of(TaskId t) const noexcept;
};

/// Extracts the window sub-DAG. `seeds` are the running and ready tasks
/// (deduplicated by the caller); `window` is the paper's w parameter
/// (w = 0 keeps only the seeds).
Window extract_window(const TaskGraph& graph, const std::vector<TaskId>& seeds,
                      int window);

/// In-place extract_window for callers that rebuild a window at every
/// decision (rl::IncrementalEncoder): reuses `out`'s node, depth and edge
/// buffers and indexes tasks through `row_of`, a dense task -> row table
/// of graph.num_tasks() entries, instead of a hash map. On entry `row_of`
/// must be Window::npos everywhere except at `out`'s current nodes (an
/// all-npos table with an empty `out` to start); only those entries are
/// reset, and on return it holds the new window's rows. Nodes, depths
/// and edges equal extract_window's, in the same order; `out.index` is
/// left empty.
void extract_window_into(const TaskGraph& graph,
                         const std::vector<TaskId>& seeds, int window,
                         std::vector<std::size_t>& row_of, Window& out);

}  // namespace readys::dag
