#include "dag/window.hpp"

#include <unordered_map>

namespace readys::dag {

std::size_t Window::position_of(TaskId t) const noexcept {
  if (!index.empty()) {
    const auto it = index.find(t);
    return it != index.end() ? it->second : npos;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == t) return i;
  }
  return npos;
}

namespace {

/// The one BFS behind both entry points. `row_of(t)` returns t's row in
/// `w` or Window::npos; `set_row(t, i)` records a new row. Seeds come
/// first, then descendants in BFS order; edges are listed by source row,
/// then in successor order.
template <class RowOf, class SetRow>
void build_window(const TaskGraph& graph, const std::vector<TaskId>& seeds,
                  int window, Window& w, RowOf row_of, SetRow set_row) {
  auto add_node = [&](TaskId t, int d) {
    if (row_of(t) != Window::npos) return;
    set_row(t, w.nodes.size());
    w.nodes.push_back(t);
    w.depth.push_back(d);
  };

  for (TaskId s : seeds) add_node(s, 0);
  // BFS over successors: nodes are appended in depth order, so a simple
  // scan with an advancing cursor implements the queue.
  for (std::size_t cursor = 0; cursor < w.nodes.size(); ++cursor) {
    const int d = w.depth[cursor];
    if (d >= window) continue;
    for (TaskId s : graph.successors(w.nodes[cursor])) add_node(s, d + 1);
  }
  // Induced edges among retained nodes.
  for (std::size_t i = 0; i < w.nodes.size(); ++i) {
    for (TaskId s : graph.successors(w.nodes[i])) {
      const std::size_t j = row_of(s);
      if (j != Window::npos) w.edges.emplace_back(i, j);
    }
  }
}

}  // namespace

Window extract_window(const TaskGraph& graph,
                      const std::vector<TaskId>& seeds, int window) {
  Window w;
  auto& index = w.index;
  index.reserve(seeds.size() * 4);
  build_window(
      graph, seeds, window, w,
      [&](TaskId t) {
        const auto it = index.find(t);
        return it != index.end() ? it->second : Window::npos;
      },
      [&](TaskId t, std::size_t i) { index.emplace(t, i); });
  return w;
}

void extract_window_into(const TaskGraph& graph,
                         const std::vector<TaskId>& seeds, int window,
                         std::vector<std::size_t>& row_of, Window& out) {
  for (TaskId t : out.nodes) row_of[t] = Window::npos;
  out.nodes.clear();
  out.depth.clear();
  out.edges.clear();
  out.index.clear();
  build_window(
      graph, seeds, window, out,
      [&](TaskId t) { return row_of[t]; },
      [&](TaskId t, std::size_t i) { row_of[t] = i; });
}

}  // namespace readys::dag
