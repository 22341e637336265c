#include <gtest/gtest.h>

#include <algorithm>

#include "dag/cholesky.hpp"
#include "dag/window.hpp"

namespace rd = readys::dag;

namespace {

/// 0 -> 1 -> 2 -> 3 -> 4 chain.
rd::TaskGraph chain(int n) {
  rd::TaskGraph g("chain", {"A"});
  for (int i = 0; i < n; ++i) g.add_task(0);
  for (rd::TaskId i = 0; i + 1 < g.num_tasks(); ++i) g.add_edge(i, i + 1);
  return g;
}

}  // namespace

TEST(Window, DepthZeroKeepsOnlySeeds) {
  const auto g = chain(5);
  const auto w = rd::extract_window(g, {0}, 0);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.nodes[0], 0u);
  EXPECT_TRUE(w.edges.empty());
}

TEST(Window, DepthLimitsBfs) {
  const auto g = chain(5);
  for (int depth = 0; depth <= 4; ++depth) {
    const auto w = rd::extract_window(g, {0}, depth);
    EXPECT_EQ(w.size(), static_cast<std::size_t>(depth + 1));
    // Edges of a chain restricted to the window: depth of them.
    EXPECT_EQ(w.edges.size(), static_cast<std::size_t>(depth));
  }
}

TEST(Window, SeedsComeFirstWithDepthZero) {
  const auto g = chain(5);
  const auto w = rd::extract_window(g, {2, 0}, 2);
  ASSERT_GE(w.size(), 2u);
  EXPECT_EQ(w.nodes[0], 2u);
  EXPECT_EQ(w.nodes[1], 0u);
  EXPECT_EQ(w.depth[0], 0);
  EXPECT_EQ(w.depth[1], 0);
}

TEST(Window, DuplicateReachableNodeKeptOnce) {
  const auto g = chain(4);
  // Seeds 0 and 1: node 1 is both a seed and a successor of 0.
  const auto w = rd::extract_window(g, {0, 1}, 3);
  std::vector<rd::TaskId> nodes = w.nodes;
  std::sort(nodes.begin(), nodes.end());
  EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end());
  EXPECT_EQ(w.size(), 4u);
  // Seed status wins: depth of node 1 is 0, not 1.
  EXPECT_EQ(w.depth[w.position_of(1)], 0);
}

TEST(Window, InducedEdgesOnly) {
  const auto g = rd::cholesky_graph(4);
  const auto w = rd::extract_window(g, {g.sources().front()}, 1);
  for (const auto& [u, v] : w.edges) {
    ASSERT_LT(u, w.size());
    ASSERT_LT(v, w.size());
    EXPECT_TRUE(g.has_edge(w.nodes[u], w.nodes[v]));
  }
}

TEST(Window, FullDepthCoversReachableSet) {
  const auto g = rd::cholesky_graph(4);
  const auto src = g.sources().front();
  const auto w =
      rd::extract_window(g, {src}, static_cast<int>(g.num_tasks()));
  // Everything is reachable from the single source.
  EXPECT_EQ(w.size(), g.num_tasks());
  EXPECT_EQ(w.edges.size(), g.num_edges());
}

TEST(Window, PositionOfMissingReturnsNpos) {
  const auto g = chain(5);
  const auto w = rd::extract_window(g, {0}, 1);
  EXPECT_EQ(w.position_of(4), rd::Window::npos);
  EXPECT_EQ(w.position_of(0), 0u);
}

TEST(Window, DepthValuesAreShortestDistances) {
  // Diamond with a long route: 0->1->2->3 and 0->3. Depth of 3 must be 1.
  rd::TaskGraph g("d", {"A"});
  for (int i = 0; i < 4; ++i) g.add_task(0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  const auto w = rd::extract_window(g, {0}, 3);
  EXPECT_EQ(w.depth[w.position_of(3)], 1);
}

TEST(Window, InPlaceExtractMatchesFreshExtractAcrossReuse) {
  // One Window and one dense row table reused across seed sets that grow,
  // shrink and overlap: every result must equal a fresh extract_window,
  // and the table must hold exactly the current window's rows.
  const auto g = rd::cholesky_graph(6);
  const std::vector<std::vector<rd::TaskId>> seed_sets = {
      {0}, {1, 2, 3}, {4}, {0, 7, 9, 12}, {}, {20, 1},
      {static_cast<rd::TaskId>(g.num_tasks() - 1)},
      {5, 6, 7, 8, 9, 10, 11}};
  std::vector<std::size_t> row_of(g.num_tasks(), rd::Window::npos);
  rd::Window w;
  for (const int depth : {0, 1, 2, 3}) {
    for (const auto& seeds : seed_sets) {
      rd::extract_window_into(g, seeds, depth, row_of, w);
      const rd::Window fresh = rd::extract_window(g, seeds, depth);
      ASSERT_EQ(w.nodes, fresh.nodes);
      ASSERT_EQ(w.depth, fresh.depth);
      ASSERT_EQ(w.edges, fresh.edges);
      EXPECT_TRUE(w.index.empty());
      std::size_t set = 0;
      for (rd::TaskId t = 0; t < g.num_tasks(); ++t) {
        const std::size_t row = row_of[t];
        EXPECT_EQ(row, fresh.position_of(t)) << "task " << t;
        EXPECT_EQ(w.position_of(t), row) << "task " << t;
        if (row != rd::Window::npos) ++set;
      }
      EXPECT_EQ(set, w.size());
    }
  }
}
