// Poison-session isolation: one tenant's policy goes NaN mid-stream and
// the service quarantines it — while every other tenant's decision
// trace stays bit-identical to a run where the poison session never
// existed. This is the serving-layer fault-isolation contract, and it
// rests on forward_batched matching per-observation forward bit-for-bit
// (pinned by test_policy_net), per-session action RNG streams, and
// deadlines disabled so no wall-clock coupling sneaks in.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/readys.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rv = readys::serve;

namespace {

rr::AgentConfig small_agent() {
  rr::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = 3;
  return cfg;
}

rv::SessionSpec healthy_spec(rc::App app, int tiles, std::uint64_t seed) {
  rv::SessionSpec s;
  s.app = app;
  s.tiles = tiles;
  s.seed = seed;
  s.deadline_us = -1.0;  // no wall-clock coupling in this proof
  return s;
}

/// The healthy tenants of the experiment: a mixed catalog so the poison
/// session shares block-diagonal batches with every app shape.
std::vector<rv::SessionSpec> healthy_specs() {
  return {
      healthy_spec(rc::App::kCholesky, 4, 11),
      healthy_spec(rc::App::kLu, 3, 22),
      healthy_spec(rc::App::kQr, 3, 33),
  };
}

rv::SessionSpec poison_spec() {
  rv::SessionSpec bad = healthy_spec(rc::App::kCholesky, 4, 66);
  bad.chaos_nan_after = 3;  // healthy for 3 decisions, then NaN forever
  return bad;
}

struct RunOutcome {
  std::vector<rv::SessionResult> healthy;  // in submit order
  rv::SessionResult poison;
  bool had_poison = false;
};

/// Runs the scenario with or without the poison tenant; sampling mode
/// (greedy=false) makes the test sensitive to *any* probability drift,
/// not just argmax flips.
RunOutcome run_scenario(const rr::PolicyNet& net,
                        const rr::AgentConfig& agent, int workers,
                        bool with_poison) {
  rv::ServiceConfig sc;
  sc.workers = workers;
  sc.max_active = 4;  // everyone shares one decision round
  sc.record_actions = true;
  sc.greedy = false;
  rv::DecisionService svc(net, agent, sc);

  std::vector<std::uint64_t> healthy_ids;
  std::uint64_t poison_id = 0;
  const auto specs = healthy_specs();
  // Poison in the middle of the batch, not at an edge.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (with_poison && i == 1) {
      poison_id = svc.submit(poison_spec()).id;
    }
    healthy_ids.push_back(svc.submit(specs[i]).id);
  }

  if (workers == 0) {
    for (int guard = 0;; ++guard) {
      if (guard >= 100000) {
        ADD_FAILURE() << "pump did not drain";
        break;
      }
      if (svc.pump() == 0 && svc.queue_depth() == 0) break;
    }
  } else {
    svc.shutdown();
  }

  RunOutcome out;
  for (const auto& r : svc.results()) {
    if (with_poison && r.id == poison_id) {
      out.poison = r;
      out.had_poison = true;
      continue;
    }
    out.healthy.push_back(r);
  }
  if (workers == 0) svc.shutdown();
  return out;
}

void expect_bit_identical_isolation(const rr::PolicyNet& net,
                                    const rr::AgentConfig& agent,
                                    int workers) {
  RunOutcome with_poison = run_scenario(net, agent, workers, true);
  RunOutcome clean = run_scenario(net, agent, workers, false);

  // The poison tenant was quarantined after its healthy prefix.
  ASSERT_TRUE(with_poison.had_poison);
  EXPECT_EQ(with_poison.poison.state, rv::SessionState::kQuarantined);
  EXPECT_EQ(with_poison.poison.error, "non-finite policy probability");
  EXPECT_EQ(with_poison.poison.decisions, 3u);
  EXPECT_EQ(with_poison.poison.actions.size(), 3u);

  // Everyone else: bit-identical traces and makespans, as if the poison
  // session had never been admitted.
  ASSERT_EQ(with_poison.healthy.size(), clean.healthy.size());
  for (std::size_t i = 0; i < clean.healthy.size(); ++i) {
    const auto& a = with_poison.healthy[i];
    const auto& b = clean.healthy[i];
    EXPECT_EQ(a.state, rv::SessionState::kCompleted);
    EXPECT_EQ(b.state, rv::SessionState::kCompleted);
    EXPECT_EQ(a.actions, b.actions) << "trace diverged for tenant " << i;
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.decisions, b.decisions);
  }
}

}  // namespace

TEST(ChaosPoisonSession, PumpModeNeighborsBitIdentical) {
  const auto agent = small_agent();
  const rr::PolicyNet net(rr::node_feature_width(4),
                          rr::kResourceFeatureWidth, agent);
  expect_bit_identical_isolation(net, agent, /*workers=*/0);
}

TEST(ChaosPoisonSession, WorkerThreadsNeighborsBitIdentical) {
  // Same proof under real worker threads: batch composition now depends
  // on timing, which is exactly the point — decisions may not.
  const auto agent = small_agent();
  const rr::PolicyNet net(rr::node_feature_width(4),
                          rr::kResourceFeatureWidth, agent);
  expect_bit_identical_isolation(net, agent, /*workers=*/2);
}

TEST(ChaosPoisonSession, PoisonFromDecisionZeroIsQuarantinedImmediately) {
  const auto agent = small_agent();
  const rr::PolicyNet net(rr::node_feature_width(4),
                          rr::kResourceFeatureWidth, agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);

  rv::SessionSpec bad = healthy_spec(rc::App::kCholesky, 3, 9);
  bad.chaos_nan_after = 0;
  svc.submit(bad);
  svc.pump();

  const auto results = svc.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, rv::SessionState::kQuarantined);
  EXPECT_EQ(results[0].decisions, 0u);
  EXPECT_TRUE(results[0].actions.empty());
  svc.shutdown();
}
