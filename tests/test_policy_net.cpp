#include <gtest/gtest.h>

#include "dag/cholesky.hpp"
#include "rl/policy_net.hpp"
#include "tensor/ops.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;
namespace rt = readys::tensor;

namespace {

rr::Observation make_observation(bool allow_idle, int w = 2) {
  static const rd::TaskGraph graph = rd::cholesky_graph(4);
  static const rs::Platform platform = rs::Platform::hybrid(2, 2);
  static const rs::CostModel costs = rs::CostModel::cholesky();
  rs::SimEngine engine(graph, platform, costs, 0.0, 1);
  if (allow_idle) {
    // Start the source so a task is running, then advance to get 3 ready
    // TRSMs with something running.
    engine.start(graph.sources().front(), 0);
    engine.advance();
    engine.start(engine.ready().front(), 1);
  }
  rr::IncrementalEncoder enc(graph, costs, w);
  return enc.encode(engine, 3, engine.any_running());
}

rr::AgentConfig small_config() {
  rr::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.gcn_layers = 2;
  cfg.seed = 11;
  return cfg;
}

}  // namespace

TEST(PolicyNet, OutputShapesWithoutIdle) {
  const auto obs = make_observation(false);
  rr::PolicyNet net(rr::node_feature_width(4), 8, small_config());
  const auto out = net.forward(obs);
  EXPECT_EQ(out.probs.cols(), obs.ready_tasks.size());
  EXPECT_EQ(out.log_probs.cols(), obs.ready_tasks.size());
  EXPECT_EQ(out.value.value().size(), 1u);
}

TEST(PolicyNet, OutputShapesWithIdle) {
  const auto obs = make_observation(true);
  ASSERT_TRUE(obs.allow_idle);
  rr::PolicyNet net(rr::node_feature_width(4), 8, small_config());
  const auto out = net.forward(obs);
  EXPECT_EQ(out.probs.cols(), obs.ready_tasks.size() + 1);
}

TEST(PolicyNet, ProbabilitiesAreADistribution) {
  const auto obs = make_observation(true);
  rr::PolicyNet net(rr::node_feature_width(4), 8, small_config());
  const auto p = net.forward(obs).probs.value();
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GT(p[i], 0.0);
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PolicyNet, DeterministicGivenSeed) {
  const auto obs = make_observation(true);
  rr::PolicyNet a(rr::node_feature_width(4), 8, small_config());
  rr::PolicyNet b(rr::node_feature_width(4), 8, small_config());
  EXPECT_TRUE(a.forward(obs).probs.value() == b.forward(obs).probs.value());
}

TEST(PolicyNet, DifferentSeedsDiffer) {
  const auto obs = make_observation(true);
  auto cfg2 = small_config();
  cfg2.seed = 99;
  rr::PolicyNet a(rr::node_feature_width(4), 8, small_config());
  rr::PolicyNet b(rr::node_feature_width(4), 8, cfg2);
  EXPECT_FALSE(a.forward(obs).probs.value() ==
               b.forward(obs).probs.value());
}

TEST(PolicyNet, GradientsReachEveryParameter) {
  const auto obs = make_observation(true);
  rr::PolicyNet net(rr::node_feature_width(4), 8, small_config());
  const auto out = net.forward(obs);
  // Loss touching the policy, the value and the entropy heads.
  rt::Var loss = rt::add(
      rt::pick(out.log_probs, 0, 0),
      rt::add(rt::square(out.value), rt::entropy_row(out.probs)));
  loss.backward();
  for (const auto& [name, p] : net.named_parameters()) {
    EXPECT_GT(p.grad().abs_max(), 0.0) << name;
  }
}

TEST(PolicyNet, RejectsEmptyReadySet) {
  auto obs = make_observation(false);
  obs.ready_tasks.clear();
  obs.ready_positions.clear();
  rr::PolicyNet net(rr::node_feature_width(4), 8, small_config());
  EXPECT_THROW(net.forward(obs), std::invalid_argument);
}

TEST(PolicyNet, RequiresAtLeastOneGcnLayer) {
  auto cfg = small_config();
  cfg.gcn_layers = 0;
  EXPECT_THROW(rr::PolicyNet(rr::node_feature_width(4), 8, cfg), std::invalid_argument);
}

TEST(PolicyNet, ParameterCountScalesWithConfig) {
  auto cfg = small_config();
  rr::PolicyNet small(rr::node_feature_width(4), 8, cfg);
  cfg.hidden = 32;
  rr::PolicyNet big(rr::node_feature_width(4), 8, cfg);
  EXPECT_GT(big.parameter_count(), small.parameter_count());
  EXPECT_EQ(small.num_gcn_layers(), 2);
}
