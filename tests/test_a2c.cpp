#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "dag/cholesky.hpp"
#include "rl/a2c.hpp"
#include "util/stats.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;

namespace {

rr::AgentConfig tiny_config() {
  rr::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.unroll = 16;
  cfg.lr = 3e-3;
  cfg.seed = 5;
  return cfg;
}

}  // namespace

TEST(A2C, SelectActionGreedyPicksArgmax) {
  rr::AgentConfig cfg = tiny_config();
  const auto graph = rd::cholesky_graph(2);
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::PolicyNet::Output out;
  out.probs = readys::tensor::Var(
      readys::tensor::Tensor::from_rows({{0.1, 0.7, 0.2}}));
  readys::util::Rng rng(1);
  EXPECT_EQ(trainer.select_action(out, true, rng), 1u);
}

TEST(A2C, SelectActionSamplingMatchesDistribution) {
  rr::AgentConfig cfg = tiny_config();
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::PolicyNet::Output out;
  out.probs = readys::tensor::Var(
      readys::tensor::Tensor::from_rows({{0.25, 0.75}}));
  readys::util::Rng rng(2);
  int count1 = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (trainer.select_action(out, false, rng) == 1u) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(A2C, TrainingRunsAndReportsEveryEpisode) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::SchedulingEnv env(graph, platform, costs, {0.0, cfg.window, 1});
  const auto report = trainer.train(env, {.episodes = 8, .sigma = 0.0});
  EXPECT_EQ(report.episode_rewards.size(), 8u);
  EXPECT_EQ(report.episode_makespans.size(), 8u);
  EXPECT_GT(report.updates, 0u);
  EXPECT_GT(report.best_makespan, 0.0);
  for (double mk : report.episode_makespans) {
    EXPECT_GE(mk, report.best_makespan);
  }
}

TEST(A2C, TrainingChangesParameters) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  std::vector<readys::tensor::Tensor> before;
  for (const auto& p : net.parameters()) before.push_back(p.value());
  rr::A2CTrainer trainer(net, cfg);
  rr::SchedulingEnv env(graph, platform, costs, {0.0, cfg.window, 1});
  trainer.train(env, {.episodes = 4});
  bool changed = false;
  const auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!(params[i].value() == before[i])) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(A2C, EvaluateIsGreedyDeterministic) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::SchedulingEnv env(graph, platform, costs, {0.0, cfg.window, 1});
  const auto a = trainer.evaluate(env, 3, 42, /*greedy=*/true);
  const auto b = trainer.evaluate(env, 3, 42, /*greedy=*/true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(A2C, SampledEvaluateIsIndependentOfTrainingHistory) {
  // Regression: evaluate() used to draw from the shared training
  // sample_rng_, so a sampled evaluation's result depended on how many
  // actions training had consumed beforehand. A zero-lr training burst
  // advances the training RNG without moving the weights; the two
  // sampled evaluations around it must still agree exactly.
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.lr = 0.0;
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::SchedulingEnv env(graph, platform, costs, {0.1, cfg.window, 1});
  const auto before = trainer.evaluate(env, 4, 77, /*greedy=*/false);
  trainer.train(env, {.episodes = 5});
  const auto after = trainer.evaluate(env, 4, 77, /*greedy=*/false);
  EXPECT_EQ(before, after);
}

TEST(A2C, RewardSquashIsMonotoneAndBounded) {
  auto cfg = tiny_config();
  cfg.squash_reward = true;
  cfg.reward_clip = 1.0;
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  double prev = -2.0;
  for (double r : {-20.0, -5.0, -1.0, -0.5, 0.0, 0.3, 0.45}) {
    const double shaped = trainer.shape_reward(r);
    EXPECT_GT(shaped, prev);   // strictly monotone below the clip
    EXPECT_GE(shaped, -1.0);   // bounded below
    EXPECT_LE(shaped, 1.0);    // clipped above
    prev = shaped;
  }
  // Large positive rewards saturate at the clip.
  EXPECT_DOUBLE_EQ(trainer.shape_reward(0.9), 1.0);
  // Identity at r = 0 (policy exactly matches HEFT).
  EXPECT_DOUBLE_EQ(trainer.shape_reward(0.0), 0.0);
  // r = -1 (mk = 2 x HEFT) -> mk_H/mk - 1 = -0.5.
  EXPECT_DOUBLE_EQ(trainer.shape_reward(-1.0), -0.5);
}

TEST(A2C, ShapeRewardRejectsNonFiniteReward) {
  // A NaN reward (e.g. a makespan ratio with a zero denominator) must
  // fail loudly before it poisons the returns of a whole episode.
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(trainer.shape_reward(nan), std::domain_error);
  EXPECT_THROW(trainer.shape_reward(inf), std::domain_error);
  EXPECT_THROW(trainer.shape_reward(-inf), std::domain_error);
}

TEST(A2C, RewardShapingCanBeDisabled) {
  auto cfg = tiny_config();
  cfg.squash_reward = false;
  cfg.reward_clip = 0.0;
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  EXPECT_DOUBLE_EQ(trainer.shape_reward(-7.5), -7.5);  // paper's raw reward
}

TEST(A2C, LearnsTinyInstanceToHeftLevel) {
  // On Cholesky T=2 (a 4-task chain) the optimal policy is easy: after a
  // modest number of episodes the agent should at least match HEFT on the
  // deterministic instance. This is the core learning smoke test.
  const auto graph = rd::cholesky_graph(2);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.entropy_beta = 1e-3;
  rr::PolicyNet net(rr::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::SchedulingEnv env(graph, platform, costs, {0.0, cfg.window, 1});
  trainer.train(env, {.episodes = 250});
  const auto makespans = trainer.evaluate(env, 5, 1000, true);
  const double mean = readys::util::mean(makespans);
  EXPECT_LE(mean, env.heft_reference() * 1.05);
}
