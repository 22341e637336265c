#include "rl/agent.hpp"

#include "nn/serialize.hpp"

namespace readys::rl {

ReadysAgent::ReadysAgent(int kernel_types, AgentConfig config)
    : kernel_types_(kernel_types), config_(config) {
  net_ = std::make_unique<PolicyNet>(node_feature_width(kernel_types),
                                     kResourceFeatureWidth, config_);
  trainer_ = std::make_unique<A2CTrainer>(*net_, config_);
}

TrainReport ReadysAgent::train(const dag::TaskGraph& graph,
                               const sim::Platform& platform,
                               const sim::CostModel& costs,
                               const TrainOptions& opts) {
  SchedulingEnv env(graph, platform, costs,
                    {opts.sigma, config_.window, opts.seed});
  return trainer_->train(env, opts);
}

std::vector<double> ReadysAgent::evaluate(const dag::TaskGraph& graph,
                                          const sim::Platform& platform,
                                          const sim::CostModel& costs,
                                          double sigma, int episodes,
                                          std::uint64_t seed_base,
                                          bool greedy) {
  SchedulingEnv env(graph, platform, costs,
                    {sigma, config_.window, seed_base});
  return trainer_->evaluate(env, episodes, seed_base, greedy);
}

void ReadysAgent::save(const std::string& path) const {
  nn::save_parameters(*net_, path);
}

void ReadysAgent::load(const std::string& path) {
  nn::load_parameters(*net_, path);
}

}  // namespace readys::rl
