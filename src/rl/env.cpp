#include "rl/env.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "sched/heft.hpp"

namespace readys::rl {

SchedulingEnv::SchedulingEnv(const dag::TaskGraph& graph,
                             const sim::Platform& platform,
                             const sim::CostModel& costs, Config config)
    : engine_(graph, platform, costs, config.faults, config.sigma,
              config.seed),
      encoder_(graph, costs, config.window),
      config_(config),
      action_rng_(config.seed ^ 0xD1B54A32D192ED03ULL),
      heft_ref_(sched::heft_expected_makespan(graph, platform, costs)) {
  if (config.incremental_encoding) {
    inc_ = std::make_unique<IncrementalEncoder>(graph, costs, config.window);
    inc_->set_sparse_ahat(config.sparse_ahat);
  }
  reset(config.seed);
}

const Observation& SchedulingEnv::reset(std::optional<std::uint64_t> seed) {
  obs::Span span("rl/env_reset", "train");
  if (obs::Telemetry* t = obs::telemetry()) t->env_resets.add();
  const std::uint64_t s = seed.value_or(config_.seed);
  engine_.reset(s);
  action_rng_ = util::Rng(s ^ 0xD1B54A32D192ED03ULL);
  declined_.clear();
  decisions_ = 0;
  advance_to_decision();
  return observation();
}

std::vector<sim::ResourceId> SchedulingEnv::candidates() const {
  std::vector<sim::ResourceId> out;
  for (sim::ResourceId r : engine_.idle_resources()) {
    if (!declined_.contains(r)) out.push_back(r);
  }
  return out;
}

void SchedulingEnv::advance_to_decision() {
  for (;;) {
    if (engine_.finished()) return;
    if (!engine_.ready().empty()) {
      const auto cands = candidates();
      if (!cands.empty()) {
        const sim::ResourceId current =
            config_.random_offer
                ? cands[action_rng_.uniform_index(cands.size())]
                : cands.front();
        // ∅ is legal unless declining would deadlock: nothing running and
        // this is the last idle resource that could take the work.
        const bool allow_idle = engine_.any_running() || cands.size() > 1;
        {
          obs::Span encode_span("rl/state_encode", "train");
          if (inc_) {
            inc_->encode(engine_, current, allow_idle);
          } else {
            obs_ = encoder_.encode(engine_, current, allow_idle);
          }
        }
        return;
      }
    }
    if (engine_.fault_enabled() && !engine_.any_running() &&
        engine_.num_up() == 0 && engine_.faults().mean_downtime <= 0.0) {
      // Fault events may keep firing (slowdown edges), but no resource
      // can ever come back: fail loudly instead of spinning.
      throw std::logic_error(
          "SchedulingEnv: platform unrecoverable (every resource "
          "permanently down, tasks remain)");
    }
    if (!engine_.advance()) {
      // Nothing running and no assignable work: impossible unless the ∅
      // mask was bypassed.
      throw std::logic_error("SchedulingEnv: stalled (all idle declined)");
    }
    declined_.clear();  // a completion or topology change re-opens parking
  }
}

SchedulingEnv::StepResult SchedulingEnv::step(std::size_t a) {
  obs::Telemetry* t = obs::telemetry();
  obs::Span span("rl/env_step", "train", t ? &t->env_step_us : nullptr);
  if (t) t->env_steps.add();
  if (engine_.finished()) {
    throw std::logic_error("SchedulingEnv::step: episode already done");
  }
  const Observation& obs = observation();
  if (a >= obs.num_actions()) {
    throw std::out_of_range("SchedulingEnv::step: bad action index");
  }
  ++decisions_;
  if (obs.allow_idle && a == obs.idle_action()) {
    declined_.insert(obs.current_resource);
  } else {
    engine_.start(obs.ready_tasks[a], obs.current_resource);
  }
  advance_to_decision();
  StepResult result;
  result.done = engine_.finished();
  if (result.done) {
    result.reward = (heft_ref_ - engine_.makespan()) / heft_ref_;
  }
  return result;
}

}  // namespace readys::rl
