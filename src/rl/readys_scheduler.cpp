#include "rl/readys_scheduler.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "sched/spec.hpp"

namespace readys::rl {

ReadysScheduler::ReadysScheduler(const PolicyNet& net, int window,
                                 ReadysOptions opts)
    : net_(&net), window_(window), opts_(opts), rng_(opts.seed) {}

void ReadysScheduler::reset(const sim::EngineView& engine) {
  if (opts_.incremental) {
    inc_ = std::make_unique<IncrementalEncoder>(engine.graph(), engine.costs(),
                                                window_);
    // The f32 backend reads Â through the CSR view only; skip the O(n^2)
    // dense build. The f64 reference forward needs the dense matrix.
    if (opts_.backend == InferenceBackendKind::kF32Simd) {
      inc_->set_sparse_ahat(true);
    }
    encoder_.reset();
  } else {
    encoder_ = std::make_unique<StateEncoder>(engine.graph(), engine.costs(),
                                              window_);
    inc_.reset();
  }
  // Rebuilt only when the net's weights actually changed since the last
  // episode (weight_version is bumped on optimizer step / deserialize),
  // so a kF32Simd snapshot tracks the live weights across
  // train-then-evaluate flows without re-snapshotting per reset.
  if (!backend_ || backend_version_ != net_->weight_version()) {
    backend_ = net_->make_inference(opts_.backend);
    backend_version_ = net_->weight_version();
  }
  rng_ = util::Rng(opts_.seed);
  declined_.clear();
  last_instant_ = -1.0;
}

std::vector<sim::Assignment> ReadysScheduler::decide(
    const sim::EngineView& engine) {
  if (engine.now() != last_instant_) {
    declined_.clear();  // a new instant re-opens parked resources
    last_instant_ = engine.now();
  }
  if (engine.ready().empty()) return {};

  std::vector<sim::ResourceId> cands = engine.idle_resources();
  std::erase_if(cands,
                [&](sim::ResourceId r) { return declined_.contains(r); });
  // Bit k set: outs_[k] holds this call's policy output for offer slot k.
  unsigned evaluated = 0;
  const std::vector<dag::TaskId>* ready_tasks = nullptr;
  while (!cands.empty()) {
    const std::size_t pick =
        opts_.random_offer ? rng_.uniform_index(cands.size()) : 0;
    const sim::ResourceId current = cands[pick];
    const bool allow_idle = engine.any_running() || cands.size() > 1;
    const std::size_t slot =
        2 * static_cast<std::size_t>(engine.platform().type(current)) +
        (allow_idle ? 1 : 0);
    InferenceOutput& out = outs_[slot];
    if ((evaluated >> slot) & 1u) {
      ++offer_reuses_;
      if (obs::Telemetry* tel = obs::telemetry()) tel->offer_reuses.add();
    } else {
      const Observation& obs =
          inc_ ? inc_->encode(engine, current, allow_idle)
               : (obs_full_ = encoder_->encode(engine, current, allow_idle));
      backend_->forward(obs, out);
      ++forwards_;
      // A NaN policy must not silently argmax to action 0: surface it so
      // a wrapper (sched::GuardedScheduler) can fall back to a heuristic.
      for (std::size_t i = 0; i < out.probs.size(); ++i) {
        if (!std::isfinite(out.probs[i])) {
          throw std::runtime_error(
              "ReadysScheduler: non-finite policy probability " +
              std::to_string(out.probs[i]) + " at action " +
              std::to_string(i));
        }
      }
      evaluated |= 1u << slot;
      // The ready list does not depend on the offered resource.
      ready_tasks = &obs.ready_tasks;
    }

    // Greedy argmax or categorical sample over π.
    const std::vector<double>& p = out.probs;
    std::size_t a = 0;
    if (opts_.greedy) {
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (p[i] > p[a]) a = i;
      }
    } else {
      const double u = rng_.uniform();
      double acc = 0.0;
      a = p.size() - 1;
      for (std::size_t i = 0; i < p.size(); ++i) {
        acc += p[i];
        if (u < acc) {
          a = i;
          break;
        }
      }
    }
    if (allow_idle && a == ready_tasks->size()) {  // the ∅ action
      declined_.insert(current);
      cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;  // offer the instant to another idle resource
    }
    return {{(*ready_tasks)[a], current}};
  }
  return {};
}

namespace {

ReadysOptions parse_readys_options(const sched::SpecOptions& spec,
                                   ReadysOptions opts) {
  for (const auto& [key, value] : spec.items) {
    if (key == "backend") {
      opts.backend = parse_inference_backend(value);  // throws on bad value
    } else if (key == "incremental") {
      opts.incremental = sched::option_int(key, value, 0, 1) != 0;
    } else {
      throw std::invalid_argument("unknown readys option \"" + key +
                                  "\" (known: backend, incremental)");
    }
  }
  return opts;
}

}  // namespace

void register_readys_scheduler(const PolicyNet& net, int window,
                               bool random_offer, ReadysOptions defaults) {
  defaults.random_offer = random_offer;
  sched::registry().add_spec(
      "readys",
      [defaults](const sched::SpecOptions& spec) {
        (void)parse_readys_options(spec, defaults);
      },
      [&net, window, defaults](const sched::SpecOptions& spec,
                               const sched::SchedulerConfig& cfg)
          -> std::unique_ptr<sim::Scheduler> {
        ReadysOptions opts = parse_readys_options(spec, defaults);
        opts.greedy = cfg.greedy;
        opts.seed = cfg.seed;
        return std::make_unique<ReadysScheduler>(net, window, opts);
      });
}

}  // namespace readys::rl
