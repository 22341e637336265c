// ReadysScheduler's same-call offer reuse (`ctest -L infer`). Inside one
// decide() call the engine does not change, so an offer whose (resource
// type, allow_idle) key was already evaluated reuses that policy output.
// The oracle below forwards every offer through the public encoder and
// backend with the same offer order and selection; the schedules must
// match assignment for assignment.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/register.hpp"
#include "core/apps.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "rl/readys_scheduler.hpp"
#include "sched/guarded.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rs = readys::sim;
namespace rx = readys::sched;

namespace {

constexpr int kWindow = 2;

rr::PolicyNet make_net(std::uint64_t seed) {
  rr::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.seed = seed;
  cfg.window = kWindow;
  return rr::PolicyNet(rr::StateEncoder::node_feature_width(4),
                       rr::StateEncoder::kResourceFeatureWidth, cfg);
}

/// Fills the parameter named `name` (every parameter when empty).
void fill_parameters(rr::PolicyNet& net, double value,
                     const std::string& name = "") {
  for (auto& [n, var] : net.named_parameters()) {
    if (!name.empty() && n != name) continue;
    auto& t = var.mutable_value();
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = value;
  }
  net.bump_weight_version();
}

/// ReadysScheduler's offer protocol with one encode and one forward per
/// offer: random or first idle resource, ∅ parks it until the next
/// instant, greedy argmax or a categorical sample from the same RNG.
class ForwardEveryOffer final : public rs::Scheduler {
 public:
  ForwardEveryOffer(const rr::PolicyNet& net, rr::ReadysOptions opts)
      : net_(&net), opts_(opts), rng_(opts.seed) {}

  void reset(const rs::EngineView& view) override {
    if (opts_.incremental) {
      inc_ = std::make_unique<rr::IncrementalEncoder>(view.graph(),
                                                      view.costs(), kWindow);
      if (opts_.backend == rr::InferenceBackendKind::kF32Simd) {
        inc_->set_sparse_ahat(true);
      }
    } else {
      full_ = std::make_unique<rr::StateEncoder>(view.graph(), view.costs(),
                                                 kWindow);
    }
    backend_ = net_->make_inference(opts_.backend);
    rng_ = readys::util::Rng(opts_.seed);
    declined_.clear();
    last_instant_ = -1.0;
  }

  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    if (view.now() != last_instant_) {
      declined_.clear();
      last_instant_ = view.now();
    }
    if (view.ready().empty()) return {};
    std::vector<rs::ResourceId> cands;
    for (rs::ResourceId r : view.idle_resources()) {
      if (!declined_.contains(r)) cands.push_back(r);
    }
    while (!cands.empty()) {
      const std::size_t pick =
          opts_.random_offer ? rng_.uniform_index(cands.size()) : 0;
      const rs::ResourceId current = cands[pick];
      const bool allow_idle = view.any_running() || cands.size() > 1;
      const rr::Observation& obs =
          inc_ ? inc_->encode(view, current, allow_idle)
               : (full_obs_ = full_->encode(view, current, allow_idle));
      backend_->forward(obs, out_);
      const std::vector<double>& p = out_.probs;
      for (const double x : p) {
        if (!std::isfinite(x)) throw std::runtime_error("non-finite policy");
      }
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
      if (obs.allow_idle && a == obs.idle_action()) {
        declined_.insert(current);
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      return {{obs.ready_tasks[a], current}};
    }
    return {};
  }

  std::string name() const override { return "forward-every-offer"; }

 private:
  const rr::PolicyNet* net_;
  rr::ReadysOptions opts_;
  readys::util::Rng rng_;
  std::unique_ptr<rr::InferenceBackend> backend_;
  std::unique_ptr<rr::IncrementalEncoder> inc_;
  std::unique_ptr<rr::StateEncoder> full_;
  rr::Observation full_obs_;
  rr::InferenceOutput out_;
  std::unordered_set<int> declined_;
  double last_instant_ = -1.0;
};

struct Bound {
  double t;
  int task;
  int resource;
  bool operator==(const Bound&) const = default;
};

/// Logs every assignment its inner scheduler returns, with the instant.
class Recorder final : public rs::Scheduler {
 public:
  explicit Recorder(rs::Scheduler& inner) : inner_(&inner) {}
  void reset(const rs::EngineView& view) override { inner_->reset(view); }
  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    std::vector<rs::Assignment> out = inner_->decide(view);
    for (const rs::Assignment& a : out) {
      log.push_back({view.now(), static_cast<int>(a.task), a.resource});
    }
    return out;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<Bound> log;

 private:
  rs::Scheduler* inner_;
};

struct Workload {
  rc::App app;
  int tiles;
  double sigma;
};

std::vector<Bound> run(rs::Scheduler& sched, const Workload& w,
                       const rs::Platform& platform,
                       std::optional<rs::FaultModel> faults = std::nullopt) {
  const auto graph = rc::make_graph(w.app, w.tiles);
  rs::Simulator::Options opt;
  opt.sigma = w.sigma;
  opt.seed = 17;
  opt.faults = faults;
  rs::Simulator sim(graph, platform, rc::make_costs(w.app), opt);
  Recorder rec(sched);
  const auto result = sim.run(rec);
  EXPECT_EQ(result.trace.validate(graph, platform), "");
  return rec.log;
}

std::string label(const rr::ReadysOptions& o, const Workload& w) {
  return std::string(o.greedy ? "greedy" : "sampled") +
         (o.random_offer ? " random_offer " : " first_offer ") +
         rr::inference_backend_name(o.backend) +
         (o.incremental ? " incremental " : " full ") + rc::app_name(w.app) +
         " sigma=" + std::to_string(w.sigma);
}

/// Per decide() call: forwards and reuses it spent, and its instant.
struct CallCounts {
  double t;
  std::uint64_t forwards;
  std::uint64_t reuses;
};

class CountingReadys final : public rs::Scheduler {
 public:
  explicit CountingReadys(rr::ReadysScheduler& inner) : inner_(&inner) {}
  void reset(const rs::EngineView& view) override { inner_->reset(view); }
  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    const std::uint64_t f0 = inner_->forwards();
    const std::uint64_t r0 = inner_->offer_reuses();
    try {
      std::vector<rs::Assignment> out = inner_->decide(view);
      calls.push_back({view.now(), inner_->forwards() - f0,
                       inner_->offer_reuses() - r0});
      return out;
    } catch (...) {
      thrown.push_back({view.now(), inner_->forwards() - f0,
                        inner_->offer_reuses() - r0});
      throw;
    }
  }
  std::string name() const override { return inner_->name(); }

  std::vector<CallCounts> calls;   ///< calls that returned
  std::vector<CallCounts> thrown;  ///< calls that threw

 private:
  rr::ReadysScheduler* inner_;
};

}  // namespace

// The oracle grid: selection mode x offer order x backend x encoder, over
// the three factorizations with and without duration noise.
TEST(ReadysOfferReuse, SchedulesMatchForwardingEveryOffer) {
  const auto net = make_net(5);
  const auto platform = rs::Platform::hybrid(2, 2);
  const Workload workloads[] = {
      {rc::App::kCholesky, 5, 0.0}, {rc::App::kCholesky, 5, 0.3},
      {rc::App::kLu, 4, 0.0},       {rc::App::kLu, 4, 0.3},
      {rc::App::kQr, 4, 0.0},       {rc::App::kQr, 4, 0.3}};
  for (const bool greedy : {true, false}) {
    for (const bool random_offer : {false, true}) {
      for (const auto backend : {rr::InferenceBackendKind::kF64Ref,
                                 rr::InferenceBackendKind::kF32Simd}) {
        for (const bool incremental : {true, false}) {
          rr::ReadysOptions o;
          o.greedy = greedy;
          o.seed = 9;
          o.random_offer = random_offer;
          o.backend = backend;
          o.incremental = incremental;
          rr::ReadysScheduler readys(net, kWindow, o);
          for (const Workload& w : workloads) {
            SCOPED_TRACE(label(o, w));
            ForwardEveryOffer oracle(net, o);
            const std::vector<Bound> want = run(oracle, w, platform);
            const std::uint64_t reuses0 = readys.offer_reuses();
            const std::vector<Bound> got = run(readys, w, platform);
            EXPECT_EQ(got, want);
            if (greedy) EXPECT_GT(readys.offer_reuses(), reuses0);
          }
        }
      }
    }
  }
}

TEST(ReadysOfferReuse, SchedulesMatchUnderFaults) {
  const auto net = make_net(1);
  const auto platform = rs::Platform::hybrid(3, 2);
  rs::FaultModel faults;
  faults.outage_rate = 0.01;
  faults.mean_downtime = 80.0;
  faults.task_failure_prob = 0.05;
  const Workload w{rc::App::kCholesky, 6, 0.2};
  for (const bool greedy : {true, false}) {
    rr::ReadysOptions o;
    o.greedy = greedy;
    o.seed = 4;
    o.backend = rr::InferenceBackendKind::kF32Simd;
    SCOPED_TRACE(label(o, w));
    ForwardEveryOffer oracle(net, o);
    rr::ReadysScheduler readys(net, kWindow, o);
    EXPECT_EQ(run(readys, w, platform, faults),
              run(oracle, w, platform, faults));
    EXPECT_GT(readys.offer_reuses(), 0u);
  }
}

TEST(ReadysOfferReuse, SchedulesMatchUnderShardScopedViews) {
  const auto net = make_net(7);
  rr::register_readys_scheduler(net, kWindow);
  readys::cluster::register_cluster_scheduler();
  auto& reg = rx::registry();
  reg.add_spec(
      "forward-every-offer", [](const rx::SpecOptions&) {},
      [&net](const rx::SpecOptions&, const rx::SchedulerConfig& cfg)
          -> std::unique_ptr<rs::Scheduler> {
        rr::ReadysOptions o;
        o.greedy = cfg.greedy;
        o.seed = cfg.seed;
        return std::make_unique<ForwardEveryOffer>(net, o);
      });
  const auto platform = rs::Platform::hybrid(4, 4);
  const Workload w{rc::App::kLu, 6, 0.3};
  for (const bool greedy : {true, false}) {
    SCOPED_TRACE(greedy ? "greedy" : "sampled");
    const rx::SchedulerConfig cfg{.seed = 3, .greedy = greedy};
    auto readys = reg.make("shard(shards=2):readys", cfg);
    auto oracle = reg.make("shard(shards=2):forward-every-offer", cfg);
    EXPECT_EQ(run(*readys, w, platform), run(*oracle, w, platform));
  }
}

// A policy that declines whenever ∅ is legal. At t = 0 nothing runs, so
// of three idle CPUs the first is declined after a forward, the second
// reuses that output and declines, and the last (∅ illegal: declining
// would deadlock) is a different key and must forward.
TEST(ReadysOfferReuse, LastCandidateOfferAlwaysForwards) {
  auto net = make_net(8);
  fill_parameters(net, 50.0, "idle.bias");
  rr::ReadysScheduler readys(net, kWindow, rr::ReadysOptions{});
  CountingReadys counting(readys);
  const auto platform = rs::Platform::cpus(3);
  const Workload w{rc::App::kCholesky, 4, 0.0};
  const std::vector<Bound> log = run(counting, w, platform);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().resource, 2);
  ASSERT_FALSE(counting.calls.empty());
  EXPECT_EQ(counting.calls.front().forwards, 2u);
  EXPECT_EQ(counting.calls.front().reuses, 1u);
}

// A NaN policy throws from its first forward of every call, before the
// output could be stored, so guarded:readys falls back exactly as when
// every offer was forwarded.
TEST(ReadysOfferReuse, NanPolicyFallsBackOnFirstForward) {
  auto net = make_net(9);
  fill_parameters(net, std::numeric_limits<double>::quiet_NaN());
  rr::ReadysScheduler readys(net, kWindow, rr::ReadysOptions{});
  auto counting = std::make_unique<CountingReadys>(readys);
  CountingReadys* probe = counting.get();
  rx::GuardedScheduler guarded(std::move(counting));
  const auto platform = rs::Platform::hybrid(2, 2);
  const Workload w{rc::App::kCholesky, 4, 0.0};
  (void)run(guarded, w, platform);
  EXPECT_GT(guarded.fallback_decisions(), 0u);
  EXPECT_NE(guarded.last_fault().find("non-finite"), std::string::npos);
  ASSERT_FALSE(probe->thrown.empty());
  for (const CallCounts& c : probe->thrown) {
    EXPECT_EQ(c.forwards, 1u);
    EXPECT_EQ(c.reuses, 0u);
  }
  EXPECT_EQ(readys.offer_reuses(), 0u);
}

// The simulator re-invokes decide() at the same instant after every
// assignment. The engine changed in between, so every call that makes an
// offer must forward at least once: only later offers of the same call
// may reuse.
TEST(ReadysOfferReuse, NothingReusedAcrossCallsAtOneInstant) {
  const auto net = make_net(11);
  const auto platform = rs::Platform::hybrid(3, 3);
  const Workload w{rc::App::kCholesky, 6, 0.0};
  for (const bool greedy : {true, false}) {
    SCOPED_TRACE(greedy ? "greedy" : "sampled");
    rr::ReadysOptions o;
    o.greedy = greedy;
    rr::ReadysScheduler readys(net, kWindow, o);
    CountingReadys counting(readys);
    (void)run(counting, w, platform);
    std::size_t repeated_instants = 0;
    for (std::size_t i = 0; i < counting.calls.size(); ++i) {
      const CallCounts& c = counting.calls[i];
      if (c.forwards + c.reuses == 0) continue;  // no offer made
      EXPECT_GE(c.forwards, 1u) << "call " << i << " at t=" << c.t;
      if (i > 0 && counting.calls[i - 1].t == c.t) ++repeated_instants;
    }
    EXPECT_GT(repeated_instants, 0u);
    EXPECT_GT(readys.offer_reuses(), 0u);
  }
}
