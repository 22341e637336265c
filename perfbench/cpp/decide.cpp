// Workload `decide`: in-situ READYS decision latency.
//
// An untrained PolicyNet (hidden 32, window 2, fixed init seed — the
// model is part of the program under test; the workload seed draws the
// inputs) schedules a fixed cycle of Cholesky T=12, LU T=10 and QR T=10
// through ReadysScheduler (backend f32simd, greedy) under sim::Simulator
// on a hybrid 2 CPU + 2 GPU platform with duration noise sigma = 0.3.
// One thread. The episode list (graph, noise seed) is a pure function of
// the workload seed; the timed loop replays it until the time is up, and
// every replay must reproduce the first pass's makespans exactly.
//
// The traced run replays the same episodes through a benchmark-side
// mirror of greedy READYS built from the public IncrementalEncoder::encode,
// InferenceBackend::forward and an argmax over the same offer loop, with
// spans around each call. Its makespans must equal the untraced run's.

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/apps.hpp"
#include "harness.hpp"
#include "rl/agent.hpp"
#include "rl/inference.hpp"
#include "rl/readys_scheduler.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace readys;

constexpr int kWindow = 2;
constexpr int kHidden = 32;
constexpr double kSigma = 0.3;
constexpr std::uint64_t kNetSeed = 1;

struct Instance {
  dag::TaskGraph graph;
  sim::CostModel costs;
};

struct Episode {
  std::size_t instance = 0;
  std::uint64_t seed = 0;
};

struct Setup {
  std::vector<std::unique_ptr<Instance>> instances;
  sim::Platform platform = sim::Platform::hybrid(2, 2);
  std::unique_ptr<rl::ReadysAgent> agent;  ///< owns the policy net
  std::unique_ptr<rl::ReadysScheduler> readys;
  std::vector<Episode> episodes;  ///< one pass; the timed loop replays it
};

/// Greedy READYS rebuilt from the public inference surfaces, with a span
/// around each call. Mirrors ReadysScheduler::decide step for step
/// (offer order, ∅ handling, argmax tie-breaking) so its schedules are
/// identical.
class MirrorReadys final : public sim::Scheduler {
 public:
  MirrorReadys(const rl::PolicyNet& net, int window, Tracer& tracer)
      : window_(window),
        hidden_(net.hidden()),
        layers_(net.num_gcn_layers()),
        backend_(net.make_inference(rl::InferenceBackendKind::kF32Simd)),
        tracer_(tracer) {}

  void reset(const sim::EngineView& view) override {
    absorb_encoder_counters();
    inc_ = std::make_unique<rl::IncrementalEncoder>(view.graph(), view.costs(),
                                                    window_);
    inc_->set_sparse_ahat(true);
    declined_.clear();
    last_instant_ = -1.0;
  }

  std::vector<sim::Assignment> decide(const sim::EngineView& view) override {
    const auto t0 = Clock::now();
    std::vector<sim::Assignment> out = decide_inner(view, t0);
    const auto t1 = Clock::now();
    all_decide_s += s_between(t0, t1);
    if (timed_) {
      tracer_.end(span_, t1);
      const double d = us_between(t0, t1);
      decide_us.add(d);
      select_us.add(d - encode_acc_ - forward_acc_);
    }
    return out;
  }

  std::string name() const override { return "mirror-readys"; }

  void absorb_encoder_counters() {
    if (inc_) {
      rebuilds += inc_->window_rebuilds();
      reuses += inc_->window_reuses();
      inc_.reset();
    }
  }

  // Per-call samples and counters of the traced pass.
  Samples decide_us, encode_us, forward_us, select_us;
  double all_decide_s = 0.0;  ///< every decide call, ready-empty ones too
  std::uint64_t forwards = 0, assignments = 0;
  std::uint64_t rebuilds = 0, reuses = 0;
  double rows_sum = 0.0, nnz_sum = 0.0, flops_sum = 0.0;

 private:
  std::vector<sim::Assignment> decide_inner(const sim::EngineView& view,
                                            Clock::time_point t0) {
    timed_ = false;
    if (view.now() != last_instant_) {
      declined_.clear();
      last_instant_ = view.now();
    }
    if (view.ready().empty()) return {};
    timed_ = true;
    encode_acc_ = forward_acc_ = 0.0;
    span_ = tracer_.begin("rl.decide", request_++, Tracer::kNone, t0);

    std::vector<sim::ResourceId> cands;
    for (sim::ResourceId r : view.idle_resources()) {
      if (!declined_.contains(r)) cands.push_back(r);
    }
    while (!cands.empty()) {
      const sim::ResourceId current = cands.front();
      const bool allow_idle = view.any_running() || cands.size() > 1;
      const auto e0 = Clock::now();
      const rl::Observation& obs = inc_->encode(view, current, allow_idle);
      const auto e1 = Clock::now();
      backend_->forward(obs, out_);
      const auto f1 = Clock::now();
      tracer_.span("rl.encode", request_ - 1, span_, e0, e1);
      tracer_.span("rl.forward", request_ - 1, span_, e1, f1);
      const double enc = us_between(e0, e1), fwd = us_between(e1, f1);
      encode_us.add(enc);
      forward_us.add(fwd);
      encode_acc_ += enc;
      forward_acc_ += fwd;
      ++forwards;
      count_work(obs);

      const std::vector<double>& p = out_.probs;
      for (const double x : p) {
        if (!std::isfinite(x)) throw std::runtime_error("non-finite policy");
      }
      std::size_t a = 0;
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (p[i] > p[a]) a = i;
      }
      if (obs.allow_idle && a == obs.idle_action()) {
        declined_.insert(current);
        cands.erase(cands.begin());
        continue;
      }
      ++assignments;
      return {{obs.ready_tasks[a], current}};
    }
    return {};
  }

  /// Window size, Â nonzeros and the f32 forward's arithmetic, computed
  /// from the observation's sizes (GCN GEMM + SpMM per layer, pooling,
  /// the three heads).
  void count_work(const rl::Observation& obs) {
    const double n = static_cast<double>(obs.features.rows());
    const double f = static_cast<double>(obs.features.cols());
    const double nnz = static_cast<double>(obs.ahat_csr.col.size());
    const double h = hidden_;
    const double k = static_cast<double>(obs.ready_tasks.size());
    const double rf = static_cast<double>(obs.resource_state.cols());
    double flops = 0.0;
    for (int l = 0; l < layers_; ++l) {
      flops += 2.0 * n * (l == 0 ? f : h) * h + 2.0 * nnz * h + n * h;
    }
    flops += 2.0 * rf * h + 2.0 * n * h + 2.0 * k * h + 4.0 * h + 2.0 * h;
    rows_sum += n;
    nnz_sum += nnz;
    flops_sum += flops;
  }

  int window_;
  double hidden_;
  int layers_;
  std::unique_ptr<rl::InferenceBackend> backend_;
  Tracer& tracer_;
  std::unique_ptr<rl::IncrementalEncoder> inc_;
  rl::InferenceOutput out_;
  std::unordered_set<int> declined_;
  double last_instant_ = -1.0;
  std::uint64_t request_ = 0;
  std::uint32_t span_ = Tracer::kNone;
  bool timed_ = false;
  double encode_acc_ = 0.0, forward_acc_ = 0.0;
};

rl::ReadysOptions readys_options() {
  rl::ReadysOptions o;
  o.greedy = true;
  o.backend = rl::InferenceBackendKind::kF32Simd;
  return o;
}

double run_episode(const Setup& s, const Episode& ep, sim::Scheduler& sched) {
  const Instance& inst = *s.instances[ep.instance];
  sim::Simulator::Options opt;
  opt.sigma = kSigma;
  opt.seed = ep.seed;
  sim::Simulator simulator(inst.graph, s.platform, inst.costs, opt);
  return simulator.run(sched).makespan;
}

/// The set-up: inputs, net, scheduler (its f32 snapshot is taken at the
/// first reset) and one untimed warm-up episode per graph of the cycle.
std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::make_unique<Setup>();
  const struct {
    core::App app;
    int tiles;
  } cycle[] = {{core::App::kCholesky, args.smoke ? 4 : 12},
               {core::App::kLu, args.smoke ? 3 : 10},
               {core::App::kQr, args.smoke ? 3 : 10}};
  for (const auto& c : cycle) {
    s->instances.push_back(std::make_unique<Instance>(
        Instance{core::make_graph(c.app, c.tiles), core::make_costs(c.app)}));
  }
  rl::AgentConfig agent;
  agent.hidden = kHidden;
  agent.window = kWindow;
  agent.seed = kNetSeed;
  s->agent = std::make_unique<rl::ReadysAgent>(4, agent);
  const std::size_t cycles = args.smoke ? 1 : 6;
  for (std::size_t i = 0; i < cycles * s->instances.size(); ++i) {
    s->episodes.push_back(Episode{i % s->instances.size(), mix_seed(args.seed, i)});
  }
  s->readys = std::make_unique<rl::ReadysScheduler>(s->agent->net(), kWindow,
                                                    readys_options());
  for (std::size_t i = 0; i < s->instances.size(); ++i) {
    (void)run_episode(*s, s->episodes[i], *s->readys);
  }
  return s;
}

/// Replays the episode list through `sched`, one timed unit per episode.
Pass replay_with(const Setup& s, sim::Scheduler& sched, double seconds,
                 std::vector<double>& reference, BlockedLatency* latency,
                 const std::function<void(double)>& between) {
  return replay(
      s.episodes.size(), seconds, reference,
      [&](std::size_t k) {
        const Episode& ep = s.episodes[k];
        const auto t0 = Clock::now();
        const double mk = run_episode(s, ep, sched);
        return Outcome{mk, s_between(t0, Clock::now()),
                       static_cast<double>(s.instances[ep.instance]->graph.num_tasks())};
      },
      latency, between);
}

}  // namespace

Report run_decide(const Args& args) {
  Report r;
  stamp_provenance(r, args, 1);
  HostSpeed host;

  SetupTimes setup(args.seconds);
  const std::unique_ptr<Setup> s = setup.time([&] { return build(args); });
  const auto between = [&](double wall_s) {
    host.tick(wall_s);
    if (!args.trace) setup.tick(wall_s, [&] { return build(args); });
  };

  std::vector<double> reference;
  BlockedLatency decide_us;
  TimedDecide timed(*s->readys, decide_us);
  const double cpu0 = cpu_seconds();
  const double untraced_share = args.trace ? 0.3 : 1.0;
  const Pass base = replay_with(*s, timed, args.seconds * untraced_share, reference,
                                &decide_us, between);
  const double cores = (cpu_seconds() - cpu0) / base.wall_s;
  host.stamp(r);
  r.attempted = base.episodes;
  r.failed = base.failed;
  r.check("decide.replay_identical", base.mismatches == 0,
          std::to_string(base.mismatches) + " replayed episodes changed makespan");
  r.check("decide.no_failed_episodes", base.failed == 0,
          std::to_string(base.failed) + " episodes threw");
  const double mean_mk = mean(reference);
  r.prov("mean_makespan", mean_mk);
  const double fail_ratio =
      static_cast<double>(base.failed) / static_cast<double>(base.episodes);

  if (!args.trace) {
    const auto rates = block_rates(base.units, args.seconds / 10.0);
    host.timing(r, "setup_s", setup.median(), "s", "lower", setup.count(),
                "median of set-ups spread through the run, each incl. one warm-up "
                "episode per graph");
    r.prov("block_rates", rates);
    host.timing(r, "throughput_per_s", median(rates), "1/s", "higher", rates.size(),
                "tasks assigned per wall second, median of blocks");
    host.timing(r, "p50_us", decide_us.p50(), "us", "lower", decide_us.count(),
                "Scheduler::decide at instants with a ready task, median of " +
                    std::to_string(decide_us.blocks()) + " block p50s");
    host.timing(r, "p99_us", decide_us.p99(), "us", "lower", decide_us.count(),
                "median of block p99s");
    r.metric("mean_makespan", mean_mk, "ms", "lower", reference.size(),
             "simulated, mean over the episode list");
    r.metric("fail_ratio", fail_ratio, "1", "lower", base.episodes);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", "lower", 1);
    return r;
  }

  // Traced pass: the mirror, spans on, same episodes.
  Tracer tracer;
  MirrorReadys mirror(s->agent->net(), kWindow, tracer);
  std::vector<double> mirror_ref = reference;
  const Pass traced = replay_with(*s, mirror, args.seconds * (1.0 - untraced_share),
                                  mirror_ref, nullptr, {});
  mirror.absorb_encoder_counters();
  r.attempted += traced.episodes;
  r.failed += traced.failed;
  r.check("decide.mirror_makespans_equal", traced.mismatches == 0,
          std::to_string(traced.mismatches) + " of " +
              std::to_string(traced.episodes) +
              " mirror episodes differ from ReadysScheduler");

  const double assignments = static_cast<double>(mirror.assignments);
  const double forwards = static_cast<double>(mirror.forwards);
  r.metric("rl.encode_us_p50", mirror.encode_us.percentile(50), "us", "lower",
           mirror.encode_us.count(), "IncrementalEncoder::encode");
  r.metric("rl.encode_us_p99", mirror.encode_us.percentile(99), "us", "lower",
           mirror.encode_us.count());
  r.metric("rl.forward_us_p50", mirror.forward_us.percentile(50), "us", "lower",
           mirror.forward_us.count(), "InferenceBackend::forward (f32simd)");
  r.metric("rl.forward_us_p99", mirror.forward_us.percentile(99), "us", "lower",
           mirror.forward_us.count());
  r.metric("rl.select_us", mirror.select_us.median(), "us", "lower",
           mirror.select_us.count(), "decide minus encode and forward, median");
  r.metric("sim.self_us", (traced.wall_s - mirror.all_decide_s) * 1e6 / assignments,
           "us", "lower", mirror.assignments,
           "Simulator::run wall minus decide, per assignment");
  r.metric("rl.offers_per_assignment", forwards / assignments, "count", "lower",
           mirror.assignments, "forwards per assignment (declines waste one)");
  r.metric("rl.window_reuse_ratio",
           static_cast<double>(mirror.reuses) /
               static_cast<double>(mirror.rebuilds + mirror.reuses),
           "ratio", "higher", mirror.rebuilds + mirror.reuses);
  r.metric("rl.window_rows_mean", mirror.rows_sum / forwards, "count", "lower",
           mirror.forwards);
  r.metric("rl.ahat_nnz_mean", mirror.nnz_sum / forwards, "count", "lower",
           mirror.forwards);
  r.metric("tensor.f32_flops_per_forward", mirror.flops_sum / forwards, "flop",
           "lower", mirror.forwards, "computed from sizes");
  r.metric("trace.overhead_ratio",
           (traced.wall_s / traced.work) / (base.wall_s / base.work), "ratio",
           "lower", traced.episodes, "traced/untraced wall per assignment");
  r.metric("proc.cores_busy", cores, "ratio", "higher", base.episodes,
           "(user+sys CPU) / wall, untraced pass");
  r.prov("spans_stored", static_cast<double>(tracer.stored()));
  r.prov("spans_dropped", static_cast<double>(tracer.dropped()));
  if (!args.trace_out.empty()) {
    r.check("trace.file_written", tracer.write_chrome(args.trace_out), args.trace_out);
  }
  return r;
}

}  // namespace perfbench
