// Workload `train`: A2C training cost and the quality it buys.
//
// A2C (hidden 32, window 2, fixed init seed) on Cholesky T=5 with
// sigma = 0.3 over a VecEnv of 8 envs, default per-episode update
// cadence, on one thread. One timed unit
// is a whole training run of a fixed episode count from the same initial
// weights, followed by a greedy evaluation of the trained net
// (ReadysScheduler, backend f64ref — the training arithmetic; the f32
// path never runs here) on episodes drawn from the workload seed.
// Training is deterministic, so every repetition must reproduce the first
// one's evaluation makespans exactly.
//
// The training episodes themselves use fixed seeds, like the initial
// weights: episode lengths along a training trajectory depend on its
// seeds, and across trajectories they moved episodes/s by up to 1.8x,
// which would drown any code change. The workload seed draws the
// evaluation episodes.
//
// The VecEnv steps its envs serially. Stepped on a 2-thread
// util::ThreadPool the same training (bit-identical results) ran at
// 60-86 episodes/s against 116-124 serially in interleaved runs, and its
// per-step thread handoffs spread episodes/s by a third between runs —
// too unsteady to gate. The traced run still measures the pooled path
// once (util.pool_speedup), so a change that makes parallel stepping pay
// shows there first.
//
// The traced run adds acting-only rollouts (PolicyNet::forward and
// SchedulingEnv::step under NoGradGuard, spans around each call) after
// every training run, to split the training wall into rollout and
// update shares.

#include <memory>
#include <string>
#include <vector>

#include "core/apps.hpp"
#include "harness.hpp"
#include "rl/a2c.hpp"
#include "rl/agent.hpp"
#include "rl/env.hpp"
#include "rl/readys_scheduler.hpp"
#include "rl/vec_env.hpp"
#include "sim/simulator.hpp"
#include "tensor/autograd.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace readys;

constexpr int kWindow = 2;
constexpr int kHidden = 32;
constexpr double kSigma = 0.3;
constexpr std::uint64_t kNetSeed = 1;
constexpr std::uint64_t kTrainSeed = 1;
constexpr std::size_t kEnvs = 8;
constexpr int kPoolThreads = 2;  ///< the traced run's pooled comparison

struct Setup {
  dag::TaskGraph graph;
  sim::CostModel costs;
  sim::Platform platform = sim::Platform::hybrid(2, 2);
  rl::AgentConfig agent;
  std::unique_ptr<rl::VecEnv> envs;  ///< stepped serially
  rl::TrainOptions opts;
  std::vector<std::uint64_t> eval_seeds;
};

/// One training run plus its greedy evaluation.
struct Rep {
  double train_s = 0.0;
  double cpu_s = 0.0;
  rl::TrainReport report;
  std::vector<double> makespans;
  std::unique_ptr<rl::ReadysAgent> agent;  ///< owns the trained net
};

std::unique_ptr<rl::VecEnv> make_envs(const Setup& s, util::ThreadPool* pool) {
  rl::SchedulingEnv::Config ec;
  ec.sigma = kSigma;
  ec.window = kWindow;
  ec.seed = kTrainSeed;
  return std::make_unique<rl::VecEnv>(s.graph, s.platform, s.costs, ec, kEnvs, pool);
}

std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::unique_ptr<Setup>(new Setup{
      core::make_graph(core::App::kCholesky, args.smoke ? 3 : 5),
      core::make_costs(core::App::kCholesky), sim::Platform::hybrid(2, 2),
      rl::AgentConfig{}, nullptr, rl::TrainOptions{}, {}});
  s->agent.hidden = kHidden;
  s->agent.window = kWindow;
  s->agent.seed = kNetSeed;
  s->envs = make_envs(*s, nullptr);
  s->opts.episodes = args.smoke ? 16 : 160;
  s->opts.sigma = kSigma;
  s->opts.seed = kTrainSeed;
  for (int i = 0; i < (args.smoke ? 2 : 32); ++i) {
    s->eval_seeds.push_back(mix_seed(args.seed, 100 + static_cast<std::uint64_t>(i)));
  }
  return s;
}

Rep train_once(Setup& s, const rl::TrainOptions& opts, BlockedLatency* eval_us,
               rl::VecEnv* envs = nullptr);

/// The set-up: instance, VecEnv and one untimed warm-up training round
/// (one episode per env) on a throwaway net.
std::unique_ptr<Setup> build_warm(const Args& args) {
  std::unique_ptr<Setup> s = build(args);
  rl::TrainOptions warm = s->opts;
  warm.episodes = static_cast<int>(kEnvs);
  (void)train_once(*s, warm, nullptr);
  return s;
}

/// One block of `eval_us` per call. Trains on `envs`, default the
/// serial VecEnv.
Rep train_once(Setup& s, const rl::TrainOptions& opts, BlockedLatency* eval_us,
               rl::VecEnv* envs) {
  Rep rep;
  rep.agent = std::make_unique<rl::ReadysAgent>(s.graph.num_kernel_types(), s.agent);
  rl::A2CTrainer trainer(rep.agent->net(), s.agent);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  rep.report = trainer.train(envs ? *envs : *s.envs, opts);
  rep.train_s = s_between(t0, Clock::now());
  rep.cpu_s = cpu_seconds() - cpu0;
  if (eval_us != nullptr) {
    rl::ReadysOptions ro;
    ro.greedy = true;
    ro.backend = rl::InferenceBackendKind::kF64Ref;
    rl::ReadysScheduler readys(rep.agent->net(), kWindow, ro);
    TimedDecide timed(readys, *eval_us);
    for (const std::uint64_t seed : s.eval_seeds) {
      rep.makespans.push_back(
          sim::simulate_makespan(s.graph, s.platform, s.costs, timed, kSigma, seed));
    }
    eval_us->cut();
  }
  return rep;
}

/// Acting-only episodes of `net` on one SchedulingEnv, sampling like the
/// trainer's rollouts.
struct Rollout {
  std::vector<double> forward_us, step_us;
  double wall_s = 0.0;
  std::size_t episodes = 0;
};

void rollout(const Setup& s, rl::PolicyNet& net, int episodes,
             std::uint64_t seed, Tracer& tracer, std::uint64_t& request,
             Rollout& out) {
  tensor::NoGradGuard no_grad;
  rl::SchedulingEnv::Config ec;
  ec.sigma = kSigma;
  ec.window = kWindow;
  ec.seed = seed;
  rl::SchedulingEnv env(s.graph, s.platform, s.costs, ec);
  rl::A2CTrainer picker(net, s.agent);  // for select_action only
  util::Rng rng(seed);
  for (int e = 0; e < episodes; ++e) {
    const auto t0 = Clock::now();
    const std::uint32_t root = tracer.begin("rl.rollout_episode", request, Tracer::kNone, t0);
    const rl::Observation* obs = &env.reset(mix_seed(seed, static_cast<std::uint64_t>(e)));
    for (;;) {
      const auto f0 = Clock::now();
      const rl::PolicyNet::Output o = net.forward(*obs);
      const auto f1 = Clock::now();
      const std::size_t a = picker.select_action(o, /*greedy=*/false, rng);
      const auto s0 = Clock::now();
      const rl::SchedulingEnv::StepResult sr = env.step(a);
      const auto s1 = Clock::now();
      tracer.span("nn.forward", request, root, f0, f1);
      tracer.span("rl.env_step", request, root, s0, s1);
      out.forward_us.push_back(us_between(f0, f1));
      out.step_us.push_back(us_between(s0, s1));
      if (sr.done) break;
      obs = &env.observation();
    }
    const auto t1 = Clock::now();
    tracer.end(root, t1);
    out.wall_s += s_between(t0, t1);
    ++out.episodes;
    ++request;
  }
}

}  // namespace

Report run_train(const Args& args) {
  Report r;
  stamp_provenance(r, args, args.trace ? kPoolThreads + 1 : 1);
  HostSpeed host;

  SetupTimes setup(args.seconds);
  const std::unique_ptr<Setup> s = setup.time([&] { return build_warm(args); });

  const double untraced_share = args.trace ? 0.3 : 1.0;
  BlockedLatency eval_us(1u << 16);
  std::vector<Unit> units;
  std::vector<double> reference;
  std::size_t mismatches = 0;
  double wall = 0.0, cpu = 0.0;
  rl::TrainReport last;
  while ((wall < args.seconds * untraced_share || units.empty()) && r.failed < 3) {
    Rep rep;
    try {
      rep = train_once(*s, s->opts, &eval_us);
    } catch (const std::exception&) {
      ++r.failed;
    }
    ++r.attempted;
    if (!rep.agent) continue;
    units.push_back(Unit{rep.train_s, static_cast<double>(s->opts.episodes)});
    wall += rep.train_s;
    host.tick(wall);
    if (!args.trace) setup.tick(wall, [&] { return build_warm(args); });
    cpu += rep.cpu_s;
    if (reference.empty()) {
      reference = rep.makespans;
    } else if (rep.makespans != reference) {
      ++mismatches;
    }
    last = rep.report;
  }
  r.check("train.repeat_identical", mismatches == 0,
          std::to_string(mismatches) + " training runs changed the evaluation");
  r.check("train.no_failed_runs", r.failed == 0,
          std::to_string(r.failed) + " training runs threw");
  r.check("train.episodes_trained",
          last.episode_rewards.size() == static_cast<std::size_t>(s->opts.episodes),
          std::to_string(last.episode_rewards.size()) + " episodes reported");

  r.prov("mean_makespan", mean(reference));
  std::vector<double> rates;
  for (const Unit& u : units) rates.push_back(u.work / u.wall_s);
  const double cores = cpu / wall;
  host.stamp(r);

  if (!args.trace) {
    host.timing(r, "setup_s", setup.median(), "s", "lower", setup.count(),
                "median of set-ups spread through the run, each incl. one warm-up "
                "training round");
    r.prov("run_rates", rates);
    host.timing(r, "throughput_per_s", median(rates), "1/s", "higher", rates.size(),
                "training episodes per second, median of training runs");
    host.timing(r, "p50_us", eval_us.p50(), "us", "lower", eval_us.count(),
                "decide of the trained net in greedy evaluation (f64ref), median "
                "over training runs");
    host.timing(r, "p99_us", eval_us.p99(), "us", "lower", eval_us.count(),
                "median of per-run p99s");
    r.metric("mean_makespan", mean(reference), "ms", "lower", reference.size(),
             "greedy evaluation of the trained net");
    r.metric("fail_ratio",
             static_cast<double>(r.failed) / static_cast<double>(r.attempted), "1",
             "lower", r.attempted);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", "lower", 1);
    r.prov("episodes_per_training_run", static_cast<double>(s->opts.episodes));
    r.prov("final_mean_reward", last.final_mean_reward);
    r.prov("cores_busy", cores);
    return r;
  }

  // Traced pass: the same training runs inside a span each, then
  // acting-only rollouts of the trained net.
  Tracer tracer;
  Rollout ro;
  std::uint64_t request = 0;
  double traced_wall = 0.0;
  std::size_t traced_runs = 0;
  const auto traced_t0 = Clock::now();
  while (s_between(traced_t0, Clock::now()) < args.seconds * (1.0 - untraced_share) ||
         traced_runs == 0) {
    const auto t0 = Clock::now();
    Rep rep = train_once(*s, s->opts, nullptr);
    tracer.span("rl.train", request++, Tracer::kNone, t0, Clock::now());
    traced_wall += rep.train_s;
    ++traced_runs;
    ++r.attempted;
    rollout(*s, rep.agent->net(), static_cast<int>(kEnvs), mix_seed(args.seed, 7 + traced_runs),
            tracer, request, ro);
  }
  const double episodes_traced =
      static_cast<double>(traced_runs) * static_cast<double>(s->opts.episodes);

  // The same training once more, its VecEnv stepped on a thread pool.
  util::ThreadPool pool(kPoolThreads);
  const std::unique_ptr<rl::VecEnv> pooled_envs = make_envs(*s, &pool);
  BlockedLatency pooled_eval(1u << 16);
  const Rep pooled = train_once(*s, s->opts, &pooled_eval, pooled_envs.get());
  ++r.attempted;
  r.check("train.pooled_identical", pooled.makespans == reference,
          "2-thread pool training must evaluate like serial training");
  r.metric("util.pool_speedup", (traced_wall / static_cast<double>(traced_runs)) / pooled.train_s,
           "ratio", "higher", 1,
           "serial over 2-thread-pool training wall, same training run");
  const double rollout_per_ep = ro.wall_s * 1e6 / static_cast<double>(ro.episodes);
  const double train_per_ep = traced_wall * 1e6 / episodes_traced;
  r.metric("rl.env_step_us", median(ro.step_us), "us", "lower", ro.step_us.size(),
           "SchedulingEnv::step, median");
  r.metric("nn.forward_us", median(ro.forward_us), "us", "lower",
           ro.forward_us.size(), "PolicyNet::forward under NoGradGuard, median");
  r.metric("rl.rollout_us_per_episode", rollout_per_ep, "us", "lower", ro.episodes,
           "acting-only episode on one env");
  r.metric("rl.update_us_per_episode", train_per_ep - rollout_per_ep, "us", "lower",
           static_cast<std::size_t>(episodes_traced),
           "training wall per episode minus rollout per episode");
  r.metric("rl.updates", static_cast<double>(last.updates), "count", "higher", 1);
  r.metric("rl.skipped_updates", static_cast<double>(last.skipped_updates), "count",
           "lower", 1);
  r.metric("rl.rollbacks", static_cast<double>(last.rollbacks), "count", "lower", 1);
  r.metric("proc.cores_busy", cores, "ratio", "higher", units.size(),
           "(user+sys CPU) / wall during train()");
  r.metric("trace.overhead_ratio",
           (traced_wall / episodes_traced) /
               (wall / (static_cast<double>(units.size()) * s->opts.episodes)),
           "ratio", "lower", traced_runs, "traced/untraced training wall per episode");
  r.prov("spans_stored", static_cast<double>(tracer.stored()));
  if (!args.trace_out.empty()) {
    r.check("trace.file_written", tracer.write_chrome(args.trace_out), args.trace_out);
  }
  return r;
}

}  // namespace perfbench
