// Workload `cluster`: decentralized scheduling at platform scale.
//
// The registry spec "shard(shards=16):mct" schedules a 6-layer random
// layered DAG of width 2P (about 3k tasks, drawn from the workload seed)
// on P = 256 resources (128 CPU + 128 GPU) under sim::Simulator with
// sigma = 0.1, on one thread. No rl, nn or tensor code runs: sim, sched
// and cluster do all of the work. A fixed list of episode seeds is
// replayed; every replay must reproduce its first makespan exactly, and
// every task must be assigned exactly once.
//
// The traced run registers a timing wrapper around MCT and uses it as
// the shard inner ("shard(shards=16):perfbench-timed-mct"); its
// makespans must equal the untraced run's.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/register.hpp"
#include "cluster/shard_sched.hpp"
#include "dag/random_dag.hpp"
#include "harness.hpp"
#include "sched/mct.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace readys;

constexpr double kSigma = 0.1;
constexpr int kShards = 16;
const char* const kTimedInner = "perfbench-timed-mct";

struct Setup {
  dag::TaskGraph graph;
  sim::CostModel costs = sim::CostModel::cholesky();
  sim::Platform platform;
  std::vector<std::uint64_t> episodes;  ///< one pass; the loop replays it
};

/// Per-call records of the timed MCT inners (one process-wide sink: the
/// shard factory builds inners through the registry, out of our reach).
struct InnerSink {
  Tracer* tracer = nullptr;
  std::uint32_t parent = Tracer::kNone;
  std::uint64_t request = 0;
  Samples decide_us;
  double total_us = 0.0;
  std::uint64_t calls = 0, empty = 0;
};
InnerSink* g_inner = nullptr;

class TimedMct final : public sim::Scheduler {
 public:
  void reset(const sim::EngineView& view) override { mct_.reset(view); }
  std::vector<sim::Assignment> decide(const sim::EngineView& view) override {
    const auto t0 = Clock::now();
    std::vector<sim::Assignment> out = mct_.decide(view);
    const auto t1 = Clock::now();
    if (g_inner != nullptr) {
      const double d = us_between(t0, t1);
      g_inner->decide_us.add(d);
      g_inner->total_us += d;
      ++g_inner->calls;
      if (out.empty()) ++g_inner->empty;
      if (g_inner->tracer != nullptr) {
        g_inner->tracer->span("sched.inner_decide", g_inner->request, g_inner->parent,
                              t0, t1);
      }
    }
    return out;
  }
  std::string name() const override { return "timed:" + mct_.name(); }

 private:
  sched::MctScheduler mct_;
};

/// Times the shard scheduler's decide (ready-task instants as samples,
/// every call in the total), counts assignments per task, and opens the
/// parent span of the inner calls when tracing. Lives across episodes;
/// each episode points it at a fresh shard scheduler.
class TimedShard final : public sim::Scheduler {
 public:
  TimedShard(std::size_t tasks, Tracer* tracer) : assigned_(tasks, 0), tracer_(tracer) {}
  void set_inner(sim::Scheduler* inner) { inner_ = inner; }
  void reset(const sim::EngineView& view) override {
    std::fill(assigned_.begin(), assigned_.end(), 0);
    inner_->reset(view);
  }
  std::vector<sim::Assignment> decide(const sim::EngineView& view) override {
    const bool ready = !view.ready().empty();
    const double inner_before = g_inner ? g_inner->total_us : 0.0;
    const auto t0 = Clock::now();
    std::uint32_t span = Tracer::kNone;
    if (tracer_ != nullptr) {
      span = tracer_->begin("cluster.decide", request_, Tracer::kNone, t0);
      g_inner->parent = span;
      g_inner->request = request_;
    }
    std::vector<sim::Assignment> out = inner_->decide(view);
    const auto t1 = Clock::now();
    const double d = us_between(t0, t1);
    if (tracer_ != nullptr) tracer_->end(span, t1);
    ++request_;
    total_us += d;
    if (ready) {
      decide_us.add(d);
      if (g_inner != nullptr) coord_us.add(d - (g_inner->total_us - inner_before));
    }
    for (const sim::Assignment& a : out) ++assigned_[static_cast<std::size_t>(a.task)];
    return out;
  }
  std::string name() const override { return "timed-shard"; }

  /// Tasks not assigned exactly once in the last episode.
  std::size_t misassigned() const {
    return static_cast<std::size_t>(
        std::count_if(assigned_.begin(), assigned_.end(), [](int n) { return n != 1; }));
  }

  BlockedLatency decide_us;
  Samples coord_us;
  double total_us = 0.0;

 private:
  sim::Scheduler* inner_ = nullptr;
  std::vector<int> assigned_;
  Tracer* tracer_;
  std::uint64_t request_ = 0;
};

std::string spec(bool timed_inner) {
  return "shard(shards=" + std::to_string(kShards) + "):" +
         (timed_inner ? kTimedInner : "mct");
}

/// The set-up: the DAG, the platform and one untimed warm-up episode.
std::unique_ptr<Setup> build(const Args& args) {
  const int p = args.smoke ? 32 : 256;
  dag::RandomDagConfig cfg;
  cfg.layers = 6;
  cfg.width = 2 * p;
  cfg.edge_density = std::min(0.4, 4.0 / static_cast<double>(cfg.width));
  cfg.kernel_types = 4;
  cfg.connect_layers = true;
  util::Rng rng(mix_seed(args.seed, 0));
  auto s = std::unique_ptr<Setup>(new Setup{dag::random_layered_dag(cfg, rng),
                                            sim::CostModel::cholesky(),
                                            sim::Platform::hybrid(p / 2, p - p / 2),
                                            {}});
  for (std::uint64_t i = 0; i < (args.smoke ? 1u : 8u); ++i) {
    s->episodes.push_back(mix_seed(args.seed, i + 1));
  }
  sched::SchedulerConfig sc;
  sc.seed = s->episodes.front();
  auto warm = sched::make_scheduler(spec(false), sc);
  sim::Simulator::Options opt;
  opt.sigma = kSigma;
  opt.seed = sc.seed;
  (void)sim::Simulator(s->graph, s->platform, s->costs, opt).run(*warm);
  return s;
}

/// Schedule checks and shard counters of a replay, gathered after each
/// episode's clock stopped.
struct Audit {
  std::size_t misassigned = 0, invalid = 0;
  double steals = 0.0, hb_transitions = 0.0;
};

/// Replays the episode list until `seconds` have passed (at least one
/// full pass). One unit is an episode: a fresh scheduler from the
/// registry and a Simulator run. The schedule checks run after the clock
/// stops.
Pass replay_with(const Setup& s, bool timed_inner, double seconds, TimedShard& timed,
                 std::vector<double>& reference, Audit& audit,
                 const std::function<void(double)>& between) {
  return replay(
      s.episodes.size(), seconds, reference,
      [&](std::size_t k) {
        const std::uint64_t seed = s.episodes[k];
        const auto t0 = Clock::now();
        sched::SchedulerConfig sc;
        sc.seed = seed;
        auto shard = sched::make_scheduler(spec(timed_inner), sc);
        timed.set_inner(shard.get());
        sim::Simulator::Options opt;
        opt.sigma = kSigma;
        opt.seed = seed;
        sim::Simulator simulator(s.graph, s.platform, s.costs, opt);
        const sim::SimResult res = simulator.run(timed);
        const double dt = s_between(t0, Clock::now());
        audit.misassigned += timed.misassigned();
        if (!res.trace.validate(s.graph, s.platform).empty()) ++audit.invalid;
        if (const auto* ss = dynamic_cast<const cluster::ShardScheduler*>(shard.get())) {
          audit.steals += static_cast<double>(ss->steals());
          audit.hb_transitions += static_cast<double>(ss->heartbeat().total_transitions());
        }
        return Outcome{res.makespan, dt, static_cast<double>(s.graph.num_tasks())};
      },
      &timed.decide_us, between);
}

void check_pass(Report& r, const std::string& tag, const Pass& p, const Audit& a) {
  r.check(tag + ".replay_identical", p.mismatches == 0,
          std::to_string(p.mismatches) + " episodes differ from the reference makespan");
  r.check(tag + ".assigned_once", a.misassigned == 0,
          std::to_string(a.misassigned) + " task assignments not exactly once");
  r.check(tag + ".valid_schedules", a.invalid == 0,
          std::to_string(a.invalid) + " traces failed Trace::validate");
  r.check(tag + ".no_failed_episodes", p.failed == 0,
          std::to_string(p.failed) + " episodes threw");
}

}  // namespace

Report run_cluster(const Args& args) {
  Report r;
  stamp_provenance(r, args, 1);
  HostSpeed host;
  cluster::register_cluster_scheduler();
  sched::registry().add(kTimedInner, [](const sched::SchedulerConfig&) {
    return std::make_unique<TimedMct>();
  });

  SetupTimes setup(args.seconds);
  const std::unique_ptr<Setup> s = setup.time([&] { return build(args); });
  const auto between = [&](double wall_s) {
    host.tick(wall_s);
    if (!args.trace) setup.tick(wall_s, [&] { return build(args); });
  };

  const double untraced_share = args.trace ? 0.3 : 1.0;
  std::vector<double> reference;
  TimedShard timed(s->graph.num_tasks(), nullptr);
  Audit audit;
  const double cpu0 = cpu_seconds();
  const Pass base =
      replay_with(*s, false, args.seconds * untraced_share, timed, reference, audit, between);
  const double cores = (cpu_seconds() - cpu0) / base.wall_s;
  host.stamp(r);
  check_pass(r, "cluster", base, audit);
  r.attempted = base.episodes;
  r.failed = base.failed;
  r.prov("mean_makespan", mean(reference));

  if (!args.trace) {
    const auto rates = block_rates(base.units, args.seconds / 10.0);
    host.timing(r, "setup_s", setup.median(), "s", "lower", setup.count(),
                "median of set-ups spread through the run, each incl. one warm-up "
                "episode");
    r.prov("block_rates", rates);
    host.timing(r, "throughput_per_s", median(rates), "1/s", "higher", rates.size(),
                "tasks assigned per wall second, median of blocks");
    host.timing(r, "p50_us", timed.decide_us.p50(), "us", "lower",
                timed.decide_us.count(),
                "shard Scheduler::decide at instants with a ready task, median of " +
                    std::to_string(timed.decide_us.blocks()) + " block p50s");
    host.timing(r, "p99_us", timed.decide_us.p99(), "us", "lower",
                timed.decide_us.count(), "median of block p99s");
    r.metric("mean_makespan", mean(reference), "ms", "lower", reference.size(),
             "simulated, mean over the episode list");
    r.metric("fail_ratio",
             static_cast<double>(base.failed) / static_cast<double>(base.episodes), "1",
             "lower", base.episodes);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB", "lower", 1);
    r.prov("tasks", static_cast<double>(s->graph.num_tasks()));
    return r;
  }

  // Traced pass: timed MCT inners under the same shard coordinator.
  Tracer tracer;
  InnerSink sink;
  sink.tracer = &tracer;
  g_inner = &sink;
  TimedShard ttimed(s->graph.num_tasks(), &tracer);
  std::vector<double> traced_ref = reference;
  Audit taudit;
  const Pass traced = replay_with(*s, true, args.seconds * (1.0 - untraced_share), ttimed,
                                  traced_ref, taudit, {});
  g_inner = nullptr;
  check_pass(r, "cluster.traced", traced, taudit);
  r.attempted += traced.episodes;
  r.failed += traced.failed;

  const double episodes = static_cast<double>(traced.episodes - traced.failed);
  r.metric("sched.inner_decide_us_p50", sink.decide_us.percentile(50), "us", "lower",
           sink.decide_us.count(), "MctScheduler::decide inside a shard");
  r.metric("sched.inner_decide_us_p99", sink.decide_us.percentile(99), "us", "lower",
           sink.decide_us.count());
  r.metric("cluster.coord_us", ttimed.coord_us.median(), "us", "lower",
           ttimed.coord_us.count(), "shard decide minus its inner calls, median");
  r.metric("sim.self_us", (traced.wall_s * 1e6 - ttimed.total_us) / traced.work, "us",
           "lower", static_cast<std::size_t>(traced.work),
           "Simulator::run wall minus decide, per assignment");
  r.metric("cluster.steals", taudit.steals / episodes, "count", "lower",
           static_cast<std::size_t>(episodes), "per episode");
  r.metric("cluster.hb_transitions", taudit.hb_transitions / episodes, "count", "lower",
           static_cast<std::size_t>(episodes), "per episode");
  r.metric("sched.empty_decide_ratio",
           static_cast<double>(sink.empty) / static_cast<double>(sink.calls), "ratio",
           "lower", sink.calls, "inner decides that bound nothing");
  r.metric("proc.cores_busy", cores, "ratio", "higher", base.episodes,
           "(user+sys CPU) / wall, untraced pass");
  r.metric("trace.overhead_ratio",
           (traced.wall_s / traced.work) / (base.wall_s / base.work), "ratio", "lower",
           traced.episodes, "traced/untraced wall per assignment");
  r.prov("spans_stored", static_cast<double>(tracer.stored()));
  r.prov("spans_dropped", static_cast<double>(tracer.dropped()));
  if (!args.trace_out.empty()) {
    r.check("trace.file_written", tracer.write_chrome(args.trace_out), args.trace_out);
  }
  return r;
}

}  // namespace perfbench
