// Property suite for the decentralized shard scheduler: task
// conservation under steal interleavings, heartbeat state-machine
// validity, bounded staleness of the cross-shard directory, the
// resource partition and scoped views it decides over, and the registry
// surface of the "shard:<inner>" family. Style follows the
// mapf-het-inspired invariant tests in tests/test_schedulers_property.cpp:
// run real episodes, then assert invariants that must hold under EVERY
// interleaving rather than pinning one specific schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/heartbeat.hpp"
#include "cluster/partition.hpp"
#include "cluster/register.hpp"
#include "cluster/shard_sched.hpp"
#include "dag/cholesky.hpp"
#include "sched/guarded.hpp"
#include "sched/mct.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine_view.hpp"
#include "sim/simulator.hpp"

namespace rc = readys::cluster;
namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rx = readys::sched;

namespace {

std::unique_ptr<rc::ShardScheduler> make_shard_mct(
    rc::ShardScheduler::Options opts) {
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < opts.shards; ++s) {
    inners.push_back(std::make_unique<rx::MctScheduler>());
  }
  return std::make_unique<rc::ShardScheduler>(std::move(inners), opts, "mct");
}

/// Probe that samples the coordinator's directory clock after every
/// decide, so the bounded-staleness property can be asserted across a
/// whole episode without instrumenting the scheduler itself.
class StaleProbe : public rs::Scheduler {
 public:
  StaleProbe(rc::ShardScheduler& inner) : inner_(&inner) {}
  void reset(const rs::EngineView& view) override { inner_->reset(view); }
  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    const auto out = inner_->decide(view);
    const double at = inner_->directory_refreshed_at();
    EXPECT_GE(at, last_at_) << "directory timestamp went backwards";
    EXPECT_LE(at, view.now() + 1e-12) << "directory refreshed in the future";
    EXPECT_LT(view.now() - at, inner_->options().stale_ms + 1e-12)
        << "directory older than the staleness bound after decide";
    last_at_ = at;
    return out;
  }
  std::string name() const override { return inner_->name(); }

 private:
  rc::ShardScheduler* inner_;
  double last_at_ = 0.0;
};

}  // namespace

// Cholesky starts from a single POTRF, so every second-wave task is
// owned by the producer's shard — the other shards MUST steal to get
// work. Conservation: every task still executes exactly once and the
// trace stays a valid schedule, no matter how ownership migrated.
TEST(ClusterSched, TaskConservationUnderStealInterleavings) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    rc::ShardScheduler::Options opts;
    opts.shards = 4;
    opts.stale_ms = 5.0;
    auto sched = make_shard_mct(opts);
    rs::Simulator sim(graph, platform, costs, {0.1, seed});
    const auto r = sim.run(*sched);
    EXPECT_EQ(r.trace.validate(graph, platform), "");
    EXPECT_EQ(r.trace.size(), graph.num_tasks());
    EXPECT_GT(sched->steals(), 0u) << "workload was built to force steals";
    EXPECT_GE(sched->stolen_tasks(), sched->steals());
    // Conservation while stealing: nothing duplicated, nothing lost —
    // every shard queue drained by the end.
    for (int s = 0; s < sched->num_shards(); ++s) {
      EXPECT_TRUE(sched->shard_queue(s).empty());
    }
  }
}

// A guarded inner must not count a stolen-away task as a strike: the
// scoped view answers is_ready globally, so a late proposal for stolen
// work passes the guard and gets dropped by the coordinator's ownership
// check instead. Were it otherwise, three steals from one shard would
// permanently degrade its guarded:readys agent to MCT.
TEST(ClusterSched, GuardedInnersSurviveStealInterleavings) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  std::vector<rx::GuardedScheduler*> guards;
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < 4; ++s) {
    auto g = std::make_unique<rx::GuardedScheduler>(
        std::make_unique<rx::MctScheduler>());
    guards.push_back(g.get());
    inners.push_back(std::move(g));
  }
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  rc::ShardScheduler sched(std::move(inners), opts, "guarded:mct");
  rs::Simulator sim(graph, platform, costs, {0.1, 5});
  const auto r = sim.run(sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_GT(sched.steals(), 0u) << "workload was built to force steals";
  for (const rx::GuardedScheduler* g : guards) {
    EXPECT_FALSE(g->degraded());
    EXPECT_EQ(g->fallback_decisions(), 0u);
  }
}

TEST(ClusterSched, StealingDisabledStillCompletesViaRescue) {
  const auto graph = rd::cholesky_graph(6);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(4, 4);
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  opts.steal = false;
  auto sched = make_shard_mct(opts);
  rs::Simulator sim(graph, platform, costs, {0.0, 3});
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_EQ(sched->steals(), 0u);
}

// The failure detector only worsens one step per observation and only
// revives on a heard heartbeat: alive->dead and dead->suspect must
// never appear in the transition matrix, dead->alive requires the
// resource to actually be up (a recovery), and under an outage/recovery
// fault model transitions do happen.
TEST(ClusterSched, HeartbeatTransitionValidityUnderFaults) {
  const auto graph = rd::cholesky_graph(10);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(6, 6);
  rs::FaultModel faults;
  faults.outage_rate = 0.004;
  faults.mean_downtime = 120.0;
  rc::ShardScheduler::Options opts;
  opts.shards = 3;
  opts.hb_period_ms = 1.0;
  opts.hb_suspect = 2;
  opts.hb_dead = 4;
  auto sched = make_shard_mct(opts);
  rs::Simulator::Options opt;
  opt.sigma = 0.1;
  opt.seed = 17;
  opt.faults = faults;
  rs::Simulator sim(graph, platform, costs, opt);
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.size(), graph.num_tasks());
  const auto& m = sched->heartbeat().transition_counts();
  const auto alive = static_cast<int>(rc::HbState::kAlive);
  const auto suspect = static_cast<int>(rc::HbState::kSuspect);
  const auto dead = static_cast<int>(rc::HbState::kDead);
  EXPECT_EQ(m[alive][dead], 0u) << "alive may never jump straight to dead";
  EXPECT_EQ(m[dead][suspect], 0u) << "dead only revives on a heartbeat";
  for (int i = 0; i < rc::kNumHbStates; ++i) {
    EXPECT_EQ(m[i][i], 0u) << "self-transitions are not transitions";
  }
  EXPECT_GT(sched->heartbeat().total_transitions(), 0u)
      << "outages lasting >> dead_after beats must be detected";
  EXPECT_GT(m[alive][suspect], 0u);
}

// Unit-level detector check with a hand-driven liveness sequence: a
// silenced resource degrades alive -> suspect -> dead over observations
// and snaps back to alive only once heartbeats resume.
TEST(ClusterSched, HeartbeatMonitorDetectsOutageAndRecovery) {
  rc::HeartbeatMonitor::Config cfg;
  cfg.period_ms = 1.0;
  cfg.suspect_after = 2;
  cfg.dead_after = 4;
  rc::HeartbeatMonitor mon(cfg);
  mon.reset(2, 0.0);
  std::vector<std::uint8_t> up = {1, 1};
  mon.observe(1.5, up);
  EXPECT_EQ(mon.state(0), rc::HbState::kAlive);
  up[0] = 0;  // resource 0 goes silent
  bool saw_suspect = false;
  for (double t = 2.0; t <= 10.0; t += 0.5) {
    mon.observe(t, up);
    if (mon.state(0) == rc::HbState::kSuspect) saw_suspect = true;
    // Resource 1 keeps heartbeating and never degrades.
    EXPECT_EQ(mon.state(1), rc::HbState::kAlive);
  }
  EXPECT_TRUE(saw_suspect) << "must pass through suspect on the way down";
  EXPECT_EQ(mon.state(0), rc::HbState::kDead);
  EXPECT_FALSE(mon.believed_alive(0));
  up[0] = 1;  // recovery: heartbeats resume
  mon.observe(12.0, up);
  EXPECT_EQ(mon.state(0), rc::HbState::kAlive);
  const auto& m = mon.transition_counts();
  EXPECT_EQ(m[static_cast<int>(rc::HbState::kDead)]
             [static_cast<int>(rc::HbState::kAlive)],
            1u);
  EXPECT_EQ(m[static_cast<int>(rc::HbState::kAlive)]
             [static_cast<int>(rc::HbState::kDead)],
            0u);
}

TEST(ClusterSched, DirectoryStalenessIsBoundedAndMonotone) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(4, 4);
  for (const double stale : {0.5, 5.0, 50.0}) {
    rc::ShardScheduler::Options opts;
    opts.shards = 4;
    opts.stale_ms = stale;
    auto sched = make_shard_mct(opts);
    StaleProbe probe(*sched);
    rs::Simulator sim(graph, platform, costs, {0.1, 2});
    const auto r = sim.run(probe);
    EXPECT_EQ(r.trace.validate(graph, platform), "");
  }
}

// The coordinator's scoped views sit directly on the plain Simulator's
// engine-backed view: a default-option run completes with a valid trace.
TEST(ClusterSched, RunsUnderPlainSimulator) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(4, 4);
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  auto sched = make_shard_mct(opts);
  rs::Simulator sim(graph, platform, costs, {0.1, 9});
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
}

// Parallel per-shard decide must be observationally identical to the
// serial path (disjoint scopes, results applied in shard order).
TEST(ClusterSched, ParallelDecideMatchesSerial) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  rc::ShardScheduler::Options serial_opts;
  serial_opts.shards = 4;
  auto serial = make_shard_mct(serial_opts);
  rc::ShardScheduler::Options par_opts;
  par_opts.shards = 4;
  par_opts.parallel = 4;
  auto parallel = make_shard_mct(par_opts);
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const rs::Simulator::Options opt{0.1, seed};
    rs::Simulator sim_a(graph, platform, costs, opt);
    rs::Simulator sim_b(graph, platform, costs, opt);
    const auto ra = sim_a.run(*serial);
    const auto rb = sim_b.run(*parallel);
    ASSERT_DOUBLE_EQ(ra.makespan, rb.makespan) << "seed=" << seed;
    ASSERT_EQ(ra.trace.size(), rb.trace.size());
    for (std::size_t i = 0; i < ra.trace.entries().size(); ++i) {
      EXPECT_EQ(ra.trace.entries()[i].task, rb.trace.entries()[i].task);
      EXPECT_EQ(ra.trace.entries()[i].resource,
                rb.trace.entries()[i].resource);
    }
  }
}

TEST(ClusterSched, PartitionKeepsShardsHeterogeneous) {
  const auto platform = rs::Platform::hybrid(8, 4);
  const auto part = rc::Partition::by_type_round_robin(platform, 4);
  ASSERT_EQ(part.members.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    int cpus = 0;
    int gpus = 0;
    for (const rs::ResourceId r : part.members[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(part.shard(r), s);
      (platform.type(r) == rs::ResourceType::kCpu ? cpus : gpus)++;
    }
    EXPECT_EQ(cpus, 2);  // 8 CPUs round-robined over 4 shards
    EXPECT_EQ(gpus, 1);  // 4 GPUs round-robined over 4 shards
    // Ascending member lists, as the scoped views require.
    const auto& m = part.members[static_cast<std::size_t>(s)];
    for (std::size_t i = 1; i < m.size(); ++i) EXPECT_LT(m[i - 1], m[i]);
  }
  EXPECT_THROW(rc::Partition::by_type_round_robin(platform, 0),
               std::invalid_argument);
  EXPECT_THROW(rc::Partition::by_type_round_robin(platform, 13),
               std::invalid_argument);
}

// A shard-scoped view over a live SimEngine, built by hand the way the
// coordinator builds one: the tables that make it scoped come from the
// EngineState, and every global fact answers through the base view.
TEST(ClusterSched, ScopedViewOverLiveEngineScopesTablesAndDelegatesFacts) {
  const auto graph = rd::cholesky_graph(4);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(2, 2);
  rs::SimEngine engine(graph, platform, costs, 0.0, 1);
  const rs::EngineView base(engine);

  // The source runs out of scope (resource 1); its successors become
  // ready, and one starts in scope (0) while another starts out of it (3).
  const rd::TaskId src = engine.ready().front();
  engine.start(src, 1);
  ASSERT_TRUE(engine.advance());
  const std::vector<rd::TaskId> wave = engine.ready();
  ASSERT_GE(wave.size(), 3u);
  engine.start(wave[0], 0);
  engine.start(wave[1], 3);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<rs::ResourceId> members = {0, 2};
  const std::vector<rd::TaskId> owned;  // the shard owns no ready task
  const std::vector<rd::TaskId> log;
  std::vector<rs::RunningInfo> running;
  for (const rs::RunningInfo& info : engine.running()) {
    if (info.resource == 0 || info.resource == 2) running.push_back(info);
  }
  const std::vector<std::uint8_t> up = {1, 0, 1, 0};  // remote reads down
  // A sentinel for resource 2 proves the view reads `avail`, not the
  // engine (which would answer now()).
  const std::vector<double> avail = {engine.expected_available_at(0), kInf,
                                     42.5, kInf};
  rs::EngineState st;
  st.now = engine.now();
  st.fault_enabled = true;
  st.any_running = engine.any_running();
  st.resources = &members;
  st.ready = &owned;
  st.ready_log = &log;
  st.running = &running;
  st.up = &up;
  st.avail = &avail;
  st.graph = &base.graph();
  st.platform = &base.platform();
  st.costs = &base.costs();
  st.base = &base;
  const rs::EngineView v(st);

  // Scoped: resources, ready set, idle resources, liveness, running.
  EXPECT_EQ(v.resources(), members);
  EXPECT_TRUE(v.ready().empty());
  EXPECT_FALSE(engine.ready().empty());
  EXPECT_EQ(v.idle_resources(), std::vector<rs::ResourceId>{2});
  EXPECT_FALSE(v.is_up(1));
  EXPECT_TRUE(engine.is_up(1));
  EXPECT_FALSE(v.is_idle(0));
  EXPECT_TRUE(v.is_idle(2));
  ASSERT_EQ(v.running().size(), 1u);
  EXPECT_EQ(v.running().front().task, wave[0]);
  EXPECT_DOUBLE_EQ(v.now(), engine.now());
  EXPECT_TRUE(v.fault_enabled());
  EXPECT_TRUE(v.any_running());

  // Global through base: readiness of a task the shard does not own,
  // what runs on a remote resource, producers, durations, completion.
  EXPECT_TRUE(v.is_ready(wave[2]));
  EXPECT_FALSE(v.is_ready(wave[0]));
  EXPECT_EQ(v.running_on(0), wave[0]);
  EXPECT_EQ(v.running_on(3), wave[1]);
  EXPECT_EQ(v.producer_of(src), 1);
  EXPECT_EQ(v.producer_of(wave[0]), -1);
  EXPECT_TRUE(v.is_done(src));
  EXPECT_FALSE(v.is_done(wave[0]));
  for (const rs::ResourceId r : {0, 1, 2, 3}) {
    EXPECT_DOUBLE_EQ(v.expected_duration(wave[2], r),
                     engine.expected_duration(wave[2], r));
    EXPECT_DOUBLE_EQ(v.expected_input_delay(wave[2], r), 0.0);
  }
  EXPECT_EQ(&v.graph(), &engine.graph());
  EXPECT_EQ(&v.platform(), &engine.platform());
  EXPECT_EQ(&v.costs(), &engine.costs());
  EXPECT_EQ(v.has_comm_model(), engine.has_comm_model());

  // Availability is the scoped table.
  EXPECT_DOUBLE_EQ(v.expected_available_at(0), engine.expected_available_at(0));
  EXPECT_GT(v.expected_available_at(0), engine.now());
  EXPECT_DOUBLE_EQ(v.expected_available_at(2), 42.5);
  EXPECT_DOUBLE_EQ(engine.expected_available_at(2), engine.now());

  // A scoped state has no meaning without its base.
  rs::EngineState orphan = st;
  orphan.base = nullptr;
  EXPECT_THROW(rs::EngineView{orphan}, std::invalid_argument);
}

TEST(ClusterSched, RegistrySurface) {
  rc::register_cluster_scheduler();
  auto& reg = rx::registry();
  EXPECT_TRUE(reg.contains("shard:mct"));
  EXPECT_TRUE(reg.contains("shard(shards=2,steal=0):mct"));
  EXPECT_TRUE(reg.contains("shard(shards=4):guarded:mct"));
  EXPECT_FALSE(reg.contains("shard(bogus=1):mct"));
  EXPECT_FALSE(reg.contains("shard(shards=0):mct"));
  EXPECT_FALSE(reg.contains("shard(dead=1,suspect=3):mct"));
  EXPECT_FALSE(reg.contains("shard(shards=2):nope"));
  EXPECT_FALSE(reg.contains("shardfoo"));
  const auto s = reg.make("shard(shards=2,stale_ms=1.5,parallel=0):mct");
  EXPECT_EQ(s->name(), "shard(2xmct)");
  // The composed family actually runs.
  const auto graph = rd::cholesky_graph(6);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(2, 2);
  auto composed = reg.make("shard(shards=2):guarded:mct");
  rs::Simulator sim(graph, platform, costs, {0.0, 1});
  const auto r = sim.run(*composed);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
}

TEST(ClusterSched, ShardCountClampsToPlatform) {
  const auto graph = rd::cholesky_graph(4);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(1, 1);  // P = 2
  rc::ShardScheduler::Options opts;
  opts.shards = 8;  // more shards than resources
  auto sched = make_shard_mct(opts);
  rs::Simulator sim(graph, platform, costs, {0.0, 1});
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_EQ(sched->num_shards(), 2);
}
