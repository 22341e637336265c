// Reload + supervision chaos: a reload storm racing live decision
// rounds (every decision still executes against exactly one published
// snapshot version), a poisoned checkpoint swap that must roll back
// without an outage, SIGKILL-style worker death mid-round (only the
// affected batch retires; the supervisor restarts the slot), and
// escalation to service-wide degraded mode once deaths blow the restart
// budget — the service keeps answering with one-shot MCT.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/readys.hpp"
#include "rl/checkpoint.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rv = readys::serve;

namespace {

rr::AgentConfig small_agent() {
  rr::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = 3;
  return cfg;
}

rr::PolicyNet small_net(const rr::AgentConfig& cfg) {
  return rr::PolicyNet(rr::node_feature_width(4),
                       rr::kResourceFeatureWidth, cfg);
}

rv::SessionSpec spec_for(rc::App app, int tiles, std::uint64_t seed,
                         const std::string& tenant = "default") {
  rv::SessionSpec s;
  s.app = app;
  s.tiles = tiles;
  s.seed = seed;
  s.deadline_us = -1.0;
  s.tenant = tenant;
  return s;
}

}  // namespace

// A thread hammers force-reloads while worker threads serve a stream of
// sessions. Proof obligations: the service completes everything, and
// every session's recorded weight-version trace is monotone — a round
// never mixes versions and adoption only moves forward.
TEST(ChaosReload, ReloadStormRacingDecisionRounds) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 2;
  sc.max_active = 4;
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);

  std::atomic<bool> stop{false};
  std::uint64_t reloads_done = 0;
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const rv::ReloadResult r = svc.reload(net, /*force=*/true);
      if (r.status == rv::ReloadStatus::kPublished) ++reloads_done;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const int kSessions = 24;
  for (std::uint64_t s = 1; s <= kSessions; ++s) {
    svc.submit(spec_for(s % 2 == 0 ? rc::App::kCholesky : rc::App::kLu, 3,
                        s));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.drain();
  svc.wait_idle();
  stop.store(true, std::memory_order_relaxed);
  storm.join();
  svc.shutdown();

  EXPECT_GT(reloads_done, 0u);
  EXPECT_EQ(svc.counters().completed, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(svc.counters().quarantined, 0u);
  const std::uint64_t final_version = svc.active_weight_version();
  for (const auto& r : svc.results()) {
    ASSERT_EQ(r.weight_versions.size(), r.actions.size());
    for (std::size_t i = 0; i < r.weight_versions.size(); ++i) {
      EXPECT_GE(r.weight_versions[i], 1u);
      EXPECT_LE(r.weight_versions[i], final_version);
      if (i > 0) EXPECT_LE(r.weight_versions[i - 1], r.weight_versions[i]);
    }
  }
}

// A poisoned (NaN) candidate and a truncated checkpoint file both hit a
// service under live load: the gate must reject them (rollback to
// last-good), no session may shed or quarantine because of the attempt,
// and the swap machinery keeps working afterwards.
TEST(ChaosReload, PoisonedAndTruncatedCandidatesRollBackWithoutOutage) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  auto poisoned = small_net(agent);
  poisoned.parameters()[0].mutable_value().data()[0] =
      std::numeric_limits<double>::quiet_NaN();

  rr::CheckpointData data;
  data.trainer = "a2c";
  const std::string blob = rr::serialize_checkpoint(net, data);
  const std::string truncated_path =
      ::testing::TempDir() + "readys_chaos_truncated.txt";
  {
    std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
    out << blob.substr(0, blob.size() / 3);
  }

  rv::ServiceConfig sc;
  sc.workers = 2;
  rv::DecisionService svc(net, agent, sc);
  const int kSessions = 16;
  for (std::uint64_t s = 1; s <= kSessions; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
    if (s == 4) {
      const rv::ReloadResult r = svc.reload(poisoned);
      EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
      EXPECT_EQ(r.version, 1u);
    }
    if (s == 8) {
      const rv::ReloadResult r = svc.reload_from_file(truncated_path);
      EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
      EXPECT_EQ(r.version, 1u);
    }
  }
  // The gate still publishes good candidates after the rejects.
  const rv::ReloadResult ok = svc.reload(net, /*force=*/true);
  EXPECT_EQ(ok.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(ok.version, 2u);

  svc.drain();
  svc.wait_idle();
  svc.shutdown();
  std::remove(truncated_path.c_str());

  EXPECT_EQ(svc.counters().completed, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(svc.counters().quarantined, 0u);
  EXPECT_EQ(svc.counters().shed, 0u);
  EXPECT_EQ(svc.counters().reload_rejects, 2u);
  EXPECT_EQ(svc.active_weight_version(), 2u);
}

// SIGKILL-style worker death mid-round: the chaos hook throws out of one
// round, simulating the worker dying with a batch in hand. Only that
// batch retires (quarantined, typed reason); the supervisor restarts the
// slot and every later session completes normally.
TEST(ChaosReload, WorkerDeathMidRoundRetiresOnlyItsBatch) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 1;
  sc.max_active = 2;
  sc.watchdog_period_ms = 1.0;  // fast supervisor ticks
  sc.supervise.backoff_ms = 1.0;
  std::atomic<int> kills{1};
  sc.chaos_round_hook = [&kills](std::size_t, std::uint64_t) {
    if (kills.fetch_sub(1, std::memory_order_relaxed) > 0) {
      throw std::runtime_error("chaos: simulated worker SIGKILL");
    }
  };
  rv::DecisionService svc(net, agent, sc);

  for (std::uint64_t s = 1; s <= 8; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
  }
  svc.drain();
  svc.wait_idle();
  svc.shutdown();

  const auto c = svc.counters();
  // The first round's batch (1-2 sessions, depending on how many
  // submits the worker raced ahead of) died with the worker; the
  // restarted worker completed every other session.
  EXPECT_GE(c.quarantined, 1u);
  EXPECT_LE(c.quarantined, 2u);
  EXPECT_EQ(c.completed + c.quarantined, 8u);
  EXPECT_GE(c.worker_restarts, 1u);
  EXPECT_FALSE(svc.degraded());
  for (const auto& r : svc.results()) {
    if (r.state == rv::SessionState::kQuarantined) {
      EXPECT_NE(r.error.find("worker crashed"), std::string::npos)
          << r.error;
      EXPECT_NE(r.error.find("SIGKILL"), std::string::npos) << r.error;
    } else {
      EXPECT_EQ(r.state, rv::SessionState::kCompleted);
    }
  }
}

// Past the restart budget the supervisor stops trusting the policy:
// degraded mode answers every decision with one-shot MCT — rounds can no
// longer die on the policy path, so the service keeps serving.
TEST(ChaosReload, RepeatedDeathsEscalateToDegradedModeThatStillServes) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 1;
  sc.max_active = 2;
  sc.watchdog_period_ms = 1.0;
  sc.supervise.backoff_ms = 1.0;
  sc.supervise.restart_budget = 2;
  sc.record_actions = true;
  // Kill every round that tries to run the policy. Degraded rounds skip
  // the hook's victimized policy path entirely — the hook itself models
  // a policy-triggered crash, so it stops firing once degraded.
  std::atomic<int> deaths{0};
  rv::DecisionService* svc_ptr = nullptr;
  sc.chaos_round_hook = [&deaths, &svc_ptr](std::size_t, std::uint64_t) {
    if (svc_ptr != nullptr && !svc_ptr->degraded()) {
      deaths.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("chaos: policy crashes the worker");
    }
  };
  rv::DecisionService svc(net, agent, sc);
  svc_ptr = &svc;

  const int kSessions = 12;
  for (std::uint64_t s = 1; s <= kSessions; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
  }
  svc.drain();
  svc.wait_idle();
  svc.shutdown();

  const auto c = svc.counters();
  EXPECT_TRUE(svc.degraded());
  EXPECT_GT(deaths.load(), 2);  // blew the budget
  EXPECT_GE(c.worker_restarts, 3u);
  EXPECT_GT(c.completed, 0u);  // the service kept answering
  EXPECT_EQ(c.completed + c.quarantined,
            static_cast<std::uint64_t>(kSessions));
  // Degraded decisions are MCT fallbacks, and completed sessions that
  // ran entirely degraded count fallbacks == decisions.
  EXPECT_GT(c.fallbacks, 0u);
}

// Deterministic degraded decisions: with deadline_us == 0 every decision
// degrades to one-shot MCT without consulting the clock, so two runs
// produce bit-identical traces — the same guarantee degraded mode rides.
TEST(ChaosReload, ZeroBudgetDegradedTraceIsDeterministic) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  auto run = [&] {
    rv::ServiceConfig sc;
    sc.workers = 0;
    sc.deadline_us = 0.0;
    sc.record_actions = true;
    rv::DecisionService svc(net, agent, sc);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      auto spec = spec_for(rc::App::kQr, 3, s);
      spec.deadline_us = 0.0;  // inherit the service's zero budget
      svc.submit(spec);
    }
    for (int guard = 0; guard < 100000; ++guard) {
      if (svc.pump() == 0 && svc.queue_depth() == 0) break;
    }
    svc.shutdown();
    return svc.results();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].actions, b[i].actions);
    EXPECT_EQ(a[i].timeouts, a[i].decisions);
    EXPECT_EQ(a[i].fallbacks, a[i].decisions);
  }
}
