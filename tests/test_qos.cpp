// Tenant QoS suite: priority-class dequeue order, deficit-weighted fair
// sharing across tenants, token-bucket rate limiting at submit, and
// noisy-neighbor eviction under overload (the abusive tenant sheds
// first; unaffected tenants' decision traces stay bit-identical).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/readys.hpp"

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
                         const std::string& tenant = "default",
                         rv::QosClass qos = rv::QosClass::kNormal) {
  rv::SessionSpec s;
  s.app = app;
  s.tiles = tiles;
  s.seed = seed;
  s.deadline_us = -1.0;
  s.tenant = tenant;
  s.qos = qos;
  return s;
}

void pump_dry(rv::DecisionService& svc) {
  for (int guard = 0; guard < 100000; ++guard) {
    if (svc.pump() == 0 && svc.queue_depth() == 0) return;
  }
  FAIL() << "service did not drain in 100k rounds";
}

}  // namespace

TEST(QosQueue, SingleTenantSingleClassIsFifo) {
  // The QosQueue must reduce exactly to the old FIFO for the pre-QoS
  // determinism pins to keep holding.
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.max_active = 2;  // rounds of 2: completion order tracks admission
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);
  for (std::uint64_t s = 1; s <= 4; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
  }
  pump_dry(svc);
  svc.shutdown();
  const auto results = svc.results();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.state, rv::SessionState::kCompleted);
  }
}

TEST(QosQueue, DeadlineClassDequeuesBeforeNormalBeforeBatch) {
  rv::QosQueue q;
  const auto agent = small_agent();
  const auto net = small_net(agent);
  const auto platform = readys::sim::Platform::hybrid(2, 2);
  auto graph = std::make_shared<const readys::dag::TaskGraph>(
      rc::make_graph(rc::App::kCholesky, 3));
  auto make = [&](std::uint64_t id, rv::QosClass cls) {
    auto spec = spec_for(rc::App::kCholesky, 3, id, "t", cls);
    return std::make_unique<rv::Session>(id, spec, platform, graph, 1);
  };
  q.push_back({make(1, rv::QosClass::kBatch), {}});
  q.push_back({make(2, rv::QosClass::kNormal), {}});
  q.push_back({make(3, rv::QosClass::kDeadline), {}});
  q.push_back({make(4, rv::QosClass::kNormal), {}});

  std::vector<std::unique_ptr<rv::Session>> out;
  q.pop_due(rv::QosQueue::Clock::now(), 4, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0]->id(), 3u);  // deadline first
  EXPECT_EQ(out[1]->id(), 2u);  // then normal, FIFO
  EXPECT_EQ(out[2]->id(), 4u);
  EXPECT_EQ(out[3]->id(), 1u);  // batch last
}

TEST(QosQueue, DeficitRoundRobinInterleavesTenantsFairly) {
  rv::QosQueue q;
  const auto platform = readys::sim::Platform::hybrid(2, 2);
  auto graph = std::make_shared<const readys::dag::TaskGraph>(
      rc::make_graph(rc::App::kCholesky, 3));
  auto push = [&](std::uint64_t id, const std::string& tenant) {
    auto spec = spec_for(rc::App::kCholesky, 3, id, tenant);
    q.push_back(
        {std::make_unique<rv::Session>(id, spec, platform, graph, 1), {}});
  };
  q.set_weight("a", 1.0);
  q.set_weight("b", 1.0);
  // Tenant a floods first; b arrives after with 2 entries.
  for (std::uint64_t id = 1; id <= 6; ++id) push(id, "a");
  push(10, "b");
  push(11, "b");

  std::vector<std::unique_ptr<rv::Session>> out;
  q.pop_due(rv::QosQueue::Clock::now(), 4, out);
  ASSERT_EQ(out.size(), 4u);
  // Equal weights: the first 4 pops split 2/2 across tenants instead of
  // draining the flooder first.
  int from_b = 0;
  for (const auto& s : out) {
    if (s->spec().tenant == "b") ++from_b;
  }
  EXPECT_EQ(from_b, 2);
}

TEST(QosQueue, EvictForShedsTheMostBackloggedTenant) {
  rv::QosQueue q;
  const auto platform = readys::sim::Platform::hybrid(2, 2);
  auto graph = std::make_shared<const readys::dag::TaskGraph>(
      rc::make_graph(rc::App::kCholesky, 3));
  auto push = [&](std::uint64_t id, const std::string& tenant) {
    auto spec = spec_for(rc::App::kCholesky, 3, id, tenant);
    q.push_back(
        {std::make_unique<rv::Session>(id, spec, platform, graph, 1), {}});
  };
  for (std::uint64_t id = 1; id <= 5; ++id) push(id, "hog");
  push(10, "small");

  // A third tenant submits into the full queue: the hog's NEWEST entry
  // is the victim (its oldest work keeps its place).
  auto victim = q.evict_for("victim-side", rv::QosClass::kNormal);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->spec().tenant, "hog");
  EXPECT_EQ(victim->id(), 5u);
  EXPECT_EQ(q.queued_for("hog"), 4u);
  EXPECT_EQ(q.queued_for("small"), 1u);

  // The hog itself submitting cannot evict anyone — it IS the backlog.
  for (std::uint64_t id = 6; id <= 12; ++id) push(id, "hog");
  EXPECT_EQ(q.evict_for("hog", rv::QosClass::kNormal), nullptr);
}

TEST(ServeQos, RateLimitedTenantShedsAtSubmit) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  // 1-token bucket, negligible refill: the second immediate submit must
  // shed regardless of timing.
  sc.default_tenant.rate_per_s = 0.001;
  sc.default_tenant.burst = 1.0;
  rv::DecisionService svc(net, agent, sc);

  const auto a = svc.submit(spec_for(rc::App::kCholesky, 3, 1));
  const auto b = svc.submit(spec_for(rc::App::kCholesky, 3, 2));
  EXPECT_TRUE(a.admitted);
  EXPECT_FALSE(b.admitted);
  EXPECT_EQ(b.reason, "rate limited");
  EXPECT_EQ(svc.counters().tenant_shed, 1u);
  const auto tc = svc.tenant_counters();
  ASSERT_EQ(tc.count("default"), 1u);
  EXPECT_EQ(tc.at("default").admitted, 1u);
  EXPECT_EQ(tc.at("default").shed, 1u);
  pump_dry(svc);
  svc.shutdown();
}

TEST(ServeQos, PerTenantPolicyOverridesDefault) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.default_tenant.rate_per_s = 0.001;  // everyone else: 1 then shed
  sc.default_tenant.burst = 1.0;
  sc.tenants["vip"] = rv::TenantPolicy{};  // unlimited
  rv::DecisionService svc(net, agent, sc);

  EXPECT_TRUE(svc.submit(spec_for(rc::App::kCholesky, 3, 1, "vip")).admitted);
  EXPECT_TRUE(svc.submit(spec_for(rc::App::kCholesky, 3, 2, "vip")).admitted);
  EXPECT_TRUE(svc.submit(spec_for(rc::App::kCholesky, 3, 3, "std")).admitted);
  EXPECT_FALSE(svc.submit(spec_for(rc::App::kCholesky, 3, 4, "std")).admitted);
  pump_dry(svc);
  svc.shutdown();
}

TEST(ServeQos, NoisyNeighborEvictionKeepsVictimTenantFlowing) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.queue_capacity = 4;
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);

  // The hog fills the whole queue...
  for (std::uint64_t s = 1; s <= 4; ++s) {
    EXPECT_TRUE(
        svc.submit(spec_for(rc::App::kCholesky, 3, s, "hog")).admitted);
  }
  // ...and the small tenant still gets in: the hog's newest entry sheds.
  const auto adm = svc.submit(spec_for(rc::App::kCholesky, 3, 100, "small"));
  EXPECT_TRUE(adm.admitted);
  EXPECT_EQ(svc.counters().tenant_shed, 1u);

  pump_dry(svc);
  svc.shutdown();
  const auto tc = svc.tenant_counters();
  EXPECT_EQ(tc.at("hog").shed, 1u);
  EXPECT_EQ(tc.at("hog").completed, 3u);
  EXPECT_EQ(tc.at("small").completed, 1u);
  // The evicted session retired as kShed with a typed reason.
  std::size_t shed_seen = 0;
  for (const auto& r : svc.results()) {
    if (r.state == rv::SessionState::kShed) {
      ++shed_seen;
      EXPECT_EQ(r.tenant, "hog");
      EXPECT_NE(r.error.find("evicted"), std::string::npos);
    }
  }
  EXPECT_EQ(shed_seen, 1u);
}

TEST(ServeQos, EvictionLeavesUnaffectedTenantTraceBitIdentical) {
  const auto agent = small_agent();
  const auto net = small_net(agent);

  // Control: the small tenant runs alone (sampling mode — drift shows).
  auto run_small = [&](bool with_hog) {
    rv::ServiceConfig sc;
    sc.workers = 0;
    sc.queue_capacity = 8;
    sc.record_actions = true;
    sc.greedy = false;
    rv::DecisionService svc(net, agent, sc);
    if (with_hog) {
      for (std::uint64_t s = 1; s <= 8; ++s) {
        svc.submit(spec_for(rc::App::kLu, 3, s, "hog",
                            rv::QosClass::kBatch));
      }
    }
    svc.submit(spec_for(rc::App::kCholesky, 3, 42, "small"));
    if (with_hog) {
      // Overflow: the hog sheds to admit one more small session... which
      // must not perturb the existing small session's decisions.
      svc.submit(spec_for(rc::App::kCholesky, 3, 43, "small"));
    }
    pump_dry(svc);
    svc.shutdown();
    for (const auto& r : svc.results()) {
      if (r.tenant == "small" && r.id <= 9) return r.actions;
    }
    return std::vector<std::uint32_t>{};
  };

  const auto alone = run_small(false);
  const auto crowded = run_small(true);
  ASSERT_FALSE(alone.empty());
  EXPECT_EQ(alone, crowded);
}

TEST(ServeQos, QueueFullStillShedsSingleTenantSubmitter) {
  // Single-tenant overload keeps the old behavior: the incoming session
  // sheds with "queue full" (there is no neighbor to evict).
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.queue_capacity = 2;
  rv::DecisionService svc(net, agent, sc);
  EXPECT_TRUE(svc.submit(spec_for(rc::App::kCholesky, 3, 1)).admitted);
  EXPECT_TRUE(svc.submit(spec_for(rc::App::kCholesky, 3, 2)).admitted);
  const auto c = svc.submit(spec_for(rc::App::kCholesky, 3, 3));
  EXPECT_FALSE(c.admitted);
  EXPECT_EQ(c.reason, "queue full");
  EXPECT_EQ(svc.counters().tenant_shed, 0u);
  pump_dry(svc);
  svc.shutdown();
}
