// Shutdown-vs-producer races in the async actor–learner plumbing and
// the decision service, aimed at the tsan preset: every test here spins
// real threads against close/fail/abort edges and must be data-race
// free, deadlock free, and leak free.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/readys.hpp"
#include "rl/async.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rv = readys::serve;
namespace rs = readys::sim;
namespace ru = readys::util;

namespace {

rr::EpisodeRollout rollout(int index) {
  rr::EpisodeRollout r;
  r.index = index;
  return r;
}

}  // namespace

TEST(AsyncStress, CloseUnblocksProducersStuckOnFullQueue) {
  rr::EpisodeQueue queue(2);
  ASSERT_TRUE(queue.push(rollout(0)));
  ASSERT_TRUE(queue.push(rollout(1)));

  // Four producers block on the full queue; close() must release every
  // one of them with push() == false, without a consumer ever popping.
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&queue, &rejected, t] {
      if (!queue.push(rollout(10 + t))) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  for (auto& p : producers) p.join();
  EXPECT_EQ(rejected.load(), 4);

  // The two accepted episodes still drain, then pop reports closed.
  rr::EpisodeRollout out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_FALSE(queue.pop(out));
}

TEST(AsyncStress, FailWakesConsumerAndProducers) {
  rr::EpisodeQueue queue(1);
  ASSERT_TRUE(queue.push(rollout(0)));

  // No consumer runs, so the queue stays full and the producer is
  // guaranteed to be parked in push() when fail() lands.
  std::thread blocked_producer([&queue] {
    EXPECT_FALSE(queue.push(rollout(1)));  // full, then failed
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.fail(std::make_exception_ptr(std::runtime_error("actor died")));
  blocked_producer.join();

  // A failed queue aborts the drain: pop() reports false even though an
  // item is still buffered, and the stashed exception rethrows.
  rr::EpisodeRollout out;
  EXPECT_FALSE(queue.pop(out));
  ASSERT_NE(queue.error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(queue.error()), std::runtime_error);
}

TEST(AsyncStress, HammeredPushPopCloseRace) {
  // Many producers, one consumer, and a closer all racing. Nothing to
  // assert beyond "terminates without tripping tsan": every push either
  // lands or reports closed, every popped episode was pushed.
  for (int round = 0; round < 8; ++round) {
    rr::EpisodeQueue queue(3);
    std::atomic<int> pushed{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&queue, &pushed, t] {
        for (int i = 0; i < 64; ++i) {
          if (!queue.push(rollout(t * 1000 + i))) return;
          pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::atomic<int> popped{0};
    std::thread consumer([&queue, &popped] {
      rr::EpisodeRollout out;
      while (queue.pop(out)) popped.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    queue.close();
    for (auto& p : producers) p.join();
    consumer.join();
    EXPECT_LE(popped.load(), pushed.load());
  }
}

TEST(AsyncStress, ActorPoolSurvivesEarlyDestruction) {
  // Destroying the pool mid-run must stop the claim loop, close the
  // queue, and join the actor threads — even though most indices were
  // never claimed and the consumer walked away early.
  const auto graph = rc::make_graph(rc::App::kCholesky, 3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rc::make_costs(rc::App::kCholesky);
  rr::SchedulingEnv::Config env_cfg;
  env_cfg.window = 1;

  for (int round = 0; round < 4; ++round) {
    ru::ThreadPool pool;
    rr::VecEnv envs(graph, platform, costs, env_cfg, 2, &pool);
    rr::EpisodeQueue queue(2);
    rr::ActorPool::Options opts;
    opts.episodes = 1000;  // far more than we will consume
    opts.actors = 2;
    {
      rr::ActorPool actors(
          envs, queue,
          [](std::size_t, const rr::Observation&, ru::Rng&) {
            return rr::ActorPool::Act{};  // always action 0
          },
          opts);
      actors.release_below(opts.episodes);  // free mode: claim anything
      rr::EpisodeRollout out;
      // Consume a couple of episodes, then destroy the pool with
      // actors still producing.
      ASSERT_TRUE(queue.pop(out));
      ASSERT_TRUE(queue.pop(out));
    }
    rr::EpisodeRollout leftover;
    while (queue.pop(leftover)) {
    }
    EXPECT_EQ(queue.error(), nullptr);
  }
}

TEST(AsyncStress, ServiceAbortRacesSubmitters) {
  // Threads keep submitting while the main thread pulls the plug. Every
  // submission must resolve to exactly one disposition (completed,
  // aborted, or shed) — admissions and retirements must balance even
  // when abort lands mid-submit.
  rr::AgentConfig agent;
  agent.hidden = 8;
  agent.gcn_layers = 1;
  agent.window = 1;
  agent.seed = 3;
  rr::PolicyNet net(rr::node_feature_width(4),
                    rr::kResourceFeatureWidth, agent);

  for (int round = 0; round < 3; ++round) {
    rv::ServiceConfig sc;
    sc.workers = 2;
    sc.max_active = 2;
    sc.queue_capacity = 8;
    rv::DecisionService svc(net, agent, sc);

    std::atomic<std::uint64_t> admitted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&svc, &admitted, t] {
        for (int i = 0; i < 16; ++i) {
          rv::SessionSpec spec;
          spec.tiles = 3;
          spec.seed = static_cast<std::uint64_t>(t * 100 + i);
          spec.deadline_us = -1.0;
          const auto a = svc.submit(spec);
          if (a.admitted) admitted.fetch_add(1, std::memory_order_relaxed);
          if (a.reason == "stopped") return;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    svc.abort_shutdown();
    for (auto& s : submitters) s.join();

    const auto c = svc.counters();
    EXPECT_EQ(admitted.load(), c.admitted);
    EXPECT_EQ(c.completed + c.quarantined + c.aborted, c.admitted);
    EXPECT_EQ(svc.results().size(), static_cast<std::size_t>(c.admitted));
    EXPECT_TRUE(svc.idle());
  }
}

TEST(AsyncStress, ServiceDrainRacesSubmitters) {
  rr::AgentConfig agent;
  agent.hidden = 8;
  agent.gcn_layers = 1;
  agent.window = 1;
  agent.seed = 3;
  rr::PolicyNet net(rr::node_feature_width(4),
                    rr::kResourceFeatureWidth, agent);

  rv::ServiceConfig sc;
  sc.workers = 2;
  sc.queue_capacity = 16;
  rv::DecisionService svc(net, agent, sc);

  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&svc, t] {
      for (int i = 0; i < 10; ++i) {
        rv::SessionSpec spec;
        spec.tiles = 3;
        spec.seed = static_cast<std::uint64_t>(t * 50 + i);
        spec.deadline_us = -1.0;
        svc.submit(spec);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.drain();
  for (auto& s : submitters) s.join();
  svc.wait_idle();

  // Everything admitted before the drain completed; nothing aborted.
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, c.admitted);
  EXPECT_EQ(c.aborted, 0u);
  svc.shutdown();
}
