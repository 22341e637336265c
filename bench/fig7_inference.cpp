// Figure 7: mean per-decision inference time of the READYS network as a
// function of the number of tasks in the observation window, with 99%
// confidence intervals. States are harvested from rollouts on Cholesky
// DAGs of growing size (the paper reports an average window of ~45 tasks
// and millisecond-scale inference on one CPU core).
//
// Harvesting and timing are split into two phases: rollouts (the slow,
// embarrassingly-parallel part) run on a ThreadPool and only collect
// observations; the forward passes are then timed serially on a single
// quiet thread so pool contention never pollutes the measurement.

#include <chrono>
#include <map>

#include "bench_common.hpp"

using namespace bench;

namespace {

/// One rollout worth of harvested observations.
struct HarvestCell {
  int tiles = 0;
  int episode = 0;
  const dag::TaskGraph* graph = nullptr;
  std::vector<rl::Observation> states;
};

}  // namespace

int main() {
  const Budget budget = Budget::from_env();
  const auto tiles = util::env_int_list("READYS_TILES", {4, 6, 8, 10, 12});
  const int window = util::env_int("READYS_WINDOW", 2);
  const int episodes_per_size = util::env_int("READYS_EVAL_SEEDS", 3);

  BenchRun run("fig7_inference", budget);
  run.manifest.set("window", window);
  run.manifest.set("episodes_per_size", episodes_per_size);

  rl::AgentConfig cfg = default_agent_config(budget);
  cfg.window = window;
  rl::PolicyNet net(rl::node_feature_width(4), rl::kResourceFeatureWidth, cfg);

  std::printf("=== Figure 7: inference time vs window size (w=%d, hidden=%d,"
              " %d GCN layers) ===\n\n",
              window, cfg.hidden, cfg.gcn_layers);

  const auto costs = core::make_costs(core::App::kCholesky);
  const auto platform = sim::Platform::hybrid(2, 2);

  // Phase 1: harvest observations from independent rollouts in parallel.
  // Actions are drawn uniformly from the legal set instead of from the
  // net: the net is untrained here, so its stochastic policy is
  // near-uniform anyway, and a forward-free harvest keeps every forward
  // pass inside the timed phase below.
  std::vector<dag::TaskGraph> graphs;
  graphs.reserve(tiles.size());
  for (int t : tiles) graphs.push_back(core::make_graph(core::App::kCholesky, t));

  std::vector<HarvestCell> cells;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    for (int ep = 0; ep < episodes_per_size; ++ep) {
      cells.push_back({tiles[gi], ep, &graphs[gi], {}});
    }
  }
  util::ThreadPool pool;
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    HarvestCell& c = cells[i];
    rl::SchedulingEnv env(*c.graph, platform, costs, {0.3, window, 7});
    util::Rng rng(11 + 7919 * static_cast<std::uint64_t>(i));
    env.reset(static_cast<std::uint64_t>(c.episode) + 50);
    bool done = env.done();
    while (!done) {
      const rl::Observation& obs = env.observation();
      c.states.push_back(obs);
      done = env.step(rng.uniform_index(obs.num_actions())).done;
    }
  });

  // Phase 2: time one forward pass per harvested state, serially.
  // (window size bucket) -> per-decision forward times in microseconds.
  std::map<std::size_t, std::vector<double>> samples;
  for (const HarvestCell& c : cells) {
    for (const rl::Observation& obs : c.states) {
      const auto start = std::chrono::steady_clock::now();
      const auto out = net.forward(obs);
      const auto stop = std::chrono::steady_clock::now();
      (void)out;
      const double us =
          std::chrono::duration<double, std::micro>(stop - start).count();
      const std::size_t bucket = (obs.window.size() / 10) * 10;
      samples[bucket].push_back(us);
    }
  }

  util::Table table({"window tasks", "decisions", "mean (us)", "ci99 (us)",
                     "p95 (us)"});
  util::CsvWriter csv("fig7.csv",
                      {"window_bucket", "n", "mean_us", "ci99_us", "p95_us"});
  for (const auto& [bucket, xs] : samples) {
    const auto s = util::summarize(xs);
    const double p95 = util::quantile(xs, 0.95);
    const std::string label =
        std::to_string(bucket) + "-" + std::to_string(bucket + 9);
    table.add_row({label, std::to_string(s.count), fmt(s.mean, 1),
                   fmt(s.ci99_half_width, 1), fmt(p95, 1)});
    csv.row({label, std::to_string(s.count), fmt(s.mean, 2),
             fmt(s.ci99_half_width, 2), fmt(p95, 2)});
  }
  table.print();
  run.finish("fig7.csv");
  std::printf("\nseries written to fig7.csv\n");
  std::printf("expected shape (paper): grows with window size, stays at "
              "millisecond scale or below.\n");
  return 0;
}
