#include "oracle/state_encoder.hpp"

#include <algorithm>
#include <vector>

#include "nn/gcn.hpp"

namespace readys::oracle {

StateEncoder::StateEncoder(const dag::TaskGraph& graph,
                           const sim::CostModel& costs, int window)
    : graph_(&graph), static_(graph), costs_(costs), window_(window) {
  time_scale_ = 1.0;
  for (int k = 0; k < graph.num_kernel_types(); ++k) {
    time_scale_ = std::max(
        time_scale_, costs.expected(k, sim::ResourceType::kCpu));
  }
}

rl::Observation StateEncoder::encode(const sim::EngineView& engine,
                                     sim::ResourceId current) const {
  return encode(engine, current, engine.any_running());
}

rl::Observation StateEncoder::encode(const sim::EngineView& engine,
                                     sim::ResourceId current,
                                     bool allow_idle) const {
  rl::Observation obs;
  obs.current_resource = current;
  obs.allow_idle = allow_idle;

  // Seeds: running tasks first, then ready tasks (Fig. 1).
  std::vector<dag::TaskId> seeds;
  seeds.reserve(engine.running().size() + engine.ready().size());
  for (const auto& info : engine.running()) seeds.push_back(info.task);
  for (dag::TaskId t : engine.ready()) seeds.push_back(t);
  obs.window = dag::extract_window(*graph_, seeds, window_);

  const std::size_t n = obs.window.size();
  const int kt = graph_->num_kernel_types();
  const int width = rl::node_feature_width(kt);
  obs.features = tensor::Tensor(n, static_cast<std::size_t>(width));

  // Per-node dynamic context.
  const double now = engine.now();
  for (std::size_t i = 0; i < n; ++i) {
    const dag::TaskId t = obs.window.nodes[i];
    double* row = obs.features.data() + i * static_cast<std::size_t>(width);
    static_.write_static(t, *graph_, row);
    double ready = engine.is_ready(t) ? 1.0 : 0.0;
    double running = 0.0;
    double remaining = 0.0;
    double on_gpu = 0.0;
    for (const auto& info : engine.running()) {
      if (info.task != t) continue;
      running = 1.0;
      remaining =
          std::max(0.0, info.expected_finish - now) / time_scale_;
      on_gpu = engine.platform().type(info.resource) ==
                       sim::ResourceType::kGpu
                   ? 1.0
                   : 0.0;
      break;
    }
    const int base = static_.static_width();
    row[base + 0] = ready;
    row[base + 1] = running;
    row[base + 2] = remaining;
    row[base + 3] = on_gpu;
    const int kernel = graph_->kernel(t);
    const double on_cpu_ms = costs_.expected(kernel, sim::ResourceType::kCpu);
    const double on_gpu_ms = costs_.expected(kernel, sim::ResourceType::kGpu);
    row[base + 4] = on_cpu_ms / time_scale_;
    row[base + 5] = on_gpu_ms / time_scale_;
    row[base + 6] = costs_.expected(kernel, engine.platform().type(current)) /
                    time_scale_;
    if (ready > 0.0) {
      obs.ready_positions.push_back(i);
      obs.ready_tasks.push_back(t);
    }
  }

  obs.ahat = nn::normalized_adjacency(n, obs.window.edges);
  nn::normalized_adjacency_csr(n, obs.window.edges, obs.ahat_csr);

  // Platform-agnostic resource summary (see DESIGN.md):
  // [cur-is-gpu, idle-cpu-frac, idle-gpu-frac, cpu-avail, gpu-avail,
  //  cpu-share, gpu-share, ready-pressure].
  const auto& platform = engine.platform();
  obs.resource_state = tensor::Tensor(1, rl::kResourceFeatureWidth);
  double idle_cpu = 0.0;
  double idle_gpu = 0.0;
  double next_cpu = -1.0;
  double next_gpu = -1.0;
  // The summary covers the visible resources only: the full view walks
  // the whole platform (identical to the historical 0..P-1 scan), a
  // shard-scoped view summarizes its own shard — the agent's partial
  // observation under the cluster scheduler.
  double ncpu = 0.0;
  double ngpu = 0.0;
  for (const sim::ResourceId r : engine.resources()) {
    const bool gpu = platform.type(r) == sim::ResourceType::kGpu;
    (gpu ? ngpu : ncpu) += 1.0;
    if (engine.is_idle(r)) (gpu ? idle_gpu : idle_cpu) += 1.0;
    const double avail = engine.expected_available_at(r) - now;
    double& next = gpu ? next_gpu : next_cpu;
    if (next < 0.0 || avail < next) next = avail;
  }
  const double total = ncpu + ngpu;
  obs.resource_state[0] =
      platform.type(current) == sim::ResourceType::kGpu ? 1.0 : 0.0;
  obs.resource_state[1] = ncpu > 0.0 ? idle_cpu / ncpu : 0.0;
  obs.resource_state[2] = ngpu > 0.0 ? idle_gpu / ngpu : 0.0;
  obs.resource_state[3] = next_cpu >= 0.0 ? next_cpu / time_scale_ : 1.0;
  obs.resource_state[4] = next_gpu >= 0.0 ? next_gpu / time_scale_ : 1.0;
  obs.resource_state[5] = ncpu / total;
  obs.resource_state[6] = ngpu / total;
  obs.resource_state[7] =
      n > 0 ? static_cast<double>(obs.ready_tasks.size()) /
                  static_cast<double>(n)
            : 0.0;
  return obs;
}

}  // namespace readys::oracle
