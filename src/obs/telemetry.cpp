#include "obs/telemetry.hpp"

#include <cstdlib>
#include <mutex>

#include "util/logging.hpp"

namespace readys::obs {

namespace detail {
std::atomic<Telemetry*> g_telemetry{nullptr};
}

namespace {

// Guards install/shutdown transitions (not the hot path).
std::mutex g_lifecycle_mutex;
std::unique_ptr<Telemetry> g_owned;

}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : config_(std::move(config)),
      tracer_(config_.max_trace_events),
      sim_tasks_started(registry_.counter("sim.tasks_started")),
      sim_events(registry_.counter("sim.events")),
      sim_episodes(registry_.counter("sim.episodes")),
      env_steps(registry_.counter("rl.env_steps")),
      env_resets(registry_.counter("rl.env_resets")),
      vec_steps(registry_.counter("rl.vec_steps")),
      policy_forwards(registry_.counter("rl.policy_forwards")),
      encoder_delta_events(registry_.counter("rl.encoder_delta_events")),
      offer_reuses(registry_.counter("rl.offer_reuses")),
      optim_updates(registry_.counter("rl.optimizer_updates")),
      optim_skipped(registry_.counter("rl.skipped_updates")),
      checkpoint_writes(registry_.counter("rl.checkpoint_writes")),
      ckpt_fallbacks(registry_.counter("ckpt.fallbacks")),
      sched_decisions(registry_.counter("sched.decisions")),
      sched_fallbacks(registry_.counter("sched.fallback_decisions")),
      pool_tasks(registry_.counter("util.pool_tasks")),
      eval_runs(registry_.counter("core.eval_runs")),
      serve_admitted(registry_.counter("serve.admitted")),
      serve_shed(registry_.counter("serve.shed")),
      serve_completed(registry_.counter("serve.completed")),
      serve_quarantined(registry_.counter("serve.quarantined")),
      serve_retries(registry_.counter("serve.retries")),
      serve_decisions(registry_.counter("serve.decisions")),
      serve_timeouts(registry_.counter("serve.deadline_timeouts")),
      serve_fallbacks(registry_.counter("serve.fallback_decisions")),
      serve_reloads(registry_.counter("serve.reloads")),
      serve_reload_rejects(registry_.counter("serve.reload_rejects")),
      serve_worker_restarts(registry_.counter("serve.worker_restarts")),
      serve_tenant_shed(registry_.counter("serve.tenant_shed")),
      sink_errors(registry_.counter("obs.sink_errors")),
      cluster_steals(registry_.counter("cluster.steals")),
      cluster_stolen(registry_.counter("cluster.stolen_tasks")),
      cluster_hb_transitions(registry_.counter("cluster.heartbeat_transitions")),
      cluster_rescues(registry_.counter("cluster.rescue_fallbacks")),
      cluster_dropped(registry_.counter("cluster.dropped_assignments")),
      pool_queue_depth(registry_.gauge("util.pool_queue_depth")),
      train_envs(registry_.gauge("train.envs")),
      serve_queue_depth(registry_.gauge("serve.queue_depth")),
      serve_active(registry_.gauge("serve.active_sessions")),
      serve_active_weight_version(
          registry_.gauge("serve.active_weight_version")),
      env_step_us(registry_.histogram("rl.env_step_us")),
      vec_step_us(registry_.histogram("rl.vec_step_us")),
      policy_forward_us(registry_.histogram("rl.policy_forward_us")),
      infer_us(registry_.histogram("rl.infer_us")),
      update_us(registry_.histogram("rl.update_us")),
      serve_decide_us(registry_.histogram("serve.decide_us")),
      cluster_stale_age(registry_.histogram(
          "cluster.stale_view_age_ms",
          {0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0})) {
  if (!config_.metrics_path.empty()) {
    sink_ = std::make_unique<JsonlSink>(config_.metrics_path,
                                        config_.flush_every);
  }
  tracing_ = !config_.trace_path.empty();
}

void Telemetry::add_trace_fragment(std::string fragment) {
  extra_fragments_.push_back(std::move(fragment));
}

void Telemetry::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (sink_) {
    JsonObject row;
    row.field("row", "metrics_snapshot")
        .raw("metrics", registry_.snapshot().to_json())
        .field("trace_events", static_cast<std::uint64_t>(tracer_.size()))
        .field("trace_events_dropped", tracer_.dropped());
    // finalize() runs on shutdown paths (including destructors such as
    // bench::BenchRun's); a full disk must not escalate to terminate().
    // The drop is still counted in obs.sink_errors and logged.
    try {
      sink_->write(row.str());
      sink_->flush();
    } catch (const std::exception& e) {
      util::log_error() << "telemetry finalize: " << e.what();
    }
  }
  if (!config_.trace_path.empty()) {
    std::vector<std::string> fragments = extra_fragments_;
    fragments.push_back(tracer_.events_json());
    write_chrome_trace_file(config_.trace_path, fragments);
  }
}

bool install(TelemetryConfig config) {
  std::lock_guard lock(g_lifecycle_mutex);
  if (g_owned) return false;
  g_owned = std::make_unique<Telemetry>(std::move(config));
  detail::g_telemetry.store(g_owned.get(), std::memory_order_release);
  return true;
}

void shutdown() {
  std::lock_guard lock(g_lifecycle_mutex);
  if (!g_owned) return;
  // Unpublish first so instrumentation on other threads stops observing
  // before the instance is finalized and destroyed. (Racing threads must
  // not hold a Telemetry* across shutdown — in practice install/shutdown
  // bracket the whole run.)
  detail::g_telemetry.store(nullptr, std::memory_order_release);
  g_owned->finalize();
  g_owned.reset();
}

bool install_from_env() {
  const char* metrics = std::getenv("READYS_METRICS_OUT");
  const char* trace = std::getenv("READYS_TRACE_OUT");
  if ((metrics == nullptr || *metrics == '\0') &&
      (trace == nullptr || *trace == '\0')) {
    return false;
  }
  TelemetryConfig cfg;
  if (metrics != nullptr) cfg.metrics_path = metrics;
  if (trace != nullptr) cfg.trace_path = trace;
  return install(std::move(cfg));
}

}  // namespace readys::obs
