#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"

namespace readys::obs {

/// What to collect and where to put it. Everything is off until a
/// Telemetry built from this config is install()ed.
struct TelemetryConfig {
  /// JSONL sink for per-episode training rows and the final metrics
  /// snapshot; empty keeps metrics in memory only (snapshot on demand).
  std::string metrics_path;
  /// Chrome trace JSON written at shutdown(); empty disables span
  /// collection entirely (Span construction stays a no-op).
  std::string trace_path;
  /// Upper bound on stored spans; later spans count as dropped.
  std::size_t max_trace_events = 1u << 20;
  /// Sink rows between forced flushes.
  int flush_every = 32;
};

/// Process-wide telemetry: one metrics registry, one span collector, one
/// optional JSONL sink. Instrumentation sites reach it through the
/// global telemetry() pointer — a single relaxed-ish atomic load — so
/// the whole subsystem costs one predictable branch when disabled.
///
/// The well-known counters/histograms below are resolved once at
/// construction; hot paths use them directly instead of paying a
/// name lookup per increment.
class Telemetry {
  // Data members first: the public instrument references below are bound
  // by calling into registry_, so the registry must be constructed
  // before them (members initialize in declaration order).
  TelemetryConfig config_;
  MetricsRegistry registry_;
  TraceCollector tracer_;
  std::unique_ptr<JsonlSink> sink_;
  bool tracing_ = false;
  bool finalized_ = false;
  std::vector<std::string> extra_fragments_;

 public:
  explicit Telemetry(TelemetryConfig config);

  MetricsRegistry& registry() noexcept { return registry_; }
  TraceCollector& tracer() noexcept { return tracer_; }
  /// Null when no metrics_path was configured.
  JsonlSink* sink() noexcept { return sink_.get(); }
  bool tracing() const noexcept { return tracing_; }
  const TelemetryConfig& config() const noexcept { return config_; }

  /// Extra Chrome-trace event fragments (e.g. the simulated schedule
  /// from sim::chrome_trace_events) merged into the trace file ahead of
  /// the wall-clock spans.
  void add_trace_fragment(std::string fragment);

  /// Flushes the sink (appending one final metrics-snapshot row) and, if
  /// a trace_path is configured, writes the merged Chrome trace file.
  /// Called by obs::shutdown(); safe to call repeatedly.
  void finalize();

  // --- well-known instruments (names in docs/observability.md) --------
  Counter& sim_tasks_started;   ///< sim.tasks_started
  Counter& sim_events;          ///< sim.events (engine advance() calls)
  Counter& sim_episodes;        ///< sim.episodes (engine resets)
  Counter& env_steps;           ///< rl.env_steps
  Counter& env_resets;          ///< rl.env_resets
  Counter& vec_steps;           ///< rl.vec_steps (batched VecEnv::step calls)
  Counter& policy_forwards;     ///< rl.policy_forwards
  Counter& encoder_delta_events;///< rl.encoder_delta_events (incremental
                                ///< re-encodes that reused the window)
  Counter& offer_reuses;        ///< rl.offer_reuses (READYS offers served
                                ///< from a same-call policy output)
  Counter& optim_updates;       ///< rl.optimizer_updates
  Counter& optim_skipped;       ///< rl.skipped_updates
  Counter& checkpoint_writes;   ///< rl.checkpoint_writes
  Counter& ckpt_fallbacks;      ///< ckpt.fallbacks (corrupt files skipped)
  Counter& sched_decisions;     ///< sched.decisions (assignments bound)
  Counter& sched_fallbacks;     ///< sched.fallback_decisions (guard trips)
  Counter& pool_tasks;          ///< util.pool_tasks
  Counter& eval_runs;           ///< core.eval_runs
  Counter& serve_admitted;      ///< serve.admitted (sessions accepted)
  Counter& serve_shed;          ///< serve.shed (admissions rejected)
  Counter& serve_completed;     ///< serve.completed (sessions finished clean)
  Counter& serve_quarantined;   ///< serve.quarantined (sessions isolated)
  Counter& serve_retries;       ///< serve.retries (transient-fault resubmits)
  Counter& serve_decisions;     ///< serve.decisions (actions issued)
  Counter& serve_timeouts;      ///< serve.deadline_timeouts (budget blown)
  Counter& serve_fallbacks;     ///< serve.fallback_decisions (MCT degrades)
  Counter& serve_reloads;       ///< serve.reloads (weight versions published)
  Counter& serve_reload_rejects;  ///< serve.reload_rejects (validation fails)
  Counter& serve_worker_restarts; ///< serve.worker_restarts (supervisor)
  Counter& serve_tenant_shed;   ///< serve.tenant_shed (QoS rate-limit/evict)
  Counter& sink_errors;         ///< obs.sink_errors (dropped sink rows)
  Counter& cluster_steals;      ///< cluster.steals (steal attempts landed)
  Counter& cluster_stolen;      ///< cluster.stolen_tasks (tasks migrated)
  Counter& cluster_hb_transitions;  ///< cluster.heartbeat_transitions
  Counter& cluster_rescues;     ///< cluster.rescue_fallbacks (full-view MCT)
  Counter& cluster_dropped;     ///< cluster.dropped_assignments (stale inner)
  Gauge& pool_queue_depth;      ///< util.pool_queue_depth
  Gauge& train_envs;            ///< train.envs (width of the vector env)
  Gauge& serve_queue_depth;     ///< serve.queue_depth (admission queue)
  Gauge& serve_active;          ///< serve.active_sessions
  Gauge& serve_active_weight_version;  ///< serve.active_weight_version
  Histogram& env_step_us;       ///< rl.env_step_us
  Histogram& vec_step_us;       ///< rl.vec_step_us (whole-batch latency)
  Histogram& policy_forward_us; ///< rl.policy_forward_us
  Histogram& infer_us;          ///< rl.infer_us (InferenceBackend latency)
  Histogram& update_us;         ///< rl.update_us
  Histogram& serve_decide_us;   ///< serve.decide_us (per-session latency)
  Histogram& cluster_stale_age; ///< cluster.stale_view_age_ms (sim time)
};

namespace detail {
extern std::atomic<Telemetry*> g_telemetry;
}

/// The installed telemetry, or nullptr when disabled. This is THE
/// hot-path gate: every instrumentation site loads it once and branches.
inline Telemetry* telemetry() noexcept {
  return detail::g_telemetry.load(std::memory_order_acquire);
}

inline bool enabled() noexcept { return telemetry() != nullptr; }

/// Creates and installs the process-wide telemetry. Returns false (and
/// does nothing) if one is already installed. Throws if an output path
/// cannot be opened.
bool install(TelemetryConfig config);

/// Finalizes (flush + trace write) and destroys the installed telemetry.
/// No-op when none is installed.
void shutdown();

/// install() driven by READYS_METRICS_OUT / READYS_TRACE_OUT; returns
/// true when either variable was set and telemetry is now installed.
bool install_from_env();

}  // namespace readys::obs
