// Workload `serve`: per-session service through the DecisionService.
//
// A DecisionService with 2 inference workers, max_active 8, backend
// f32simd and no deadline serves an untrained PolicyNet (hidden 32,
// window 2, fixed init seed). One client thread submits waves of 32
// catalog sessions (Cholesky/LU/QR, tiles 3-5, sigma 0.1, drawn by
// serve::draw_catalog_spec from the workload seed) and waits for each
// wave to retire: a closed loop with one client of 32 outstanding
// sessions. A fixed list of 64 waves is replayed; every replayed session
// must retire kCompleted with the makespan it had the first time.
//
// Waves of 32 rather than 16: with 16 sessions the two workers' batches
// drain to a tail of one or two sessions every wave, so each wave ends
// in a few long single-session rounds and two thread wake-ups, and the
// wave p99 moved by half between runs on a busy host. With 32 the
// batches stay full for most of the wave.
//
// The traced run repeats the closed loop on a service that records its
// own per-decision forward latencies, with spans around submit() and
// wait_idle(), and then drives an open-loop diagnostic at two fixed
// offered rates (Poisson arrivals). The open loop is reported, not
// gated: its generator lateness and Little's-law latency were too
// unsteady on a shared 4-core host to bound.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "rl/agent.hpp"
#include "serve/load_gen.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

using namespace readys;

constexpr int kWindow = 2;
constexpr int kHidden = 32;
constexpr std::uint64_t kNetSeed = 1;
constexpr int kWorkers = 2;
constexpr std::size_t kWave = 32;

struct Setup {
  std::unique_ptr<rl::ReadysAgent> agent;  ///< owns the policy net
  std::vector<serve::SessionSpec> specs;  ///< waves of kWave, replayed
  std::unique_ptr<serve::DecisionService> svc;
};

serve::ServiceConfig service_config(bool record_latencies) {
  serve::ServiceConfig c;
  c.cpus = 2;
  c.gpus = 2;
  c.queue_capacity = 64;
  c.max_active = 8;
  c.workers = kWorkers;
  c.deadline_us = -1.0;
  c.inference_backend = rl::InferenceBackendKind::kF32Simd;
  c.greedy = true;
  c.record_latencies = record_latencies;
  return c;
}

std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::make_unique<Setup>();
  rl::AgentConfig agent;
  agent.hidden = kHidden;
  agent.window = kWindow;
  agent.seed = kNetSeed;
  s->agent = std::make_unique<rl::ReadysAgent>(4, agent);
  serve::LoadGenConfig lg;
  lg.tiles_min = 3;
  lg.tiles_max = args.smoke ? 3 : 5;
  lg.sigma = 0.1;
  lg.deadline_us = -1.0;  // opt out: decisions never depend on the clock
  util::Rng rng(mix_seed(args.seed, 0));
  const std::size_t waves = args.smoke ? 1 : 64;
  for (std::size_t i = 0; i < waves * kWave; ++i) {
    s->specs.push_back(serve::draw_catalog_spec(lg, rng));
  }
  return s;
}

/// Session ids of the timed loop, mapped back to their spec index.
struct Ledger {
  std::vector<std::pair<std::uint64_t, std::size_t>> sessions;
  std::uint64_t submitted = 0;
  std::uint64_t refused = 0;
};

/// Wave latency is cut into this many blocks: each holds about 270 waves
/// of a 25 s run, so a block's p99 is its third-slowest wave and the
/// median over blocks shrugs off a stretch of host noise. The run-wide
/// p99 (about 14 waves beyond it) is kept in the provenance.
constexpr int kWaveBlocks = 5;

struct ClosedLoop {
  BlockedLatency wave_blocks{1u << 14};
  std::vector<Unit> units;
  std::vector<double> wave_us, submit_us, drain_us;
  double wall_s = 0.0;
  std::size_t waves = 0;
  double rss_mb = 0.0;  ///< peak RSS once kRssPasses passes retired
};

/// The service keeps every retired SessionResult, so its memory grows by
/// about 200 bytes a session for as long as it runs, and a time-bounded
/// run would report more memory the faster the host was. peak_rss_mb is
/// therefore read after a fixed amount of work: set-up plus this many
/// passes over the session list.
constexpr std::size_t kRssPasses = 4;

/// Submits one wave and waits for it to retire.
void run_wave(Setup& s, serve::DecisionService& svc, std::size_t wave, Ledger& ledger,
              ClosedLoop& loop, Tracer* tracer) {
  const std::size_t waves = s.specs.size() / kWave;
  const std::size_t base = (wave % waves) * kWave;
  const auto t0 = Clock::now();
  const std::uint32_t root =
      tracer ? tracer->begin("serve.wave", wave, Tracer::kNone, t0) : Tracer::kNone;
  std::size_t admitted = 0;
  for (std::size_t j = 0; j < kWave; ++j) {
    const auto a0 = Clock::now();
    const serve::DecisionService::Admission adm = svc.submit(s.specs[base + j]);
    if (tracer) {
      const auto a1 = Clock::now();
      tracer->span("serve.submit", wave, root, a0, a1);
      loop.submit_us.push_back(us_between(a0, a1));
    }
    ++ledger.submitted;
    if (adm.admitted) {
      ++admitted;
      ledger.sessions.emplace_back(adm.id, base + j);
    } else {
      ++ledger.refused;
    }
  }
  const auto d0 = Clock::now();
  svc.wait_idle();
  const auto t1 = Clock::now();
  if (tracer) {
    tracer->span("serve.drain", wave, root, d0, t1);
    tracer->end(root, t1);
    loop.drain_us.push_back(us_between(d0, t1));
  }
  loop.wave_us.push_back(us_between(t0, t1));
  loop.units.push_back(Unit{s_between(t0, t1), static_cast<double>(admitted)});
  loop.wall_s += s_between(t0, t1);
  ++loop.waves;
}

/// The set-up: net, catalog specs, the service (PolicyStore snapshot, f32
/// weights, worker and supervisor threads) and one untimed warm-up wave.
std::unique_ptr<Setup> build_warm(const Args& args) {
  std::unique_ptr<Setup> s = build(args);
  s->svc = std::make_unique<serve::DecisionService>(
      s->agent->net(), s->agent->config(), service_config(false));
  Ledger ledger;
  ClosedLoop warm;
  run_wave(*s, *s->svc, 0, ledger, warm, nullptr);
  return s;
}

/// `between(timed_wall_s)`, when given, runs untimed after every wave.
ClosedLoop closed_loop(Setup& s, serve::DecisionService& svc, double seconds,
                       Ledger& ledger, Tracer* tracer,
                       const std::function<void(double)>& between = {}) {
  ClosedLoop loop;
  const std::size_t waves = s.specs.size() / kWave;
  double block_s = 0.0;
  while (loop.wall_s < seconds || loop.waves < waves) {
    run_wave(s, svc, loop.waves, ledger, loop, tracer);
    if (loop.waves == kRssPasses * waves) loop.rss_mb = peak_rss_mb();
    loop.wave_blocks.add(loop.wave_us.back());
    block_s += loop.units.back().wall_s;
    if (block_s >= seconds / kWaveBlocks) {
      loop.wave_blocks.cut();
      block_s = 0.0;
    }
    if (between) between(loop.wall_s);
  }
  loop.wave_blocks.finish(100);
  if (loop.rss_mb == 0.0) loop.rss_mb = peak_rss_mb();
  return loop;
}

/// Checks every ledger session retired kCompleted with the makespan its
/// spec had the first time (`reference`, filled when empty). Returns the
/// retired results of the ledger's sessions.
std::vector<serve::SessionResult> settle(Report& r, const std::string& tag,
                                         const serve::DecisionService& svc,
                                         const Ledger& ledger,
                                         std::vector<double>& reference,
                                         std::size_t specs) {
  std::map<std::uint64_t, std::size_t> spec_of(ledger.sessions.begin(),
                                               ledger.sessions.end());
  std::vector<serve::SessionResult> mine;
  std::size_t not_completed = 0, changed = 0;
  const bool fill = reference.empty();
  if (fill) reference.assign(specs, -1.0);
  for (serve::SessionResult& res : svc.results()) {
    const auto it = spec_of.find(res.id);
    if (it == spec_of.end()) continue;
    if (res.state != serve::SessionState::kCompleted) {
      ++not_completed;
    } else if (fill && reference[it->second] < 0.0) {
      reference[it->second] = res.makespan;
    } else if (res.makespan != reference[it->second]) {
      ++changed;
    }
    mine.push_back(std::move(res));
  }
  r.check(tag + ".all_retired", mine.size() == ledger.sessions.size(),
          std::to_string(mine.size()) + " of " +
              std::to_string(ledger.sessions.size()) + " sessions retired");
  r.check(tag + ".all_completed", not_completed == 0,
          std::to_string(not_completed) + " sessions did not complete");
  r.check(tag + ".replay_identical", changed == 0,
          std::to_string(changed) + " replayed sessions changed makespan");
  r.check(tag + ".all_admitted", ledger.refused == 0,
          std::to_string(ledger.refused) + " submissions refused");
  return mine;
}

/// Open-loop diagnostic: Poisson arrivals at `rate`/s for `seconds`.
/// Mean in-system count is sampled at each arrival (PASTA), so the mean
/// time in system follows from Little's law: W = L / rate.
struct OpenLoop {
  double little_ms = 0.0;
  std::vector<double> late_us;
  std::size_t arrivals = 0;
};

OpenLoop open_loop(Setup& s, serve::DecisionService& svc, double rate, double seconds,
                   std::uint64_t seed, Ledger& ledger) {
  OpenLoop o;
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  const auto start = Clock::now();
  double due_s = 0.0;
  double in_system = 0.0;
  for (std::size_t i = 0;; ++i) {
    due_s += gap(gen);
    if (due_s > seconds) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    const auto now = Clock::now();
    o.late_us.push_back(us_between(due, now));
    in_system += static_cast<double>(svc.queue_depth() + svc.active_count());
    const std::size_t k = i % s.specs.size();
    const serve::DecisionService::Admission adm = svc.submit(s.specs[k]);
    ++ledger.submitted;
    if (adm.admitted) {
      ledger.sessions.emplace_back(adm.id, k);
    } else {
      ++ledger.refused;
    }
    ++o.arrivals;
  }
  svc.wait_idle();
  if (o.arrivals > 0) o.little_ms = in_system / static_cast<double>(o.arrivals) / rate * 1e3;
  return o;
}

}  // namespace

Report run_serve(const Args& args) {
  Report r;
  stamp_provenance(r, args, kWorkers + 2);  // + client + supervisor
  HostSpeed host;

  SetupTimes setup(args.seconds);
  const std::unique_ptr<Setup> s = setup.time([&] { return build_warm(args); });
  const auto between = [&](double wall_s) {
    host.tick(wall_s);
    if (!args.trace) setup.tick(wall_s, [&] { return build_warm(args); });
  };

  const double untraced_share = args.trace ? 0.3 : 1.0;
  Ledger ledger;
  std::vector<double> reference;
  const double cpu0 = cpu_seconds();
  const ClosedLoop base = closed_loop(*s, *s->svc, args.seconds * untraced_share,
                                      ledger, nullptr, between);
  const double cores = (cpu_seconds() - cpu0) / base.wall_s;
  host.stamp(r);
  (void)settle(r, "serve", *s->svc, ledger, reference, s->specs.size());
  const serve::DecisionService::Counters c = s->svc->counters();
  r.attempted = ledger.submitted;
  r.failed = ledger.refused + c.quarantined + c.aborted;
  const double fail_ratio = static_cast<double>(c.shed + c.quarantined + c.aborted) /
                            static_cast<double>(c.admitted + c.shed);
  std::vector<double> ref_done;
  for (const double m : reference) {
    if (m >= 0.0) ref_done.push_back(m);
  }

  r.prov("mean_makespan", mean(ref_done));
  if (!args.trace) {
    const auto rates = block_rates(base.units, args.seconds / 10.0);
    host.timing(r, "setup_s", setup.median(), "s", "lower", setup.count(),
                "median of set-ups spread through the run, each incl. one warm-up wave");
    r.prov("block_rates", rates);
    host.timing(r, "throughput_per_s", median(rates), "1/s", "higher", rates.size(),
                "completed sessions per wall second, median of blocks");
    host.timing(r, "p50_us", base.wave_blocks.p50(), "us", "lower", base.wave_us.size(),
                "wave of 32 sessions: first submit() until wait_idle() returns, "
                "median of " + std::to_string(base.wave_blocks.blocks()) +
                    " block p50s");
    host.timing(r, "p99_us", base.wave_blocks.p99(), "us", "lower", base.wave_us.size(),
                "median of block p99s");
    r.prov("p99_us_run", percentile(base.wave_us, 99));
    r.metric("mean_makespan", mean(ref_done), "ms", "lower", ref_done.size(),
             "simulated, mean over the session list");
    r.metric("fail_ratio", fail_ratio, "1", "lower", c.admitted + c.shed,
             "(shed + quarantined + aborted) / submitted");
    r.metric("peak_rss_mb", base.rss_mb, "MB", "lower", 1,
             "after set-up and " + std::to_string(kRssPasses) +
                 " passes over the session list");
    r.prov("peak_rss_mb_at_end", peak_rss_mb());
    return r;
  }

  // Traced pass on a service that records its own forward latencies.
  Tracer tracer;
  serve::DecisionService svc(s->agent->net(), s->agent->config(), service_config(true));
  Ledger tledger;
  const ClosedLoop traced =
      closed_loop(*s, svc, args.seconds * (1.0 - untraced_share) * 0.7, tledger, &tracer);
  std::vector<double> traced_ref = reference;
  const std::vector<serve::SessionResult> tdone =
      settle(r, "serve.traced", svc, tledger, traced_ref, s->specs.size());
  std::vector<double> round_us;
  double decisions = 0.0;
  for (const serve::SessionResult& res : tdone) {
    round_us.insert(round_us.end(), res.decide_us.begin(), res.decide_us.end());
    decisions += static_cast<double>(res.decisions);
  }
  const serve::DecisionService::Counters tc = svc.counters();

  // Open-loop diagnostic at two fixed offered rates.
  const double ol_seconds = args.smoke ? 0.05 : args.seconds * (1.0 - untraced_share) * 0.15;
  Ledger oledger;
  const OpenLoop lo = open_loop(*s, svc, 300.0, ol_seconds, mix_seed(args.seed, 11), oledger);
  const OpenLoop hi = open_loop(*s, svc, 900.0, ol_seconds, mix_seed(args.seed, 12), oledger);
  std::vector<double> ol_ref = reference;
  (void)settle(r, "serve.open_loop", svc, oledger, ol_ref, s->specs.size());
  std::vector<double> late = lo.late_us;
  late.insert(late.end(), hi.late_us.begin(), hi.late_us.end());

  r.attempted += tledger.submitted + oledger.submitted;
  r.failed += tledger.refused + oledger.refused + tc.quarantined + tc.aborted;
  r.metric("serve.submit_us_p50", percentile(traced.submit_us, 50), "us", "lower",
           traced.submit_us.size(), "DecisionService::submit");
  r.metric("serve.submit_us_p99", percentile(traced.submit_us, 99), "us", "lower",
           traced.submit_us.size());
  r.metric("serve.drain_us", median(traced.drain_us), "us", "lower",
           traced.drain_us.size(), "last submit until wait_idle returns, median");
  r.metric("serve.round_forward_us_p50", percentile(round_us, 50), "us", "lower",
           round_us.size(), "SessionResult::decide_us (batched forward per round)");
  r.metric("serve.round_forward_us_p99", percentile(round_us, 99), "us", "lower",
           round_us.size());
  r.metric("serve.decisions_per_session", decisions / static_cast<double>(tdone.size()),
           "count", "lower", tdone.size());
  r.metric("serve.shed", static_cast<double>(tc.shed), "count", "lower", 1);
  r.metric("serve.quarantined", static_cast<double>(tc.quarantined), "count", "lower", 1);
  r.metric("serve.retries", static_cast<double>(tc.retries), "count", "lower", 1);
  r.metric("serve.fallbacks", static_cast<double>(tc.fallbacks), "count", "lower", 1);
  r.metric("proc.cores_busy", cores, "ratio", "higher", base.waves,
           "(user+sys CPU) / wall, untraced closed loop");
  r.metric("loadgen.little_ms_300", lo.little_ms, "ms", "lower", lo.arrivals,
           "open loop at 300 sessions/s: Little's-law time in system");
  r.metric("loadgen.little_ms_900", hi.little_ms, "ms", "lower", hi.arrivals,
           "open loop at 900 sessions/s: Little's-law time in system");
  r.metric("loadgen.late_us_mean", mean(late), "us", "lower", late.size(),
           "arrival generator lateness, both rates");
  r.metric("loadgen.late_us_max", late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
           "us", "lower", late.size());
  r.metric("trace.overhead_ratio",
           (traced.wall_s / static_cast<double>(traced.waves)) /
               (base.wall_s / static_cast<double>(base.waves)),
           "ratio", "lower", traced.waves, "traced/untraced wall per wave");
  r.prov("spans_stored", static_cast<double>(tracer.stored()));
  if (!args.trace_out.empty()) {
    r.check("trace.file_written", tracer.write_chrome(args.trace_out), args.trace_out);
  }
  return r;
}

}  // namespace perfbench
