#pragma once

// Shared plumbing of the perfbench binary: command-line arguments,
// order statistics, the per-run report (metrics, correctness checks,
// provenance) and the in-memory span recorder behind traced runs.
//
// Every workload is a function `Report run_<name>(const Args&)`. With
// --trace 0 it fills the end-to-end metrics; with --trace 1 it fills the
// per-layer metrics plus the tracing overhead, and writes its spans as a
// Chrome-trace file. perfbench/run.py turns the report into the final
// one-line result.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal sizes: every code path runs once, quickly (self-test).
  bool smoke = false;
  /// Chrome-trace output of a traced run ("" = do not write).
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// Parses argv; throws std::invalid_argument on anything malformed.
Args parse_args(int argc, char** argv);

/// splitmix64 finalizer: derives independent per-episode seeds from the
/// workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);

/// Latency samples in a fixed buffer touched up front, so the memory
/// the benchmark itself holds does not grow with how much work a run got
/// done (peak_rss_mb would otherwise track host speed). Past capacity it
/// keeps a uniform reservoir sample; count() still counts every value.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 1u << 20);
  void add(double v) {
    ++seen_;
    if (kept_ < buf_.size()) {
      buf_[kept_++] = static_cast<float>(v);
      return;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t j = rng_ % seen_;
    if (j < buf_.size()) buf_[j] = static_cast<float>(v);
  }
  std::size_t count() const noexcept { return seen_; }
  /// Sorts the kept values in place (no copy), so call it after the
  /// timed loop.
  double percentile(double p);
  double median() { return percentile(50.0); }

 private:
  std::vector<float> buf_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

/// A latency stream cut into blocks (a tenth or a fifth of the run); the
/// reported p50 and p99 are medians over the blocks' own percentiles,
/// so a burst of host noise inside one block moves them less than it
/// moves a whole-run percentile. The block buffer is fixed and touched
/// up front, like Samples.
class BlockedLatency {
 public:
  explicit BlockedLatency(std::size_t block_capacity = 1u << 20);
  void add(double v) {
    ++count_;
    if (n_ < buf_.size()) buf_[n_++] = static_cast<float>(v);
  }
  /// Closes the current block and records its percentiles.
  void cut();
  /// Closes a trailing partial block when it holds enough samples (or
  /// when no block was closed yet); drops it otherwise.
  void finish(std::size_t min_samples = 1000);
  double p50() const { return median(p50_); }
  double p99() const { return median(p99_); }
  std::size_t count() const noexcept { return count_; }
  std::size_t blocks() const noexcept { return p50_.size(); }

 private:
  std::vector<float> buf_;
  std::size_t n_ = 0;
  std::size_t count_ = 0;
  std::vector<double> p50_, p99_;
};

/// Times Scheduler::decide at instants with a ready task (the ones where
/// a policy runs); ready-empty instants are pure clock advances and are
/// delegated untimed.
class TimedDecide final : public readys::sim::Scheduler {
 public:
  TimedDecide(readys::sim::Scheduler& inner, BlockedLatency& samples)
      : inner_(inner), samples_(samples) {}
  void reset(const readys::sim::EngineView& view) override { inner_.reset(view); }
  std::vector<readys::sim::Assignment> decide(
      const readys::sim::EngineView& view) override {
    if (view.ready().empty()) return inner_.decide(view);
    const auto t0 = Clock::now();
    std::vector<readys::sim::Assignment> out = inner_.decide(view);
    samples_.add(us_between(t0, Clock::now()));
    return out;
  }
  std::string name() const override { return "timed:" + inner_.name(); }

 private:
  readys::sim::Scheduler& inner_;
  BlockedLatency& samples_;
};

/// One unit of timed work (an episode, a wave, a training repetition).
struct Unit {
  double wall_s = 0.0;
  double work = 0.0;  ///< tasks, sessions or episodes done in the unit
};

/// Rate of consecutive groups of units, each group at least
/// `block_s` of wall time (a trailing short group is folded into the
/// previous one). The median of these is the reported throughput: it
/// shrugs off a stall that lands in one block.
std::vector<double> block_rates(const std::vector<Unit>& units, double block_s);

/// What one episode of a replayed list did: its makespan and the wall
/// time and work (tasks assigned) of its timed part.
struct Outcome {
  double makespan = 0.0;
  double wall_s = 0.0;
  double work = 0.0;
};

/// A replay of an episode list.
struct Pass {
  std::vector<Unit> units;
  double wall_s = 0.0;
  double work = 0.0;
  std::size_t episodes = 0;
  std::size_t mismatches = 0;  ///< episodes whose makespan left the reference
  std::uint64_t failed = 0;    ///< episodes that threw
};

/// Replays an episode list of `n` entries until `seconds` of timed wall
/// have passed, with at least one full pass; stops early after 3 failed
/// episodes. `episode(k)` runs entry k and times its own timed part; an
/// exception counts as a failed episode. Makespans of the first pass fill
/// `reference` when it is empty; every other episode is compared against
/// its reference entry. `latency`, when given, is cut into blocks of a
/// tenth of the run. `between(timed_wall_s)`, when given, runs untimed
/// after every episode.
Pass replay(std::size_t n, double seconds, std::vector<double>& reference,
            const std::function<Outcome(std::size_t)>& episode,
            BlockedLatency* latency = nullptr,
            const std::function<void(double)>& between = {});

/// Set-up time: measured once before the timed loop, then again each
/// time the loop has run another tenth of its length, on a throwaway
/// copy of the same set-up. setup_s is the median, so it samples the
/// host across the whole run instead of its first fraction of a second
/// (the host's speed swings by 2x within a quarter second).
class SetupTimes {
 public:
  explicit SetupTimes(double run_seconds)
      : interval_s_(run_seconds / 10.0), next_s_(interval_s_) {}

  /// Times `setup()`; returns what it built, destroyed outside the clock.
  template <typename F>
  auto time(F&& setup) {
    const auto t0 = Clock::now();
    auto built = setup();
    times_.push_back(s_between(t0, Clock::now()));
    return built;
  }
  /// Times `setup()` once more when the timed loop has run another
  /// interval since the last measurement.
  template <typename F>
  void tick(double timed_wall_s, F&& setup) {
    if (timed_wall_s < next_s_) return;
    next_s_ = timed_wall_s + interval_s_;
    (void)time(setup);
  }
  double median() const { return perfbench::median(times_); }
  std::size_t count() const noexcept { return times_.size(); }

 private:
  double interval_s_;
  double next_s_;
  std::vector<double> times_;
};

/// Process resource usage.
double peak_rss_mb();
double cpu_seconds();  ///< user + system CPU time of this process

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower", "higher" or "" (a count to read)
  std::size_t samples = 0;
  std::string note;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  readys::obs::JsonObject provenance;
  /// Operations (episodes, sessions) tried and failed; failed / attempted
  /// is the run's fail_ratio.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit,
              std::string better, std::size_t samples,
              std::string note = "");
  void check(std::string name, bool ok, std::string detail = "");
  void prov(const std::string& key, const std::string& value);
  void prov(const std::string& key, double value);
  void prov(const std::string& key, const std::vector<double>& values);

  bool correct() const;
  std::string to_json() const;
};

/// Stamps the provenance every run records: git sha, hardware threads,
/// the threads this workload used, f32 ISA, build type, seed and run
/// length (HostSpeed::stamp adds the host-speed probe).
void stamp_provenance(Report& report, const Args& args, int threads);

/// Host-speed probe run through the timed loop, and the end-to-end
/// timings it puts at a reference host speed.
///
/// On a shared host the speed of the same code drifts at every time
/// scale: a plain loop swings by 2x within a quarter second, and runs
/// minutes apart differed by 10-25% on every timing at once, far past
/// what a median over one run can absorb. The probe runs four fixed
/// kernels that use no repository code (about 6 ms together): a
/// floating-point dependency chain, 64x64 float matrix products, a sort
/// of 16k random keys, and inserts and look-ups in a std::unordered_map
/// of 4k keys. It runs untimed between timed units once per quarter
/// second of timed work. The run's slowness is the geometric mean over
/// the kernels of each kernel's mean time over its reference time; an
/// end-to-end time is reported divided by it and a rate multiplied by
/// it, with the raw value kept in the provenance.
///
/// Why four kernels: the host slows in more than one way. In some
/// periods the workloads slowed 2-3x as much as the dependency chain
/// (log-log slope over runs, correlation 0.8-1.0); in others the chain
/// slowed by 75% while the workloads, sort and hash slowed by 10-20%.
/// No one kernel tracked every workload in every period; the mix did
/// best in both. The probe runs the same benchmark code on every
/// commit, so a change to the program moves the adjusted timings as
/// much as the raw ones.
class HostSpeed {
 public:
  static constexpr int kKernels = 4;

  /// Runs the probe once for every quarter second of timed work since
  /// the last call (the first call always probes).
  void tick(double timed_wall_s) {
    while (timed_wall_s >= next_s_) {
      probe();
      next_s_ += 0.25;
    }
  }
  /// Geometric mean of each kernel's mean time over its reference time:
  /// above 1 when the host ran slow.
  double slowness() const;
  /// Adds each kernel's mean time, the probe count and the slowness to
  /// the provenance.
  void stamp(Report& report) const;
  /// Emits an end-to-end timing at the reference speed: a time ("lower")
  /// divided by slowness(), a rate ("higher") multiplied by it. The raw
  /// value goes to the provenance as raw_<name>.
  void timing(Report& report, const std::string& name, double raw,
              const std::string& unit, const std::string& better,
              std::size_t samples, const std::string& note) const;

 private:
  void probe();
  double next_s_ = 0.0;
  std::vector<double> us_[kKernels];
};

/// Spans around calls into the program, kept in memory and written out
/// once as a Chrome-trace file. Spans past the cap are still timed by
/// the caller (the per-layer statistics use every call) but not stored.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Tracer(std::size_t cap = 100000);

  /// Opens a span; returns its id (kNone once the cap is reached).
  std::uint32_t begin(const char* name, std::uint64_t request,
                      std::uint32_t parent, Clock::time_point start);
  void end(std::uint32_t id, Clock::time_point stop);
  /// begin + end for a span whose both ends are already known.
  std::uint32_t span(const char* name, std::uint64_t request,
                     std::uint32_t parent, Clock::time_point start,
                     Clock::time_point stop);

  std::size_t stored() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Writes {"traceEvents": [...]} (complete events, microseconds);
  /// returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t request;
  };
  std::size_t cap_;
  std::size_t dropped_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

Report run_decide(const Args& args);
Report run_train(const Args& args);
Report run_serve(const Args& args);
Report run_cluster(const Args& args);

}  // namespace perfbench
