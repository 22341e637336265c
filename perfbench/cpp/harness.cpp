#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "tensor/f32.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double parse_double(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !std::isfinite(v)) {
    throw std::invalid_argument(flag + ": not a number: \"" + text + "\"");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + ": not a whole number: \"" + text + "\"");
  }
  return std::stoull(text);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_double(flag, value);
      if (a.seconds <= 0.0 || a.seconds > 3600.0) {
        throw std::invalid_argument("--seconds: out of range (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Linear-interpolation percentile of the first n values of v, sorting
/// them in place.
template <typename T>
double sorted_percentile(std::vector<T>& v, std::size_t n, double p) {
  if (n == 0) return 0.0;
  const auto end = v.begin() + static_cast<std::ptrdiff_t>(n);
  if (!std::is_sorted(v.begin(), end)) std::sort(v.begin(), end);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, n - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  return sorted_percentile(xs, xs.size(), p);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

Samples::Samples(std::size_t capacity) : buf_(capacity, 0.0f) {}

double Samples::percentile(double p) { return sorted_percentile(buf_, kept_, p); }

BlockedLatency::BlockedLatency(std::size_t block_capacity)
    : buf_(block_capacity, 0.0f) {}

void BlockedLatency::cut() {
  if (n_ == 0) return;
  p50_.push_back(sorted_percentile(buf_, n_, 50.0));
  p99_.push_back(sorted_percentile(buf_, n_, 99.0));
  n_ = 0;
}

void BlockedLatency::finish(std::size_t min_samples) {
  if (n_ >= min_samples || p50_.empty()) {
    cut();
  } else {
    n_ = 0;
  }
}

std::vector<double> block_rates(const std::vector<Unit>& units, double block_s) {
  std::vector<Unit> blocks;
  Unit cur;
  for (const Unit& u : units) {
    cur.wall_s += u.wall_s;
    cur.work += u.work;
    if (cur.wall_s >= block_s) {
      blocks.push_back(cur);
      cur = Unit{};
    }
  }
  if (cur.wall_s > 0.0) {
    if (blocks.empty()) {
      blocks.push_back(cur);
    } else {
      blocks.back().wall_s += cur.wall_s;
      blocks.back().work += cur.work;
    }
  }
  std::vector<double> rates;
  rates.reserve(blocks.size());
  for (const Unit& b : blocks) rates.push_back(b.work / b.wall_s);
  return rates;
}

Pass replay(std::size_t n, double seconds, std::vector<double>& reference,
            const std::function<Outcome(std::size_t)>& episode,
            BlockedLatency* latency, const std::function<void(double)>& between) {
  Pass p;
  const bool fill = reference.empty();
  double block_s = 0.0;
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % n;
    double makespan = -1.0;
    try {
      const Outcome o = episode(k);
      makespan = o.makespan;
      p.units.push_back(Unit{o.wall_s, o.work});
      p.wall_s += o.wall_s;
      p.work += o.work;
      block_s += o.wall_s;
    } catch (const std::exception&) {
      ++p.failed;
    }
    ++p.episodes;
    if (latency != nullptr && block_s >= seconds / 10.0) {
      latency->cut();
      block_s = 0.0;
    }
    if (fill && i < n) {
      reference.push_back(makespan);
    } else if (makespan != reference[k]) {
      ++p.mismatches;
    }
    if (between) between(p.wall_s);
    if ((p.wall_s >= seconds && p.episodes >= n) || p.failed >= 3) break;
  }
  if (latency != nullptr) latency->finish();
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void Report::metric(std::string name, double value, std::string unit,
                    std::string better, std::size_t samples, std::string note) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit),
                           std::move(better), samples, std::move(note)});
}

void Report::check(std::string name, bool ok, std::string detail) {
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

void Report::prov(const std::string& key, const std::string& value) {
  provenance.field(key, value);
}

void Report::prov(const std::string& key, double value) { provenance.field(key, value); }

void Report::prov(const std::string& key, const std::vector<double>& values) {
  std::string s;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", s.empty() ? "" : " ", v);
    s += buf;
  }
  provenance.field(key, s);
}

bool Report::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Report::to_json() const {
  std::string ms, cs;
  for (const Metric& m : metrics) {
    ms += (ms.empty() ? "" : ", ") + readys::obs::JsonObject()
                                         .field("name", m.name)
                                         .field("value", m.value)
                                         .field("unit", m.unit)
                                         .field("better", m.better)
                                         .field("samples", static_cast<std::uint64_t>(m.samples))
                                         .field("note", m.note)
                                         .str();
  }
  for (const Check& c : checks) {
    cs += (cs.empty() ? "" : ", ") +
          readys::obs::JsonObject().field("name", c.name).field("ok", c.ok).field("detail", c.detail).str();
  }
  return readys::obs::JsonObject()
      .field("workload", workload)
      .field("correct", correct())
      .field("attempted", attempted)
      .field("failed", failed)
      .raw("metrics", "[" + ms + "]")
      .raw("checks", "[" + cs + "]")
      .raw("provenance", provenance.str())
      .str();
}

void stamp_provenance(Report& report, const Args& args, int threads) {
  namespace f32 = readys::tensor::f32;
  report.prov("git_sha", args.git_sha);
  report.prov("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.prov("threads", static_cast<double>(threads));
  report.prov("f32_isa", f32::isa_name(f32::active_isa()));
  report.prov("build_type", PERFBENCH_BUILD_TYPE);
  report.prov("seed", static_cast<double>(args.seed));
  report.prov("seconds", args.seconds);
  report.prov("mode", args.smoke ? "smoke" : "full");
}

namespace {

struct ProbeKernel {
  const char* name;
  /// About the kernel's mean time on the host the bounds were measured
  /// on; any fixed value would do.
  double reference_us;
};
constexpr ProbeKernel kProbeKernels[HostSpeed::kKernels] = {
    {"chain", 2950.0}, {"matmul", 1120.0}, {"sort", 1600.0}, {"hash", 560.0}};

/// A floating-point dependency chain fed by an xorshift generator.
double chain_kernel() {
  std::uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int i = 0; i < 500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x & 0xffff);
  }
  return acc;
}

/// 64x64 float matrix products, in L1.
float matmul_kernel() {
  static float a[64 * 64], b[64 * 64], c[64 * 64];
  for (int i = 0; i < 64 * 64; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.5f;
    b[i] = static_cast<float>(i % 5) * 0.25f;
  }
  for (int rep = 0; rep < 24; ++rep) {
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        float sum = 0.0f;
        for (int k = 0; k < 64; ++k) sum += a[i * 64 + k] * b[k * 64 + j];
        c[i * 64 + j] = sum + static_cast<float>(rep);
      }
    }
  }
  return c[65];
}

/// The keys the sort and hash kernels work on, drawn once.
const std::vector<std::uint32_t>& probe_keys() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(1u << 14);
    std::uint64_t x = 99;
    for (std::uint32_t& e : k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x);
    }
    return k;
  }();
  return keys;
}

}  // namespace

void HostSpeed::probe() {
  const std::vector<std::uint32_t>& keys = probe_keys();
  const auto t0 = Clock::now();
  const double chain = chain_kernel();
  const auto t1 = Clock::now();
  const float product = matmul_kernel();
  const auto t2 = Clock::now();
  std::vector<std::uint32_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto t3 = Clock::now();
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t i = 0; i < 4000; ++i) map[keys[i]] = i;
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < 8000; ++i) hits += map.count(keys[i]);
  const auto t4 = Clock::now();

  volatile double sink = chain + product + sorted[7] + static_cast<double>(hits);
  (void)sink;
  us_[0].push_back(us_between(t0, t1));
  us_[1].push_back(us_between(t1, t2));
  us_[2].push_back(us_between(t2, t3));
  us_[3].push_back(us_between(t3, t4));
}

double HostSpeed::slowness() const {
  double log_sum = 0.0;
  for (int k = 0; k < kKernels; ++k) {
    if (us_[k].empty()) return 1.0;
    log_sum += std::log(mean(us_[k]) / kProbeKernels[k].reference_us);
  }
  return std::exp(log_sum / kKernels);
}

void HostSpeed::stamp(Report& report) const {
  for (int k = 0; k < kKernels; ++k) {
    report.prov(std::string("host_probe_us.") + kProbeKernels[k].name, mean(us_[k]));
  }
  report.prov("host_probe_count", static_cast<double>(us_[0].size()));
  report.prov("host_slowness", slowness());
}

void HostSpeed::timing(Report& report, const std::string& name, double raw,
                       const std::string& unit, const std::string& better,
                       std::size_t samples, const std::string& note) const {
  const double adjusted = better == "higher" ? raw * slowness() : raw / slowness();
  report.metric(name, adjusted, unit, better, samples,
                note + "; at the reference host speed (raw in provenance)");
  report.prov("raw_" + name, raw);
}

Tracer::Tracer(std::size_t cap) : cap_(cap), origin_(Clock::now()) {
  spans_.reserve(std::min<std::size_t>(cap, 1u << 16));
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t request,
                            std::uint32_t parent, Clock::time_point start) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return kNone;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start - origin_).count();
  spans_.push_back(Span{name, ns, ns, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id, Clock::time_point stop) {
  if (id == kNone) return;
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          stop - origin_).count();
}

std::uint32_t Tracer::span(const char* name, std::uint64_t request,
                           std::uint32_t parent, Clock::time_point start,
                           Clock::time_point stop) {
  const std::uint32_t id = begin(name, request, parent, start);
  end(id, stop);
  return id;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"otherData\": {\"dropped_spans\": %zu}}\n", dropped_);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
