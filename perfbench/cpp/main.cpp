// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload decide|train|serve|cluster --seed N --seconds S
//             --trace 0|1 [--smoke] [--trace-out FILE] [--git-sha SHA]
//
// Prints a human-readable table, then one JSON report line (metrics
// with units, directions and sample counts, correctness checks and
// provenance). Exit code 0 when every check passed, 1 when one failed,
// 2 on a usage error or an exception. perfbench/run.py wraps it.

#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Report report;
  try {
    if (args.workload == "decide") {
      report = run_decide(args);
    } else if (args.workload == "train") {
      report = run_train(args);
    } else if (args.workload == "serve") {
      report = run_serve(args);
    } else if (args.workload == "cluster") {
      report = run_cluster(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  report.workload = args.workload;

  for (const Metric& m : report.metrics) {
    std::printf("%-34s %16.6g %-8s %-7s n=%-9zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str(), m.samples, m.note.c_str());
  }
  for (const Check& c : report.checks) {
    std::printf("check %-28s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
