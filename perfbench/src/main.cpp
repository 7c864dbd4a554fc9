// perfbench: one workload of the dcsprint benchmark per invocation.
//
//   perfbench --workload <paper909|day909_traced|slo_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file.jsonl>]
//
// Prints "metric <name> <value> <unit>" lines, the sim_digest, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any correctness check failed, 2 on a usage error or a build
// without NDEBUG (whose timings would mean nothing).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--spans-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Same stamp idea as perf_engine's dcs_build_type: refuse to report
  // timings from a debug build.
  (void)argc;
  (void)argv;
  std::cerr << "perfbench: built without NDEBUG; rebuild as Release\n";
  return 2;
#else
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  try {
    const perfbench::Report report = perfbench::run_workload(options);
    perfbench::print_report(std::cout, report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
#endif
}
