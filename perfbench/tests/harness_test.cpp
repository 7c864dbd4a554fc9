// Tests of the benchmark harness itself: its output format, its sim_digest
// and the fidelity of its topology replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <regex>
#include <sstream>
#include <string>

#include "harness.h"

namespace {

perfbench::Report run_short(const std::string& workload, std::uint64_t seed,
                            bool trace) {
  perfbench::Options options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.01;  // one timed batch after the warm-up
  options.trace = trace;
  return perfbench::run_workload(options);
}

/// Every "metric" line is exactly name, finite value, unit; the JSON line
/// comes last and names the same metrics.
void expect_parseable(const perfbench::Report& report) {
  std::ostringstream out;
  perfbench::print_report(out, report);
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::istringstream lines(out.str());
  std::string line;
  std::string last;
  std::size_t metric_lines = 0;
  while (std::getline(lines, line)) {
    last = line;
    if (line.rfind("metric ", 0) != 0) continue;
    ++metric_lines;
    std::istringstream fields(line.substr(7));
    std::string name, value, unit, extra;
    fields >> name >> value >> unit;
    EXPECT_FALSE(fields >> extra) << line;
    EXPECT_TRUE(std::regex_match(name, name_re)) << line;
    EXPECT_TRUE(std::regex_match(unit, unit_re)) << line;
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    EXPECT_EQ(used, value.size()) << line;
    EXPECT_TRUE(std::isfinite(v)) << line;
  }
  // failed_frac is printed besides the reported metrics.
  EXPECT_EQ(metric_lines, report.metrics.size() + 1);
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(last.front(), '{');
  EXPECT_NE(last.find("\"correct\": true"), std::string::npos) << last;
  for (const perfbench::Metric& m : report.metrics) {
    EXPECT_NE(last.find("\"" + m.name + "\": {\"value\": "), std::string::npos)
        << m.name;
  }
}

TEST(PerfbenchOutput, EveryMetricLineParsesOnEveryWorkload) {
  for (const std::string& workload : perfbench::workload_names()) {
    SCOPED_TRACE(workload);
    const perfbench::Report untraced = run_short(workload, 1, false);
    EXPECT_EQ(untraced.failed, 0u);
    EXPECT_EQ(untraced.metrics.size(), 5u);
    expect_parseable(untraced);
    const perfbench::Report traced = run_short(workload, 1, true);
    EXPECT_EQ(traced.failed, 0u);
    expect_parseable(traced);
  }
}

double metric(const perfbench::Report& report, const std::string& name) {
  for (const perfbench::Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0.0;
}

// paper909 does not record, so its traced run times the write path on a
// day909_traced operation; its own engine still never leaps.
TEST(PerfbenchLayers, Paper909TracedRunMeasuresTheWritePath) {
  const perfbench::Report traced = run_short("paper909", 1, true);
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(metric(traced, "engine.leap_ratio"), 0.0);
  EXPECT_GT(metric(traced, "recorder.samples"), 0.0);
  EXPECT_GT(metric(traced, "recorder.ns_per_sample"), 0.0);
  EXPECT_GT(metric(traced, "tracing.events"), 0.0);
  EXPECT_GT(metric(traced, "tracing.serialize_ms"), 0.0);
  EXPECT_GT(metric(traced, "tracing.overhead_frac"), 0.0);
}

TEST(PerfbenchDigest, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const std::string& workload : perfbench::workload_names()) {
    SCOPED_TRACE(workload);
    const std::string a = run_short(workload, 7, false).sim_digest;
    const std::string b = run_short(workload, 7, false).sim_digest;
    const std::string c = run_short(workload, 8, false).sim_digest;
    EXPECT_EQ(a.size(), 16u);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
  }
}

TEST(PerfbenchReplay, TopologyReplayReproducesRecordedDcLoadBitForBit) {
  for (const std::string& workload : perfbench::workload_names()) {
    SCOPED_TRACE(workload);
    const perfbench::TopologyReplayCheck check =
        perfbench::topology_replay_check(workload, 3);
    ASSERT_FALSE(check.recorded_mw.empty());
    ASSERT_EQ(check.replayed_mw.size(), check.recorded_mw.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < check.recorded_mw.size(); ++i) {
      if (std::memcmp(&check.replayed_mw[i], &check.recorded_mw[i],
                      sizeof(double)) != 0) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch at tick " << i << ": replayed "
                        << check.replayed_mw[i] << " recorded "
                        << check.recorded_mw[i];
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

}  // namespace
