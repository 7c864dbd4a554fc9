// Bit-identity contract of engine span skipping (sim/engine.h): a run with
// RunOptions::span_skip on must produce byte-identical results to the plain
// tick-by-tick loop — recorder channels, the structured trace (including
// every DecisionRecord), and all RunResult metrics. The leap replays the
// exact per-tick walk, so these tests compare *bits*, never tolerances.
//
// Scenarios mirror the experiment configs that exercise every substrate:
// the fig01 day trace (long quiescent spans — skipping engages), the
// fig09-style chaos run (random fault schedule — leaps must stop at every
// fault edge), the fig12-style supply excursion (grid disturbance + UPS
// bridging), and a zoned run under the Section V-B breaker rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/datacenter.h"
#include "core/strategy.h"
#include "faults/schedule.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "workload/ms_trace.h"

namespace dcs::core {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

struct RunOutput {
  RunResult result;
  std::string trace;  // Chrome-trace export incl. decision records
};

/// One run of `scenario` with skipping on or off; everything else identical.
template <typename Scenario>
RunOutput run_once(const Scenario& scenario, bool span_skip) {
  obs::Tracer tracer;
  obs::DecisionLog decisions(&tracer);
  RunOutput out;
  out.result = scenario(span_skip, tracer, decisions);
  std::ostringstream trace_json;
  tracer.write_chrome_trace(trace_json);
  out.trace = trace_json.str();
  return out;
}

void expect_bit_identical(const RunOutput& skip, const RunOutput& plain) {
  // Recorder: same channel set, and every sample byte-identical.
  const auto channels = plain.result.recorder.channels();
  ASSERT_EQ(skip.result.recorder.channels(), channels);
  for (const std::string& name : channels) {
    const TimeSeries& a = skip.result.recorder.series(name);
    const TimeSeries& b = plain.result.recorder.series(name);
    ASSERT_EQ(a.size(), b.size()) << "channel " << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(bits(a[i].time.sec()), bits(b[i].time.sec()))
          << "channel " << name << " sample " << i;
      EXPECT_EQ(bits(a[i].value), bits(b[i].value))
          << "channel " << name << " sample " << i;
    }
  }

  // Structured trace + decision stream: byte-identical JSONL.
  EXPECT_EQ(skip.trace, plain.trace);

  // RunResult metrics, compared at the bit level (engine_leaps and
  // engine_leaped_ticks are scheduling counters and differ by design).
  const RunResult& s = skip.result;
  const RunResult& p = plain.result;
  EXPECT_EQ(bits(s.avg_achieved), bits(p.avg_achieved));
  EXPECT_EQ(bits(s.avg_achieved_nosprint), bits(p.avg_achieved_nosprint));
  EXPECT_EQ(bits(s.performance_factor), bits(p.performance_factor));
  ASSERT_EQ(s.zone_performance_factor.size(), p.zone_performance_factor.size());
  for (std::size_t i = 0; i < s.zone_performance_factor.size(); ++i) {
    EXPECT_EQ(bits(s.zone_performance_factor[i]),
              bits(p.zone_performance_factor[i]));
  }
  EXPECT_EQ(bits(s.drop_fraction), bits(p.drop_fraction));
  EXPECT_EQ(bits(s.avg_sprint_degree), bits(p.avg_sprint_degree));
  EXPECT_EQ(bits(s.sprint_time.sec()), bits(p.sprint_time.sec()));
  for (std::size_t i = 0; i < s.phase_time.size(); ++i) {
    EXPECT_EQ(bits(s.phase_time[i].sec()), bits(p.phase_time[i].sec()));
  }
  EXPECT_EQ(s.tripped, p.tripped);
  EXPECT_EQ(bits(s.trip_time.sec()), bits(p.trip_time.sec()));
  EXPECT_EQ(bits(s.ups_energy.j()), bits(p.ups_energy.j()));
  EXPECT_EQ(bits(s.tes_saved_energy.j()), bits(p.tes_saved_energy.j()));
  EXPECT_EQ(bits(s.pdu_overload_energy.j()), bits(p.pdu_overload_energy.j()));
  EXPECT_EQ(bits(s.dc_overload_energy.j()), bits(p.dc_overload_energy.j()));
  EXPECT_EQ(bits(s.peak_room_temperature.c()), bits(p.peak_room_temperature.c()));
  EXPECT_EQ(bits(s.min_ups_soc), bits(p.min_ups_soc));
  EXPECT_EQ(bits(s.min_tes_soc), bits(p.min_tes_soc));
  EXPECT_EQ(s.ups_discharge_events, p.ups_discharge_events);
  EXPECT_EQ(bits(s.ups_equivalent_cycles), bits(p.ups_equivalent_cycles));
  EXPECT_EQ(bits(s.ups_max_depth), bits(p.ups_max_depth));
  EXPECT_EQ(s.max_degradation, p.max_degradation);
  for (std::size_t i = 0; i < s.degradation_time.size(); ++i) {
    EXPECT_EQ(bits(s.degradation_time[i].sec()),
              bits(p.degradation_time[i].sec()));
  }
  EXPECT_EQ(s.watchdog.checks, p.watchdog.checks);
  EXPECT_EQ(s.watchdog.violations, p.watchdog.violations);
}

DataCenterConfig small_config() {
  DataCenterConfig config;
  config.fleet.pdu_count = 4;  // results are invariant to the PDU count
  return config;
}

TEST(BitIdentity, Fig01DayTraceSliceSkipEqualsPlain) {
  // Two hours of the day trace (30 s samples, 1 s control period): long
  // flat spans between samples are exactly where skipping engages.
  const TimeSeries day =
      workload::generate_ms_day_trace().slice(Duration::zero(),
                                              Duration::hours(2));
  const TimeSeries trace = day.scaled(1.0 / 4.0);
  DataCenter dc(small_config());
  const auto scenario = [&](bool span_skip, obs::Tracer& tracer,
                            obs::DecisionLog& decisions) {
    GreedyStrategy greedy;
    RunOptions opts;
    opts.record = true;
    opts.span_skip = span_skip;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    return dc.run(trace, &greedy, opts);
  };
  const RunOutput skip = run_once(scenario, true);
  const RunOutput plain = run_once(scenario, false);
  // The scenario must actually exercise the leap path, or this test proves
  // nothing: 30 s flat spans at a 1 s step leap ~29 ticks at a time.
  EXPECT_GT(skip.result.engine_leaps, 0u);
  EXPECT_GT(skip.result.engine_leaped_ticks, 1000u);
  EXPECT_EQ(plain.result.engine_leaps, 0u);
  expect_bit_identical(skip, plain);
}

TEST(BitIdentity, Fig09ChaosFaultScheduleSkipEqualsPlain) {
  // Random-but-seeded infrastructure faults: leaps must stop at every fault
  // edge (the injector's push and its decision records fire on the exact
  // tick), and the degraded plant must evolve identically.
  const TimeSeries trace = workload::generate_ms_trace();
  const faults::FaultSchedule chaos =
      faults::FaultSchedule::random(0xC4A05u, trace.end_time(), 0.7);
  ASSERT_FALSE(chaos.empty());
  DataCenter dc(small_config());
  const auto scenario = [&](bool span_skip, obs::Tracer& tracer,
                            obs::DecisionLog& decisions) {
    GreedyStrategy greedy;
    RunOptions opts;
    opts.record = true;
    opts.span_skip = span_skip;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    opts.faults = &chaos;
    return dc.run(trace, &greedy, opts);
  };
  expect_bit_identical(run_once(scenario, true), run_once(scenario, false));
}

TEST(BitIdentity, Fig12SupplyExcursionSkipEqualsPlain) {
  // Utility-feed dip mid-run (fig12-style disturbance): the supply series'
  // sample boundaries bound every leap, and the sprint-ending grid logic
  // must fire on the exact tick either way.
  const TimeSeries trace = workload::generate_ms_trace();
  TimeSeries supply;
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(Duration::minutes(7), 0.85);
  supply.push_back(Duration::minutes(12), 1.0);
  supply.push_back(trace.end_time(), 1.0);
  DataCenter dc(small_config());
  const auto scenario = [&](bool span_skip, obs::Tracer& tracer,
                            obs::DecisionLog& decisions) {
    GreedyStrategy greedy;
    RunOptions opts;
    opts.record = true;
    opts.span_skip = span_skip;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    opts.supply_fraction = &supply;
    return dc.run(trace, &greedy, opts);
  };
  expect_bit_identical(run_once(scenario, true), run_once(scenario, false));
}

TEST(BitIdentity, FaultScheduleWithDayTraceLeapsBetweenEdges) {
  // Faults on the *day* trace: skipping engages between fault edges yet
  // every metric still matches the plain loop bit for bit.
  const TimeSeries day =
      workload::generate_ms_day_trace().slice(Duration::zero(),
                                              Duration::hours(1));
  const TimeSeries trace = day.scaled(1.0 / 4.0);
  faults::FaultSchedule schedule;
  schedule.add({.kind = faults::FaultKind::kChillerFailure,
                .start = Duration::minutes(10),
                .end = Duration::minutes(20),
                .magnitude = 0.4});
  schedule.add({.kind = faults::FaultKind::kUpsBankOutage,
                .start = Duration::minutes(30),
                .end = Duration::minutes(40),
                .magnitude = 0.5});
  DataCenter dc(small_config());
  const auto scenario = [&](bool span_skip, obs::Tracer& tracer,
                            obs::DecisionLog& decisions) {
    GreedyStrategy greedy;
    RunOptions opts;
    opts.record = true;
    opts.span_skip = span_skip;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    opts.faults = &schedule;
    return dc.run(trace, &greedy, opts);
  };
  const RunOutput skip = run_once(scenario, true);
  const RunOutput plain = run_once(scenario, false);
  EXPECT_GT(skip.result.engine_leaps, 0u);
  expect_bit_identical(skip, plain);
}

TEST(BitIdentity, ZonedRunSkipEqualsPlain) {
  // A zoned run (Section V-B breaker rule) on piecewise-constant zone
  // traces: each zone's step changes bound the leaps, the hot zone sprints
  // and sheds to its grant, and every channel and metric must match the
  // plain loop bit for bit.
  const auto steps = [](std::vector<std::pair<double, double>> points) {
    TimeSeries t;
    for (const auto& [minute, level] : points) {
      t.push_back(Duration::minutes(minute), level);
    }
    return t;
  };
  const TimeSeries hot =
      steps({{0, 0.6}, {5, 3.2}, {9, 4.0}, {15, 0.6}, {30, 0.6}});
  const TimeSeries warm = steps({{0, 0.5}, {8, 1.8}, {20, 0.5}, {30, 0.5}});
  DataCenter dc(small_config());
  const auto scenario = [&](bool span_skip, obs::Tracer& tracer,
                            obs::DecisionLog& decisions) {
    GreedyStrategy greedy;
    RunOptions opts;
    opts.record = true;
    opts.span_skip = span_skip;
    opts.tracer = &tracer;
    opts.decisions = &decisions;
    return dc.run(std::vector<ZoneSpec>{{1, &hot}, {3, &warm}}, &greedy, opts);
  };
  const RunOutput skip = run_once(scenario, true);
  const RunOutput plain = run_once(scenario, false);
  EXPECT_GT(skip.result.engine_leaped_ticks, 0u);
  EXPECT_EQ(plain.result.engine_leaps, 0u);
  EXPECT_TRUE(skip.result.watchdog.ok()) << skip.result.watchdog.first_message;
  ASSERT_TRUE(skip.result.recorder.has("zone1/cb_trip_margin_s"));
  expect_bit_identical(skip, plain);
}

}  // namespace
}  // namespace dcs::core
