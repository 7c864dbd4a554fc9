// Zoned runs (DataCenter::run over ZoneSpecs): the paper's Section V-B
// parent/child breaker rule for non-uniform bursts.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/datacenter.h"
#include "faults/schedule.h"
#include "obs/counters.h"
#include "power/generator.h"
#include "sim/recorder.h"
#include "workload/yahoo_trace.h"

namespace dcs::core {
namespace {

DataCenterConfig small_config(std::size_t pdus = 4) {
  DataCenterConfig c;
  c.fleet.pdu_count = pdus;
  return c;
}

TimeSeries flat(double level, Duration end = Duration::minutes(30)) {
  TimeSeries t;
  t.push_back(Duration::zero(), level);
  t.push_back(end, level);
  return t;
}

/// Runs `zones` on a fresh DataCenter built from `config`.
RunResult run_zones(const DataCenterConfig& config,
                    const std::vector<ZoneSpec>& zones,
                    const RunOptions& options = {}) {
  DataCenter dc(config);
  return dc.run(zones, options);
}

TEST(Zonal, ZonesMustTileTopology) {
  const TimeSeries d = flat(0.5);
  const TimeSeries shorter = flat(0.5, Duration::minutes(20));
  const TimeSeries empty;
  EXPECT_THROW((void)run_zones(small_config(4), {{3, &d}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_zones(small_config(4), {{3, &d}, {2, &d}}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)run_zones(small_config(4), {{2, &d}, {2, &d}}));
  EXPECT_THROW((void)run_zones(small_config(4), {}), std::invalid_argument);
  EXPECT_THROW((void)run_zones(small_config(4), {{4, nullptr}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_zones(small_config(4), {{0, &d}, {4, &d}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_zones(small_config(4), {{4, &empty}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_zones(small_config(4), {{2, &d}, {2, &shorter}}),
               std::invalid_argument);
}

TEST(Zonal, RejectsUnsupportedRunOptions) {
  // A zoned run has no faults, supply trace, generator, extra components,
  // step hook or metrics registry; setting any of them must throw rather
  // than be silently ignored.
  const TimeSeries d = flat(0.5);
  const std::vector<ZoneSpec> zones = {{2, &d}, {2, &d}};
  faults::FaultSchedule schedule;
  schedule.add({.kind = faults::FaultKind::kChillerFailure,
                .start = Duration::minutes(1),
                .end = Duration::minutes(2),
                .magnitude = 0.5});
  power::DieselGenerator generator("gen", {.rated = Power::megawatts(1.0)});
  obs::MetricsRegistry metrics;
  struct Idle final : sim::Component {
    void tick(Duration, Duration) override {}
    [[nodiscard]] std::string_view name() const noexcept override {
      return "idle";
    }
  } idle;
  const std::vector<std::function<void(RunOptions&)>> setters = {
      [](RunOptions& o) { o.mode = Mode::kUncontrolled; },
      [](RunOptions& o) { o.mode = Mode::kNoSprint; },
      [&](RunOptions& o) { o.faults = &schedule; },
      [&](RunOptions& o) { o.supply_fraction = &d; },
      [&](RunOptions& o) { o.generator = &generator; },
      [&](RunOptions& o) { o.components.push_back(&idle); },
      [](RunOptions& o) {
        o.on_step = [](Duration, Duration, const StepResult&) {};
      },
      [&](RunOptions& o) { o.metrics = &metrics; },
  };
  for (std::size_t i = 0; i < setters.size(); ++i) {
    RunOptions options;
    setters[i](options);
    EXPECT_THROW((void)run_zones(small_config(4), zones, options),
                 std::invalid_argument)
        << "option " << i;
  }
  // The supported ones run.
  RunOptions options;
  options.record = true;
  options.span_skip = false;
  EXPECT_TRUE(run_zones(small_config(4), zones, options).watchdog.ok());
}

TEST(Zonal, QuietZonesServeTheirDemandExactly) {
  const TimeSeries d = flat(0.6);
  const RunResult r = run_zones(small_config(4), {{2, &d}, {2, &d}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  EXPECT_NEAR(r.zone_performance_factor[0], 1.0, 1e-9);
  EXPECT_NEAR(r.zone_performance_factor[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.sprint_time.sec(), 0.0);
}

TEST(Zonal, HotZoneSprintsWhileOthersIdle) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.2;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult r = run_zones(small_config(4), {{1, &hot}, {3, &idle}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  EXPECT_GT(r.zone_performance_factor[0], 1.4);          // the hot zone sprinted
  EXPECT_NEAR(r.zone_performance_factor[1], 1.0, 1e-9);  // idle zone untouched
}

TEST(Zonal, NeverTripsUnderSkewedOverload) {
  // Every zone bursting at once, at different magnitudes, with zero
  // available headroom: the Section V-B rule must keep the substation safe.
  DataCenterConfig config = small_config(4);
  config.dc_headroom = 0.0;
  workload::YahooTraceParams p1, p2;
  p1.burst_degree = 3.6;
  p1.burst_duration = Duration::minutes(15);
  p2.burst_degree = 2.0;
  p2.burst_duration = Duration::minutes(15);
  p2.seed = 0x1234;
  const TimeSeries heavy = workload::generate_yahoo_trace(p1);
  const TimeSeries light = workload::generate_yahoo_trace(p2);
  const RunResult r = run_zones(config, {{2, &heavy}, {2, &light}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  EXPECT_GT(r.zone_performance_factor[0], 1.0);
  EXPECT_GT(r.zone_performance_factor[1], 1.0);
}

TEST(Zonal, SingleZoneMatchesUniformControllerClosely) {
  // One zone spanning the whole fleet is the uniform problem; the zonal
  // law (which lacks the exhaustion-termination heuristics) should land in
  // the same neighbourhood as the uniform Greedy run.
  workload::YahooTraceParams p;
  p.burst_degree = 2.6;
  p.burst_duration = Duration::minutes(5);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  const DataCenterConfig config = small_config(4);

  DataCenter dc(config);
  const RunResult zonal = dc.run(std::vector<ZoneSpec>{{4, &trace}});
  GreedyStrategy greedy;
  const RunResult uniform = dc.run(trace, &greedy);

  EXPECT_TRUE(zonal.watchdog.ok()) << zonal.watchdog.first_message;
  EXPECT_NEAR(zonal.performance_factor, uniform.performance_factor, 0.06);
}

TEST(Zonal, ConcentratedBurstBeatsUniformSpread) {
  // The same aggregate excess demand is easier to serve when concentrated
  // in one zone (its neighbours' unused substation budget flows to it) —
  // the scenario the paper motivates with bursts hosted "by only a few
  // servers".
  const DataCenterConfig config = small_config(4);

  // Concentrated: one zone at 4.0x for 10 min, three idle at 0.4.
  workload::YahooTraceParams hot_p;
  hot_p.burst_degree = 4.0;
  hot_p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(hot_p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  const RunResult conc = run_zones(config, {{1, &hot}, {3, &idle}});

  EXPECT_FALSE(conc.tripped);
  EXPECT_TRUE(conc.watchdog.ok()) << conc.watchdog.first_message;
  // The hot zone gets deep sprinting: degree well above what a uniform
  // 4x-everywhere burst could sustain for 10 minutes.
  EXPECT_GT(conc.zone_performance_factor[0], 1.8);
}

// Parameterized safety sweep: any split of the fleet into two zones, any
// pair of burst magnitudes, any headroom — never trips, never starves a
// zone below its own demand-or-capacity baseline.
using ZonalParams = std::tuple<std::size_t /*zone A pdus of 4*/,
                               double /*degree A*/, double /*degree B*/,
                               double /*headroom*/>;

class ZonalSafety : public ::testing::TestWithParam<ZonalParams> {};

TEST_P(ZonalSafety, NeverTripsNeverStarves) {
  const auto [a_pdus, deg_a, deg_b, headroom] = GetParam();
  DataCenterConfig config = small_config(4);
  config.dc_headroom = headroom;
  workload::YahooTraceParams pa, pb;
  pa.burst_degree = deg_a;
  pa.burst_duration = Duration::minutes(10);
  pb.burst_degree = deg_b;
  pb.burst_duration = Duration::minutes(10);
  pb.seed = 0xBEEF;
  const TimeSeries ta = workload::generate_yahoo_trace(pa);
  const TimeSeries tb = workload::generate_yahoo_trace(pb);
  const RunResult r = run_zones(config, {{a_pdus, &ta}, {4 - a_pdus, &tb}});
  EXPECT_FALSE(r.tripped);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  // Every zone performs at least as well as not sprinting at all.
  EXPECT_GE(r.zone_performance_factor[0], 1.0 - 1e-9);
  EXPECT_GE(r.zone_performance_factor[1], 1.0 - 1e-9);
  EXPECT_GE(r.performance_factor, 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZonalSafety,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Values(1.5, 3.0, 4.0),
                       ::testing::Values(1.2, 2.6),
                       ::testing::Values(0.0, 0.10)));

TEST(Zonal, StepExposesPerZoneState) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  RunOptions options;
  options.record = true;
  const RunResult r =
      run_zones(small_config(4), {{2, &hot}, {2, &idle}}, options);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  // The tick 6.5 minutes in, inside the burst.
  const std::size_t tick = 6 * 60 + 29;
  const auto sample = [&](const std::string& channel) {
    const TimeSeries& series = r.recorder.series(channel);
    EXPECT_GT(series.size(), tick) << channel;
    EXPECT_DOUBLE_EQ(series[tick].time.sec(), static_cast<double>(tick));
    return series[tick].value;
  };
  EXPECT_FALSE(r.recorder.has("zone2/degree"));
  EXPECT_GT(sample("zone0/degree"), 1.0);
  EXPECT_DOUBLE_EQ(sample("zone1/degree"), 1.0);
  EXPECT_GT(sample("zone0/grid_mw"), sample("zone1/grid_mw"));
  EXPECT_GT(sample("dc_load_mw"), 0.0);
}

TEST(Zonal, RecorderCapturesPerZoneChannels) {
  workload::YahooTraceParams p;
  p.burst_degree = 3.0;
  p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(p);
  const TimeSeries idle = flat(0.4, hot.end_time());
  RunOptions options;
  options.record = true;
  const RunResult r =
      run_zones(small_config(4), {{2, &hot}, {2, &idle}}, options);
  EXPECT_TRUE(r.watchdog.ok()) << r.watchdog.first_message;
  const sim::Recorder& recorder = r.recorder;

  // Every channel with_zonal_channels names for a 2-zone run must be
  // populated (one sample per control period), plus the facility totals.
  const std::vector<std::string> channels =
      obs::with_zonal_channels({"dc_load_mw", "cooling_mw"}, 2);
  const std::size_t ticks = static_cast<std::size_t>(
      hot.end_time().sec() / DataCenterConfig{}.control_period.sec());
  for (const std::string& channel : channels) {
    ASSERT_TRUE(recorder.has(channel)) << channel;
    EXPECT_EQ(recorder.series(channel).size(), ticks) << channel;
  }

  // The hot zone sprinted, the idle zone never did, and both margins stay
  // positive (no breaker ever gets within tripping distance).
  const TimeSeries& hot_degree = recorder.series("zone0/degree");
  const TimeSeries& idle_degree = recorder.series("zone1/degree");
  double hot_max = 0.0, idle_max = 0.0;
  for (std::size_t i = 0; i < hot_degree.size(); ++i) {
    hot_max = std::max(hot_max, hot_degree[i].value);
    idle_max = std::max(idle_max, idle_degree[i].value);
  }
  EXPECT_GT(hot_max, 1.0);
  EXPECT_DOUBLE_EQ(idle_max, 1.0);
  for (std::size_t z = 0; z < 2; ++z) {
    const TimeSeries& margin =
        recorder.series("zone" + std::to_string(z) + "/cb_trip_margin_s");
    for (std::size_t i = 0; i < margin.size(); ++i) {
      EXPECT_GT(margin[i].value, 0.0);
      EXPECT_LE(margin[i].value, 3600.0);
    }
  }

  // The recorded channels export as counter tracks without loss.
  obs::Tracer tracer;
  obs::export_counters(recorder, tracer, {.channels = channels});
  EXPECT_GE(tracer.events().size(), channels.size() * ticks);
}

TEST(Zonal, WithZonalChannelsNamesZonePrefixedTracks) {
  const std::vector<std::string> channels =
      obs::with_zonal_channels({"dc_load_mw"}, 3);
  EXPECT_EQ(channels.size(), 1 + 3 * obs::kZonalChannelSuffixes.size());
  EXPECT_EQ(channels.front(), "dc_load_mw");
  EXPECT_EQ(channels[1], "zone0/demand");
  EXPECT_EQ(channels.back(), "zone2/cb_trip_margin_s");
  // Zero zones is the identity.
  EXPECT_EQ(obs::with_zonal_channels({"x"}, 0),
            std::vector<std::string>{"x"});
}

}  // namespace
}  // namespace dcs::core
