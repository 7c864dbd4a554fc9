// Zoned runs (DataCenter::run over ZoneSpecs): the paper's Section V-B
// parent/child breaker rule for non-uniform bursts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
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

/// Runs `zones` under Greedy on a fresh DataCenter built from `config`.
RunResult run_zones(const DataCenterConfig& config,
                    const std::vector<ZoneSpec>& zones,
                    const RunOptions& options = {}) {
  DataCenter dc(config);
  GreedyStrategy greedy;
  return dc.run(zones, &greedy, options);
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
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

TEST(Zonal, RunOptionsWorkOnZonedRuns) {
  // Both zones sprint from minute 5; every option a uniform run takes works
  // on a zoned one, and the facility stays safe under each.
  workload::YahooTraceParams hot_p, warm_p;
  hot_p.burst_degree = 3.2;
  hot_p.burst_duration = Duration::minutes(10);
  warm_p.burst_degree = 2.0;
  warm_p.burst_duration = Duration::minutes(10);
  warm_p.seed = 0x1234;
  const TimeSeries hot = workload::generate_yahoo_trace(hot_p);
  const TimeSeries warm = workload::generate_yahoo_trace(warm_p);
  const std::vector<ZoneSpec> zones = {{2, &hot}, {2, &warm}};

  faults::FaultSchedule chiller;
  chiller.add({.kind = faults::FaultKind::kChillerFailure,
               .start = Duration::minutes(6),
               .end = Duration::minutes(12),
               .magnitude = 0.5});
  // The feed sags to 85 % from minute 7 to minute 9, mid-sprint.
  const Duration sag = Duration::minutes(7);
  TimeSeries supply;
  supply.push_back(Duration::zero(), 1.0);
  supply.push_back(sag, 0.85);
  supply.push_back(Duration::minutes(9), 1.0);
  supply.push_back(hot.end_time(), 1.0);
  power::DieselGenerator generator("gen", {.rated = Power::megawatts(0.05)});
  obs::MetricsRegistry metrics;
  struct Counting final : sim::Component {
    std::size_t ticks = 0;
    void tick(Duration, Duration) override { ++ticks; }
    [[nodiscard]] std::string_view name() const noexcept override {
      return "counting";
    }
  } counting;
  std::size_t hooked = 0;

  const std::vector<std::function<void(RunOptions&)>> setters = {
      [&](RunOptions& o) { o.faults = &chiller; },
      [&](RunOptions& o) {
        o.supply_fraction = &supply;
        o.generator = &generator;
      },
      [&](RunOptions& o) {
        o.components.push_back(&counting);
        o.on_step = [&](Duration, Duration, const StepResult&) { ++hooked; };
      },
      [&](RunOptions& o) { o.metrics = &metrics; },
  };
  const std::size_t ticks = static_cast<std::size_t>(hot.end_time().sec());
  for (std::size_t i = 0; i < setters.size(); ++i) {
    RunOptions options;
    options.record = true;
    setters[i](options);
    const RunResult r = run_zones(small_config(4), zones, options);
    EXPECT_FALSE(r.tripped) << "option " << i;
    EXPECT_TRUE(r.watchdog.ok()) << "option " << i << ": "
                                 << r.watchdog.first_message;
    ASSERT_EQ(r.zone_performance_factor.size(), 2u);
    EXPECT_GT(r.zone_performance_factor[0], 1.0) << "option " << i;
    if (options.faults != nullptr) {
      // The chiller failure reaches the controller's degradation ladder.
      EXPECT_GE(r.max_degradation, DegradationLevel::kDerated);
    }
    if (options.supply_fraction != nullptr) {
      // Both zones sprint up to the sag; the sag's own period ends both.
      const std::size_t at = static_cast<std::size_t>(sag.sec());
      for (const char* zone : {"zone0/degree", "zone1/degree"}) {
        const TimeSeries& degree = r.recorder.series(zone);
        EXPECT_GT(degree[at - 1].value, 1.0) << zone;
        EXPECT_DOUBLE_EQ(degree[at].value, 1.0) << zone;
      }
    }
  }
  EXPECT_EQ(counting.ticks, ticks);
  EXPECT_EQ(hooked, ticks);
  EXPECT_EQ(metrics.counter("ticks_total").value(), static_cast<double>(ticks));

  // The one rejection: more than one zone needs Mode::kControlled.
  for (const Mode mode : {Mode::kUncontrolled, Mode::kNoSprint,
                          Mode::kPowerCapped, Mode::kDvfsCapped}) {
    RunOptions options;
    options.mode = mode;
    EXPECT_THROW((void)run_zones(small_config(4), zones, options),
                 std::invalid_argument)
        << to_string(mode);
  }
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

TEST(Zonal, SingleZoneIsTheUniformRun) {
  // One zone spanning the whole fleet is the uniform run, bit for bit: its
  // capacity weight is exactly 1, and it records no per-zone channels.
  workload::YahooTraceParams p;
  p.burst_degree = 2.6;
  p.burst_duration = Duration::minutes(5);
  const TimeSeries trace = workload::generate_yahoo_trace(p);
  DataCenter dc(small_config(4));
  RunOptions options;
  options.record = true;
  GreedyStrategy greedy;
  const RunResult zoned = dc.run({{4, &trace}}, &greedy, options);
  const RunResult uniform = dc.run(trace, &greedy, options);

  EXPECT_TRUE(zoned.zone_performance_factor.empty());
  EXPECT_FALSE(zoned.recorder.has("zone0/degree"));
  const auto channels = uniform.recorder.channels();
  ASSERT_EQ(zoned.recorder.channels(), channels);
  for (const std::string& name : channels) {
    const TimeSeries& a = zoned.recorder.series(name);
    const TimeSeries& b = uniform.recorder.series(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(bits(a[i].time.sec()), bits(b[i].time.sec())) << name << i;
      ASSERT_EQ(bits(a[i].value), bits(b[i].value)) << name << " " << i;
    }
  }
  const std::vector<std::pair<double, double>> fields = {
      {zoned.avg_achieved, uniform.avg_achieved},
      {zoned.avg_achieved_nosprint, uniform.avg_achieved_nosprint},
      {zoned.performance_factor, uniform.performance_factor},
      {zoned.drop_fraction, uniform.drop_fraction},
      {zoned.avg_sprint_degree, uniform.avg_sprint_degree},
      {zoned.sprint_time.sec(), uniform.sprint_time.sec()},
      {zoned.trip_time.sec(), uniform.trip_time.sec()},
      {zoned.ups_energy.j(), uniform.ups_energy.j()},
      {zoned.tes_saved_energy.j(), uniform.tes_saved_energy.j()},
      {zoned.pdu_overload_energy.j(), uniform.pdu_overload_energy.j()},
      {zoned.dc_overload_energy.j(), uniform.dc_overload_energy.j()},
      {zoned.peak_room_temperature.c(), uniform.peak_room_temperature.c()},
      {zoned.min_ups_soc, uniform.min_ups_soc},
      {zoned.min_tes_soc, uniform.min_tes_soc},
      {zoned.ups_equivalent_cycles, uniform.ups_equivalent_cycles},
      {zoned.ups_max_depth, uniform.ups_max_depth},
  };
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(bits(fields[i].first), bits(fields[i].second)) << "field " << i;
  }
  for (std::size_t i = 0; i < zoned.phase_time.size(); ++i) {
    EXPECT_EQ(bits(zoned.phase_time[i].sec()), bits(uniform.phase_time[i].sec()));
    EXPECT_EQ(bits(zoned.degradation_time[i].sec()),
              bits(uniform.degradation_time[i].sec()));
  }
  EXPECT_EQ(zoned.tripped, uniform.tripped);
  EXPECT_EQ(zoned.max_degradation, uniform.max_degradation);
  EXPECT_EQ(zoned.ups_discharge_events, uniform.ups_discharge_events);
  EXPECT_EQ(zoned.watchdog.checks, uniform.watchdog.checks);
  EXPECT_EQ(zoned.watchdog.violations, uniform.watchdog.violations);
  EXPECT_EQ(zoned.engine_leaps, uniform.engine_leaps);
  EXPECT_EQ(zoned.engine_leaped_ticks, uniform.engine_leaped_ticks);
  EXPECT_GT(uniform.performance_factor, 1.0);
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
struct ZonalPoint {
  std::size_t a_pdus;  ///< zone A's PDUs of 4
  double deg_a;
  double deg_b;
  double headroom;
  bool has_tes;
};

/// Names a point "(a_pdus, deg_a, deg_b, headroom)", with ", no TES"
/// appended for the points without a TES.
void PrintTo(const ZonalPoint& p, std::ostream* os) {
  std::string name = ::testing::PrintToString(
      std::make_tuple(p.a_pdus, p.deg_a, p.deg_b, p.headroom));
  if (!p.has_tes) name.insert(name.size() - 1, ", no TES");
  *os << name;
}

std::vector<ZonalPoint> zonal_grid() {
  std::vector<ZonalPoint> grid;
  for (const std::size_t a_pdus : {1, 2, 3}) {
    for (const double deg_a : {1.5, 3.0, 4.0}) {
      for (const double deg_b : {1.2, 2.6}) {
        for (const double headroom : {0.0, 0.10}) {
          for (const bool has_tes : {true, false}) {
            grid.push_back({a_pdus, deg_a, deg_b, headroom, has_tes});
          }
        }
      }
    }
  }
  return grid;
}

class ZonalSafety : public ::testing::TestWithParam<ZonalPoint> {};

TEST_P(ZonalSafety, NeverTripsNeverStarves) {
  const auto [a_pdus, deg_a, deg_b, headroom, has_tes] = GetParam();
  DataCenterConfig config = small_config(4);
  config.dc_headroom = headroom;
  config.has_tes = has_tes;
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

INSTANTIATE_TEST_SUITE_P(Sweep, ZonalSafety, ::testing::ValuesIn(zonal_grid()));

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
