// Ablation — zonal (non-uniform) sprinting: bursts concentrated on a few
// PDU groups, coordinated with the paper's Section V-B parent/child breaker
// rule. Shows the fairness split when zones compete and the advantage of a
// concentrated burst (idle neighbours' substation budget flows to it).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/datacenter.h"
#include "obs/counters.h"
#include "sim/recorder.h"
#include "util/table.h"
#include "workload/yahoo_trace.h"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::core;
  const Config args = bench::parse_args(argc, argv);
  DataCenterConfig config = bench::bench_config(args);
  bench::telemetry_setup(args, "ablation_zonal");
  const bool tracing = bench::tracing_enabled(args);

  // Per-scenario counter lanes: each zoned run records its per-zone
  // channels into its own recorder, exported as one named lane so Perfetto
  // shows every zone's breaker margin / degree / UPS state side by side.
  GreedyStrategy greedy;
  RunOptions options;
  options.record = tracing;
  obs::Tracer tracer(bench::telemetry_sink());
  std::uint32_t next_lane = 0;
  const auto export_zonal = [&](const sim::Recorder& recorder,
                                std::size_t zones, const std::string& label) {
    if (!tracing) return;
    tracer.set_lane(next_lane);
    tracer.name_lane(obs::Domain::kSim, next_lane, label);
    obs::export_counters(
        recorder, tracer,
        {.channels = obs::with_zonal_channels({"dc_load_mw", "cooling_mw"},
                                              zones)});
    ++next_lane;
  };

  std::cout << "=== Zonal sprinting (Section V-B CB coordination) ===\n";

  workload::YahooTraceParams hot_p;
  hot_p.burst_degree = 4.0;
  hot_p.burst_duration = Duration::minutes(10);
  const TimeSeries hot = workload::generate_yahoo_trace(hot_p);
  TimeSeries idle;
  idle.push_back(Duration::zero(), 0.4);
  idle.push_back(hot.end_time(), 0.4);

  std::cout << "\n--- one hot zone (4.0x/10min), neighbours idle ---\n";
  TablePrinter t1({"hot-zone PDUs / total", "hot perf", "idle perf",
                   "total perf", "sprint min"});
  for (std::size_t hot_pdus : {1u, 2u, 4u}) {
    config.fleet.pdu_count = 8;
    DataCenter dc(config);
    const RunResult r =
        dc.run({{hot_pdus, &hot}, {8 - hot_pdus, &idle}}, &greedy, options);
    export_zonal(r.recorder, 2, "hot=" + std::to_string(hot_pdus) + "/8");
    t1.add_row(std::to_string(hot_pdus) + "/8",
               {r.zone_performance_factor[0], r.zone_performance_factor[1],
                r.performance_factor, r.sprint_time.min()});
  }
  t1.print(std::cout);

  std::cout << "\n--- two zones competing (heavy 3.6x vs light 2.0x,"
               " 15 min, zero headroom) ---\n";
  config.fleet.pdu_count = 8;
  config.dc_headroom = 0.0;
  workload::YahooTraceParams heavy_p, light_p;
  heavy_p.burst_degree = 3.6;
  heavy_p.burst_duration = Duration::minutes(15);
  light_p.burst_degree = 2.0;
  light_p.burst_duration = Duration::minutes(15);
  light_p.seed = 0x777;
  const TimeSeries heavy = workload::generate_yahoo_trace(heavy_p);
  const TimeSeries light = workload::generate_yahoo_trace(light_p);
  DataCenter competing(config);
  const RunResult r =
      competing.run({{4, &heavy}, {4, &light}}, &greedy, options);
  export_zonal(r.recorder, 2, "competing heavy-vs-light");
  TablePrinter t2({"zone", "burst", "perf"});
  t2.add_row({"heavy", "3.6x / 15 min", format_double(r.zone_performance_factor[0], 3)});
  t2.add_row({"light", "2.0x / 15 min", format_double(r.zone_performance_factor[1], 3)});
  t2.print(std::cout);
  std::cout << "\nMax-min fairness: the light zone is served in full before"
               " the heavy zone's excess\nis granted; no breaker trips even"
               " at zero headroom.\n";
  bench::maybe_export_obs(args, "ablation_zonal", tracing ? &tracer : nullptr,
                          nullptr);
  return 0;
}
