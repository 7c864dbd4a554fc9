// The DataCenter facade: wires every substrate from a DataCenterConfig and
// runs a demand trace through the sprinting controller, producing the
// metrics the paper's figures report. A zoned run (non-uniform bursts over
// contiguous PDU groups) goes through the same plant, engine driver,
// watchdog and recorder, under the paper's Section V-B parent/child
// breaker rule instead of the uniform controller.
//
// Each run() builds fresh subsystem state (breakers cold, batteries and TES
// full, room at setpoint), so a DataCenter is a reusable experiment factory.
//
// Scale note: the fleet is homogeneous and the workload uniform, so every
// result is invariant to `fleet.pdu_count` (all per-PDU state evolves
// identically and every rating scales linearly). Experiments may lower the
// PDU count for speed without changing any normalized output; the default
// stays at the paper's 909.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include <cstdint>

#include "compute/fleet.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/strategy.h"
#include "faults/schedule.h"
#include "faults/watchdog.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/component.h"
#include "sim/recorder.h"
#include "util/time_series.h"
#include "util/units.h"

namespace dcs::core {

/// One zone of a zoned run: a contiguous group of PDUs (zones are laid out
/// in order from PDU 0) with its own demand stream, normalized to the
/// zone's sprint-free capacity.
struct ZoneSpec {
  std::size_t pdu_count = 0;
  const TimeSeries* demand = nullptr;  ///< must outlive the run
};

struct RunOptions {
  Mode mode = Mode::kControlled;
  /// Record full per-tick channels into RunResult::recorder.
  bool record = false;
  /// Optional utility-feed health over time (fraction of the DC rating in
  /// [0, 1]); must outlive the run. See
  /// SprintingController::set_supply_fraction.
  const TimeSeries* supply_fraction = nullptr;
  /// Optional backup generator used during supply disturbances; it is reset
  /// to a stopped, fault-free state at the start of every run.
  power::DieselGenerator* generator = nullptr;
  /// Optional fault schedule; must outlive the run. Null or empty keeps the
  /// fault-free fast path (bit-identical metrics to a build without faults).
  const faults::FaultSchedule* faults = nullptr;
  /// Seed for the injector's sensor-noise stream.
  std::uint64_t fault_seed = 0x5eedu;
  /// Engine span skipping (sim/engine.h). On by default; results are
  /// bit-identical either way — the bit-identity tests run both and
  /// byte-compare every channel. Off forces the plain per-tick loop.
  bool span_skip = true;
  /// Optional structured-trace sink wired through the engine, controller,
  /// injector and watchdog; must outlive the run. All events carry sim
  /// time, so the stream is bit-identical regardless of who else runs in
  /// parallel. Null keeps the untraced fast path.
  obs::Tracer* tracer = nullptr;
  /// Optional decision-provenance log (obs/decision.h), usually built over
  /// the same tracer. The run driver stamps its sim time each control
  /// period and wires it through the controller, the fault injector and
  /// the watchdog, so every rule firing lands in the trace as a causal
  /// DecisionRecord. Must outlive the run.
  obs::DecisionLog* decisions = nullptr;
  /// Optional metrics registry updated every tick (sprint_degree histogram,
  /// ups_soc / tes_soc / cb_trip_margin_s gauges, degradation and phase
  /// transition counters, ...); must outlive the run. Registries are not
  /// thread-safe — give each concurrent run its own.
  obs::MetricsRegistry* metrics = nullptr;
  /// Extra components registered with the run's engine *after* the control
  /// driver, so each ticks with the period's committed StepResult already
  /// published through on_step (e.g. a serving::ServingLayer whose service
  /// rates follow the active core set). Must outlive the run.
  std::vector<sim::Component*> components;
  /// Invoked at the end of every control period with the committed step —
  /// the hook that feeds the realized capacity degree (and anything else in
  /// StepResult) to the extra components without core depending on them.
  std::function<void(Duration now, Duration dt, const StepResult& step)>
      on_step;
};

struct RunResult {
  /// Time-weighted mean achieved (normalized) throughput.
  double avg_achieved = 0.0;
  /// Same metric for the analytic no-sprint baseline min(demand, 1).
  double avg_achieved_nosprint = 0.0;
  /// avg_achieved / avg_achieved_nosprint — the paper's "average
  /// performance normalized to the performance without sprinting". For a
  /// zoned run, the capacity-weighted total over zones.
  double performance_factor = 0.0;
  /// Zoned runs only: each zone's time-weighted mean achieved throughput
  /// over its no-sprint baseline (1 for a zone with no demand). Empty for a
  /// uniform run.
  std::vector<double> zone_performance_factor;
  /// Fraction of offered demand dropped.
  double drop_fraction = 0.0;
  /// Time-average realized sprinting degree over the burst (demand > 1)
  /// time — the Oracle run's value is the Heuristic's "real best average
  /// sprinting degree". 1 when the trace has no burst.
  double avg_sprint_degree = 1.0;
  /// Time spent sprinting. For a zoned run, the unweighted mean over zones
  /// of each zone's sprinting time.
  Duration sprint_time = Duration::zero();
  /// Time spent in each SprintPhase (normal, cb-overload, ups-assist,
  /// tes-cooling, shutdown) — the paper's Fig. 4 T1..T4 structure.
  std::array<Duration, 5> phase_time{};
  bool tripped = false;
  Duration trip_time = Duration::infinity();
  Energy ups_energy;
  Energy tes_saved_energy;
  Energy pdu_overload_energy;
  Energy dc_overload_energy;
  Temperature peak_room_temperature;
  double min_ups_soc = 1.0;
  double min_tes_soc = 1.0;
  /// Battery wear counters of a representative per-PDU bank (uniform fleet):
  /// discharge events, equivalent full cycles, and the deepest
  /// depth-of-discharge reached — inputs to power::BatteryLifetimeModel.
  std::size_t ups_discharge_events = 0;
  double ups_equivalent_cycles = 0.0;
  double ups_max_depth = 0.0;
  /// Highest degradation-ladder level the controller reached, and the time
  /// spent at each level (indexed by DegradationLevel). Nominal/zero-filled
  /// for non-controlled modes and fault-free runs.
  DegradationLevel max_degradation = DegradationLevel::kNominal;
  std::array<Duration, 5> degradation_time{};
  /// Invariant-watchdog diagnostics: DESIGN.md Section 6 invariants checked
  /// every tick against the *true* plant state.
  faults::WatchdogReport watchdog;
  /// Engine span-skipping observability: leaps taken and ticks replayed
  /// inside leaps. Zero with RunOptions::span_skip off, or when the inputs
  /// change every tick. These are scheduling counters, not results — every
  /// other RunResult field is bit-identical regardless.
  std::size_t engine_leaps = 0;
  std::size_t engine_leaped_ticks = 0;
  /// Per-tick channels (only when RunOptions::record): demand, achieved,
  /// achieved_nosprint, degree, bound, cores, phase, server_mw, cooling_mw,
  /// ups_mw, dc_load_mw, room_c, ups_soc, tes_soc, dc_cb_heat, pdu_cb_heat,
  /// cb_trip_margin_s (time-to-trip at the tick's load, capped at 3600 s so
  /// the channel stays finite), supply, degradation; plus faults_active and
  /// measured_demand when a fault schedule is attached.
  sim::Recorder recorder;
};

class DataCenter {
 public:
  explicit DataCenter(DataCenterConfig config);

  /// Runs `demand` (normalized trace) under `strategy`. The strategy may be
  /// null for the baseline modes.
  [[nodiscard]] RunResult run(const TimeSeries& demand, Strategy* strategy,
                              const RunOptions& options = {});

  /// Runs one demand trace per zone under the Section V-B breaker rule: each
  /// control period the substation budget left after cooling is split
  /// across zones max-min fairly (core/cb_budget.h), a zone whose grant
  /// cannot feed its desired cores sheds cores, and UPS banks cover each
  /// zone's gap above its own breaker bound; the TES phase stays
  /// facility-wide. The zones must tile the topology exactly and their
  /// traces must share one end time. Fills performance_factor,
  /// zone_performance_factor, sprint_time, ups_energy, tripped, watchdog,
  /// the engine counters and (under `record`) the recorder with, per zone
  /// k, `zone<k>/demand`, `zone<k>/degree`, `zone<k>/grid_mw`,
  /// `zone<k>/ups_soc` and `zone<k>/cb_trip_margin_s` (the zone's first PDU
  /// breaker time-to-trip at its committed load, capped at 3600 s) plus
  /// `dc_load_mw` and `cooling_mw` — the names obs::with_zonal_channels
  /// lists. Supports only Mode::kControlled, `record`, `span_skip`,
  /// `tracer` and `decisions`; any other option set throws.
  [[nodiscard]] RunResult run(const std::vector<ZoneSpec>& zones,
                              const RunOptions& options = {});

  /// EB_tot in degree-seconds with fresh subsystems — the Heuristic
  /// strategy's budget input.
  [[nodiscard]] double budget_degree_seconds() const;

  [[nodiscard]] const DataCenterConfig& config() const noexcept { return config_; }

 private:
  struct Plant;  // fresh-per-run subsystem bundle
  [[nodiscard]] std::unique_ptr<Plant> make_plant() const;

  DataCenterConfig config_;
  compute::Fleet fleet_;
};

}  // namespace dcs::core
