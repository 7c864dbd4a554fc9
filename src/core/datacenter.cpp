#include "core/datacenter.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faults/injector.h"
#include "obs/counters.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/admission.h"

namespace dcs::core {
namespace {

/// Time-to-trip of `breaker` at `load` in seconds, capped at an hour so the
/// recorded margin channels stay finite (infinity has no JSON literal for
/// trace export); an hour of margin is indistinguishable from "safe" on
/// every figure.
double capped_margin(const power::CircuitBreaker& breaker, Power load) {
  constexpr double kCapSec = 3600.0;
  const Duration margin = breaker.time_to_trip_at(load);
  return margin.is_infinite() ? kCapSec : std::min(margin.sec(), kCapSec);
}

/// Adapts the per-tick run body to the simulation engine's Component
/// interface, so experiment runs share the engine's clock/event machinery.
/// The optional `hint` reports the next change point of the driver's inputs
/// (demand/supply samples, fault edges) so the engine's span skipping can
/// replay quiescent spans in its tight loop; without one the driver
/// declines skipping (the conservative Component default).
class RunDriver final : public sim::Component {
 public:
  explicit RunDriver(std::function<void(Duration, Duration)> body,
                     std::function<Duration(Duration)> hint = nullptr)
      : body_(std::move(body)), hint_(std::move(hint)) {}
  void tick(Duration now, Duration dt) override { body_(now, dt); }
  [[nodiscard]] Duration next_event_hint(Duration now) const override {
    return hint_ ? hint_(now) : now;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "run-driver";
  }

 private:
  std::function<void(Duration, Duration)> body_;
  std::function<Duration(Duration)> hint_;
};

}  // namespace

struct DataCenter::Plant {
  power::PowerTopology topology;
  std::unique_ptr<thermal::TesTank> tes;  // null when has_tes is false
  thermal::CoolingPlant cooling;
  thermal::RoomModel room;
  compute::PcmHeatSink pcm;  // representative chip package (uniform fleet)

  Plant(const DataCenterConfig& config)
      : topology(config.topology_params()),
        tes(config.has_tes
                ? std::make_unique<thermal::TesTank>("dc/tes", config.tes_params())
                : nullptr),
        cooling(config.cooling_params(tes.get())),
        room(config.room_params()),
        pcm(config.chip_pcm) {}
};

DataCenter::DataCenter(DataCenterConfig config)
    : config_(std::move(config)), fleet_(config_.fleet) {
  config_.validate();
}

std::unique_ptr<DataCenter::Plant> DataCenter::make_plant() const {
  return std::make_unique<Plant>(config_);
}

double DataCenter::budget_degree_seconds() const {
  auto plant = make_plant();
  compute::Fleet fleet(config_.fleet);
  SprintingController::Deps deps{&fleet, &plant->topology, &plant->cooling,
                                 plant->tes.get(), &plant->room, &plant->pcm};
  const SprintingController controller(config_, deps, nullptr, Mode::kNoSprint);
  return controller.total_budget_degree_seconds();
}

RunResult DataCenter::run(const TimeSeries& demand, Strategy* strategy,
                          const RunOptions& options) {
  return run({ZoneSpec{config_.fleet.pdu_count, &demand}}, strategy, options);
}

RunResult DataCenter::run(const std::vector<ZoneSpec>& zones,
                          Strategy* strategy, const RunOptions& options) {
  DCS_REQUIRE(!zones.empty(), "need at least one zone");
  std::vector<std::size_t> zone_pdus;
  for (const ZoneSpec& zone : zones) {
    DCS_REQUIRE(zone.demand != nullptr && !zone.demand->empty(),
                "zone needs a demand trace");
    DCS_REQUIRE(zone.demand->end_time() == zones.front().demand->end_time(),
                "all zones must share the trace horizon");
    zone_pdus.push_back(zone.pdu_count);
  }
  auto plant = make_plant();
  SprintingController::Deps deps{&fleet_, &plant->topology, &plant->cooling,
                                 plant->tes.get(), &plant->room, &plant->pcm};
  SprintingController controller(config_, deps, strategy, options.mode,
                                 zone_pdus);
  controller.set_supply_fraction(options.supply_fraction);
  controller.set_tracer(options.tracer);
  controller.set_decision_log(options.decisions);
  if (options.generator != nullptr) {
    options.generator->reset();
    controller.attach_generator(options.generator);
  }

  // Fault injection is strictly opt-in: without a non-empty schedule no
  // injector exists and the run takes the fault-free fast path.
  std::unique_ptr<faults::FaultInjector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    injector = std::make_unique<faults::FaultInjector>(
        *options.faults,
        faults::FaultInjector::Bindings{&plant->topology, &plant->cooling,
                                        plant->tes.get(), options.generator},
        options.fault_seed);
    injector->set_tracer(options.tracer);
    injector->set_decision_log(options.decisions);
    controller.set_fault_injector(injector.get());
  }
  faults::Watchdog watchdog(faults::Watchdog::Options{
      config_.battery_per_server.reserve_floor,
      /*check_breakers=*/options.mode != Mode::kUncontrolled,
      /*check_room=*/options.mode != Mode::kUncontrolled});
  watchdog.set_tracer(options.tracer);
  watchdog.set_decision_log(options.decisions);

  RunResult result;
  workload::AdmissionController sprint_admission;
  const Duration dt = config_.control_period;
  const Duration end = zones.front().demand->end_time();
  const std::size_t zone_count = zones.size();
  // Zoned runs only: each zone's achieved and no-sprint integrals.
  const bool zoned = zone_count > 1;
  std::vector<double> zone_achieved(zoned ? zone_count : 0, 0.0);
  std::vector<double> zone_baseline(zoned ? zone_count : 0, 0.0);

  double achieved_integral = 0.0;
  double baseline_integral = 0.0;
  double burst_degree_integral = 0.0;
  double burst_seconds = 0.0;
  SprintPhase prev_phase = SprintPhase::kNormal;
  DegradationLevel prev_degradation = DegradationLevel::kNominal;
  sim::Engine engine(dt);
  engine.set_tracer(options.tracer);
  engine.set_span_skip(options.span_skip);

  // Recorder channels in RunResult::recorder's order, bound on the first
  // recorded tick so a zero-tick run leaves the recorder empty.
  std::vector<sim::Recorder::Handle> handles;
  std::vector<double> values;

  // Cursor-based trace reads: the run visits times monotonically, so every
  // sample lookup is O(1) amortized instead of a binary search per tick.
  std::vector<TimeSeries::Cursor> demand_cursors(zone_count);
  TimeSeries::Cursor supply_cursor;
  std::vector<double> demands(zone_count);

  RunDriver driver([&](Duration now, Duration tick_dt) {
    // One time stamp per control period: everything that emits decisions
    // this tick (injector, controller, watchdog, and the serving
    // components ticking after the driver) shares it.
    if (options.decisions != nullptr) options.decisions->set_now(now);
    // Facility demand and no-sprint baseline are capacity-weighted means
    // over the zones (a one-zone run's weight is exactly 1); bursts are
    // timed on the largest zone demand.
    double d = 0.0;
    double baseline = 0.0;
    double peak = 0.0;
    for (std::size_t z = 0; z < zone_count; ++z) {
      const double weight = controller.zones()[z].weight;
      demands[z] = zones[z].demand->at(now, demand_cursors[z]);
      d += weight * demands[z];
      baseline += weight * std::min(demands[z], 1.0);
      peak = std::max(peak, demands[z]);
    }
    if (injector != nullptr) injector->apply(now);
    const StepResult step = controller.step(now, demands, tick_dt);
    watchdog.check(now, plant->topology, plant->room, plant->tes.get());

    if (options.metrics != nullptr) {
      obs::MetricsRegistry& m = *options.metrics;
      m.counter("ticks_total").inc();
      m.histogram("sprint_degree", {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0})
          .observe(step.degree);
      m.gauge("ups_soc").set(plant->topology.pdu(0).ups().soc());
      m.gauge("ups_soc_min").set_min(plant->topology.pdu(0).ups().soc());
      if (plant->tes != nullptr) {
        m.gauge("tes_soc").set(plant->tes->state_of_charge());
        m.gauge("tes_soc_min").set_min(plant->tes->state_of_charge());
      }
      const Duration margin =
          plant->topology.dc_breaker().time_to_trip_at(step.dc_load);
      if (!margin.is_infinite()) {
        m.gauge("cb_trip_margin_s").set(margin.sec());
        m.gauge("cb_trip_margin_s_min").set_min(margin.sec());
      }
      m.gauge("faults_active").set(static_cast<double>(step.faults_active));
      m.gauge("room_rise_c_max").set_max(plant->room.rise().c());
      if (step.phase != prev_phase) {
        m.counter("phase_transitions_total").inc();
        prev_phase = step.phase;
      }
      if (step.degradation != prev_degradation) {
        m.counter("degradation_steps_total").inc();
        prev_degradation = step.degradation;
      }
    }

    achieved_integral += step.achieved * dt.sec();
    baseline_integral += baseline * dt.sec();
    if (peak > 1.0) {
      burst_degree_integral += step.degree * dt.sec();
      burst_seconds += dt.sec();
    }
    sprint_admission.admit(d, step.achieved, dt);
    if (zoned) {
      for (std::size_t z = 0; z < zone_count; ++z) {
        // A tripped facility is dark: no zone serves anything.
        const double achieved =
            step.tripped ? 0.0 : controller.zones()[z].op.achieved;
        zone_achieved[z] += achieved * dt.sec();
        zone_baseline[z] += std::min(demands[z], 1.0) * dt.sec();
      }
    }

    result.min_ups_soc =
        std::min(result.min_ups_soc, plant->topology.pdu(0).ups().soc());
    if (plant->tes != nullptr) {
      result.min_tes_soc =
          std::min(result.min_tes_soc, plant->tes->state_of_charge());
    }

    if (options.record) {
      const power::PowerTopology& topo = plant->topology;
      values = {d, step.achieved, baseline, step.degree, step.upper_bound,
                static_cast<double>(step.active_cores),
                static_cast<double>(step.phase), step.server_power.mw(),
                step.cooling_power.mw(), step.ups_power.mw(),
                step.dc_load.mw(), step.room.c(), topo.pdu(0).ups().soc(),
                plant->tes != nullptr ? plant->tes->state_of_charge() : 0.0,
                topo.dc_breaker().thermal_state(),
                topo.pdu(0).breaker().thermal_state(),
                capped_margin(topo.dc_breaker(), step.dc_load),
                step.supply_fraction, static_cast<double>(step.degradation)};
      if (injector != nullptr) {
        values.insert(values.end(), {static_cast<double>(step.faults_active),
                                     step.measured_demand});
      }
      // Per-zone breakdown: the zone's first PDU stands for all of its PDUs.
      for (std::size_t z = 0; zoned && z < zone_count; ++z) {
        const SprintingController::Zone& zone = controller.zones()[z];
        const power::Pdu& rep = topo.pdu(zone.first_pdu);
        const Power grid = zone.op.per_pdu - zone.ups_per_pdu;
        values.insert(values.end(),
                      {demands[z], zone.op.degree,
                       (grid * static_cast<double>(zone.pdu_count)).mw(),
                       rep.ups().soc(), capped_margin(rep.breaker(), grid)});
      }
      if (handles.empty()) {
        std::vector<std::string> names = {
            "demand", "achieved", "achieved_nosprint", "degree", "bound",
            "cores", "phase", "server_mw", "cooling_mw", "ups_mw",
            "dc_load_mw", "room_c", "ups_soc", "tes_soc", "dc_cb_heat",
            "pdu_cb_heat", "cb_trip_margin_s", "supply", "degradation"};
        if (injector != nullptr) {
          names.insert(names.end(), {"faults_active", "measured_demand"});
        }
        for (const std::string& name : obs::with_zonal_channels(
                 std::move(names), zoned ? zone_count : 0)) {
          handles.push_back(result.recorder.handle(name));
        }
      }
      for (std::size_t i = 0; i < values.size(); ++i) {
        result.recorder.record(handles[i], now, values[i]);
      }
    }

    if (options.on_step) options.on_step(now, tick_dt, step);
  },
  // The driver's only time-varying inputs are the demand trace, the supply
  // trace and the fault schedule; their next change point bounds the span
  // the engine may replay in its leap loop. The leap replays every tick
  // verbatim, so the hint affects scheduling only — never results.
  [&](Duration now) {
    Duration hint = Duration::infinity();
    for (std::size_t z = 0; z < zone_count; ++z) {
      hint = std::min(hint,
                      zones[z].demand->next_time_after(now, demand_cursors[z]));
    }
    if (options.supply_fraction != nullptr) {
      hint = std::min(hint,
                      options.supply_fraction->next_time_after(now, supply_cursor));
    }
    if (injector != nullptr) {
      hint = std::min(hint, injector->schedule().next_edge_after(now));
    }
    return hint;
  });
  engine.add(&driver);
  // Extra components (e.g. the request-level serving layer) tick after the
  // driver, so they see the period's committed StepResult via on_step.
  for (sim::Component* component : options.components) {
    engine.add(component);
  }
  engine.run_until(end);
  result.engine_leaps = engine.leap_count();
  result.engine_leaped_ticks = engine.leaped_ticks();

  const double total_sec = (end - Duration::zero()).sec();
  result.avg_achieved = achieved_integral / total_sec;
  result.avg_achieved_nosprint = baseline_integral / total_sec;
  result.performance_factor =
      result.avg_achieved_nosprint > 0.0
          ? result.avg_achieved / result.avg_achieved_nosprint
          : 0.0;
  result.drop_fraction = sprint_admission.drop_fraction();
  result.avg_sprint_degree =
      burst_seconds > 0.0 ? burst_degree_integral / burst_seconds : 1.0;
  result.sprint_time = controller.sprint_time();
  for (std::size_t i = 0; i < result.phase_time.size(); ++i) {
    result.phase_time[i] = controller.phase_time(static_cast<SprintPhase>(i));
  }
  result.tripped = controller.shutdown();
  result.trip_time = controller.trip_time();
  result.ups_energy = controller.ups_energy();
  result.tes_saved_energy = controller.tes_saved_energy();
  result.pdu_overload_energy = controller.pdu_overload_energy();
  result.dc_overload_energy = controller.dc_overload_energy();
  result.peak_room_temperature = plant->room.peak_temperature();
  result.max_degradation = controller.max_degradation();
  for (std::size_t i = 0; i < result.degradation_time.size(); ++i) {
    result.degradation_time[i] =
        controller.degradation_time(static_cast<DegradationLevel>(i));
  }
  result.watchdog = watchdog.report();
  if (options.metrics != nullptr) {
    options.metrics->counter("watchdog_violations_total")
        .inc(static_cast<double>(watchdog.report().violations));
  }
  const power::Battery& bank = plant->topology.pdu(0).ups();
  result.ups_discharge_events = bank.discharge_events();
  result.ups_equivalent_cycles = bank.equivalent_full_cycles();
  result.ups_max_depth = 1.0 - result.min_ups_soc;
  for (std::size_t z = 0; z < zone_achieved.size(); ++z) {
    result.zone_performance_factor.push_back(
        zone_baseline[z] > 0.0 ? zone_achieved[z] / zone_baseline[z] : 1.0);
  }
  return result;
}


}  // namespace dcs::core
