#include "core/datacenter.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>

#include "core/cb_budget.h"
#include "faults/injector.h"
#include "obs/counters.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/admission.h"

namespace dcs::core {
namespace {

/// Cap for the recorded cb_trip_margin_s channel: an infinite time-to-trip
/// (load below the breaker threshold) records as one hour.
constexpr double kTripMarginCapSec = 3600.0;

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

/// Slack on the zonal law's grid-versus-bound comparisons.
const Power kPowerEps = Power::watts(1e-6);

/// One zone of a zoned run and the quantities ZonalLaw::step computes for
/// it each control period.
struct Zone {
  std::size_t pdu_count = 0;
  std::size_t first_pdu = 0;
  const TimeSeries* trace = nullptr;
  TimeSeries::Cursor cursor;
  double demand = 0.0;
  Power want_per_pdu;  ///< greedy per-PDU draw before the budget split
  Power ups_max;       ///< per-PDU discharge the zone's banks can give
  Power pdu_allow;     ///< per-PDU breaker bound
  double achieved = 0.0;
  double degree = 1.0;
  Power grid_power;  ///< zone total grid draw as committed
};

/// The Section V-B parent/child breaker rule for zoned runs ("a power
/// increase on any child CB demands a power decrease on some other child
/// CBs"): per-zone greedy want, max-min split of the substation budget left
/// after cooling (allocate_cb_budget), TES relief of that budget, shedding
/// each zone to its grant, and a commit through the per-PDU
/// PowerTopology::step (the per-PDU pools materialize on the first tick).
class ZonalLaw {
 public:
  ZonalLaw(const DataCenterConfig& config, const SprintingController::Deps& plant,
           const std::vector<ZoneSpec>& zones)
      : config_(config), plant_(plant) {
    DCS_REQUIRE(!zones.empty(), "need at least one zone");
    std::size_t first = 0;
    for (const ZoneSpec& spec : zones) {
      DCS_REQUIRE(spec.pdu_count > 0, "zone must own at least one PDU");
      DCS_REQUIRE(spec.demand != nullptr && !spec.demand->empty(),
                  "zone needs a demand trace");
      DCS_REQUIRE(spec.demand->end_time() == zones.front().demand->end_time(),
                  "all zones must share the trace horizon");
      Zone zone;
      zone.pdu_count = spec.pdu_count;
      zone.first_pdu = first;
      zone.trace = spec.demand;
      first += spec.pdu_count;
      zones_.push_back(zone);
    }
    DCS_REQUIRE(first == plant_.topology->pdu_count(),
                "zones must tile the topology exactly");
    if (plant_.tes != nullptr) {
      tes_activation_time_ = config_.tes_activation_time();
    }
    requests_.resize(zones_.size());
    server_power_.resize(first);
    ups_request_.resize(first);
  }

  [[nodiscard]] const std::vector<Zone>& zones() const noexcept { return zones_; }
  [[nodiscard]] Duration end_time() const { return zones_.front().trace->end_time(); }
  [[nodiscard]] Power dc_load() const noexcept { return dc_load_; }
  [[nodiscard]] Power cooling_power() const noexcept { return cooling_power_; }
  [[nodiscard]] Duration sprint_time() const noexcept { return sprint_time_; }
  [[nodiscard]] Energy ups_energy() const noexcept { return ups_energy_; }
  [[nodiscard]] bool tripped() const noexcept { return tripped_; }

  /// Earliest next sample time over all zone traces: the only inputs of a
  /// zoned run, hence its span-skip hint.
  [[nodiscard]] Duration next_change_after(Duration now) {
    Duration hint = Duration::infinity();
    for (Zone& zone : zones_) {
      hint = std::min(hint, zone.trace->next_time_after(now, zone.cursor));
    }
    return hint;
  }

  void step(Duration now, Duration dt) {
    const compute::Fleet& fleet = *plant_.fleet;
    power::PowerTopology& topology = *plant_.topology;
    thermal::CoolingPlant& cooling = *plant_.cooling;
    const double max_degree = fleet.server().chip().max_sprint_degree();

    // Facility-wide burst clock drives the TES activation rule.
    bool any_burst = false;
    for (Zone& zone : zones_) {
      zone.demand = zone.trace->at(now, zone.cursor);
      any_burst = any_burst || zone.demand > 1.0;
    }
    if (any_burst) first_burst_elapsed_ += dt;
    const bool tes_active = plant_.tes != nullptr && !plant_.tes->empty() &&
                            any_burst &&
                            first_burst_elapsed_ >= tes_activation_time_;

    // Desired operating point per zone (greedy within the zone).
    Power fleet_power = Power::zero();
    for (Zone& zone : zones_) {
      const power::Pdu& rep = topology.pdu(zone.first_pdu);
      zone.want_per_pdu = fleet.operate(zone.demand, max_degree).per_pdu;
      zone.ups_max =
          std::min(rep.ups().max_discharge(), rep.ups().available() / dt);
      zone.pdu_allow = rep.breaker().max_load_for(config_.cb_reserve);
      fleet_power += zone.want_per_pdu * static_cast<double>(zone.pdu_count);
    }

    // Substation budget after cooling, shared max-min fairly (Section V-B).
    const Power cooling_elec =
        cooling.electrical_projection(fleet_power, tes_active, Power::zero());
    const Power dc_allow =
        topology.dc_breaker().max_load_for(config_.cb_reserve);
    Power parent =
        dc_allow > cooling_elec ? dc_allow - cooling_elec : Power::zero();
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      const Zone& zone = zones_[z];
      const auto n = static_cast<double>(zone.pdu_count);
      const Power ups_use = ups_use_at(zone, zone.want_per_pdu);
      requests_[z].demand = (zone.want_per_pdu - ups_use) * n;
      requests_[z].child_allow = zone.pdu_allow * n;
    }
    // TES chiller relief raises the parent budget when the zones ask for
    // more than the substation may carry (phase 3's "reduce the chiller
    // power").
    Power total_ask = Power::zero();
    for (const CbBudgetRequest& r : requests_) {
      total_ask += std::min(r.demand, r.child_allow);
    }
    if (total_ask > parent && tes_active) {
      const Power chiller = cooling.chiller_electrical(
          std::min(fleet_power, cooling.thermal_capacity()));
      Power tes_rate_left = plant_.tes->stored() / dt;
      const Power excess = fleet_power > cooling.thermal_capacity()
                               ? fleet_power - cooling.thermal_capacity()
                               : Power::zero();
      tes_rate_left =
          tes_rate_left > excess ? tes_rate_left - excess : Power::zero();
      parent += std::min({total_ask - parent, chiller,
                          tes_rate_left * cooling.chiller_elec_per_heat()});
    }
    const std::vector<Power> grants = allocate_cb_budget(parent, requests_);

    // Shed each zone to its grant, then commit.
    Power committed_fleet = Power::zero();
    Power grid_total = Power::zero();
    for (std::size_t z = 0; z < zones_.size(); ++z) {
      Zone& zone = zones_[z];
      const auto n = static_cast<double>(zone.pdu_count);
      const std::size_t cores = shed_to_grant(zone, grants[z] / n);
      const auto op = fleet.operate_with_cores(zone.demand, cores);
      const Power ups_use = ups_use_at(zone, op.per_pdu);
      std::fill_n(server_power_.begin() + zone.first_pdu, zone.pdu_count,
                  op.per_pdu);
      std::fill_n(ups_request_.begin() + zone.first_pdu, zone.pdu_count,
                  ups_use);
      committed_fleet += op.per_pdu * n;
      zone.achieved = op.achieved;
      zone.degree = op.degree;
      zone.grid_power = (op.per_pdu - ups_use) * n;
      grid_total += zone.grid_power;
      if (op.degree > 1.0 + 1e-9) {
        sprint_time_ += dt / static_cast<double>(zones_.size());
      }
    }

    // Physical commit: cooling (with the relief it can actually deliver),
    // then the power topology, then the room.
    const Power dc_load =
        grid_total +
        cooling.electrical_projection(committed_fleet, tes_active, Power::zero());
    const Power relief_commit =
        dc_load > dc_allow && tes_active ? dc_load - dc_allow : Power::zero();
    const thermal::CoolingStep cstep =
        cooling.step(committed_fleet, tes_active, relief_commit, dt);
    const power::Flows flows =
        topology.step(server_power_, ups_request_, cstep.electrical, dt);
    plant_.room->step(committed_fleet, cstep.heat_absorbed, dt);

    ups_energy_ += flows.ups_total * dt;
    dc_load_ = flows.dc_load;
    cooling_power_ = cstep.electrical;
    tripped_ = tripped_ || flows.dc_tripped || flows.any_pdu_tripped;
    DCS_ENSURE(!tripped_, "zonal sprinting must never trip a breaker");
  }

 private:
  /// Per-PDU UPS discharge covering the draw above the zone's breaker bound.
  [[nodiscard]] static Power ups_use_at(const Zone& zone, Power per_pdu) {
    const Power over =
        per_pdu > zone.pdu_allow ? per_pdu - zone.pdu_allow : Power::zero();
    return std::min(over, zone.ups_max);
  }

  /// Most cores (down to the normal count) whose per-PDU grid draw, after
  /// the UPS covers the gap above the breaker bound, fits both that bound
  /// and the zone's per-PDU grant.
  [[nodiscard]] std::size_t shed_to_grant(const Zone& zone, Power grant) const {
    const compute::Fleet& fleet = *plant_.fleet;
    const compute::Chip& chip = fleet.server().chip();
    const std::size_t normal = chip.params().normal_cores;
    const std::size_t desired =
        fleet.operate(zone.demand, chip.max_sprint_degree()).active_cores;
    for (std::size_t cores = desired; cores > normal; --cores) {
      const auto op = fleet.operate_with_cores(zone.demand, cores);
      const Power grid = op.per_pdu - ups_use_at(zone, op.per_pdu);
      if (grid <= zone.pdu_allow + kPowerEps && grid <= grant + kPowerEps) {
        return cores;
      }
    }
    return normal;
  }

  const DataCenterConfig& config_;
  SprintingController::Deps plant_;
  std::vector<Zone> zones_;
  // Per-tick scratch, sized once per run.
  std::vector<CbBudgetRequest> requests_;
  std::vector<Power> server_power_;
  std::vector<Power> ups_request_;
  Duration first_burst_elapsed_ = Duration::zero();
  /// Cached config.tes_activation_time() (a run constant) — the accessor
  /// rebuilds the peak-power arithmetic per call, too heavy for every step.
  Duration tes_activation_time_ = Duration::zero();
  Duration sprint_time_ = Duration::zero();
  Energy ups_energy_ = Energy::zero();
  Power dc_load_;
  Power cooling_power_;
  bool tripped_ = false;
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
  DCS_REQUIRE(!demand.empty(), "demand trace is empty");
  auto plant = make_plant();
  SprintingController::Deps deps{&fleet_, &plant->topology, &plant->cooling,
                                 plant->tes.get(), &plant->room, &plant->pcm};
  SprintingController controller(config_, deps, strategy, options.mode);
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
  workload::AdmissionController baseline_admission;
  const Duration dt = config_.control_period;
  const Duration end = demand.end_time();

  double achieved_integral = 0.0;
  double baseline_integral = 0.0;
  double burst_degree_integral = 0.0;
  double burst_seconds = 0.0;
  SprintPhase prev_phase = SprintPhase::kNormal;
  DegradationLevel prev_degradation = DegradationLevel::kNominal;
  sim::Engine engine(dt);
  engine.set_tracer(options.tracer);
  engine.set_span_skip(options.span_skip);

  // Hot-path channel handles, bound lazily on the first recorded tick so a
  // zero-tick run leaves the recorder exactly as empty as it always was.
  struct RecHandles {
    bool ready = false;
    sim::Recorder::Handle demand, achieved, achieved_nosprint, degree, bound,
        cores, phase, server_mw, cooling_mw, ups_mw, dc_load_mw, room_c,
        ups_soc, tes_soc, dc_cb_heat, pdu_cb_heat, cb_trip_margin_s, supply,
        degradation, faults_active, measured_demand;
  } rh;

  // Cursor-based trace reads: the run visits times monotonically, so every
  // sample lookup is O(1) amortized instead of a binary search per tick.
  TimeSeries::Cursor demand_cursor;
  TimeSeries::Cursor supply_cursor;

  RunDriver driver([&](Duration now, Duration tick_dt) {
    // One time stamp per control period: everything that emits decisions
    // this tick (injector, controller, watchdog, and the serving
    // components ticking after the driver) shares it.
    if (options.decisions != nullptr) options.decisions->set_now(now);
    const double d = demand.at(now, demand_cursor);
    if (injector != nullptr) injector->apply(now);
    const StepResult step = controller.step(now, d, tick_dt);
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
    baseline_integral += std::min(d, 1.0) * dt.sec();
    if (d > 1.0) {
      burst_degree_integral += step.degree * dt.sec();
      burst_seconds += dt.sec();
    }
    sprint_admission.admit(d, step.achieved, dt);
    baseline_admission.admit(d, 1.0, dt);

    result.min_ups_soc =
        std::min(result.min_ups_soc, plant->topology.pdu(0).ups().soc());
    if (plant->tes != nullptr) {
      result.min_tes_soc =
          std::min(result.min_tes_soc, plant->tes->state_of_charge());
    }

    if (options.record) {
      auto& rec = result.recorder;
      if (!rh.ready) {
        rh.demand = rec.handle("demand");
        rh.achieved = rec.handle("achieved");
        rh.achieved_nosprint = rec.handle("achieved_nosprint");
        rh.degree = rec.handle("degree");
        rh.bound = rec.handle("bound");
        rh.cores = rec.handle("cores");
        rh.phase = rec.handle("phase");
        rh.server_mw = rec.handle("server_mw");
        rh.cooling_mw = rec.handle("cooling_mw");
        rh.ups_mw = rec.handle("ups_mw");
        rh.dc_load_mw = rec.handle("dc_load_mw");
        rh.room_c = rec.handle("room_c");
        rh.ups_soc = rec.handle("ups_soc");
        rh.tes_soc = rec.handle("tes_soc");
        rh.dc_cb_heat = rec.handle("dc_cb_heat");
        rh.pdu_cb_heat = rec.handle("pdu_cb_heat");
        rh.cb_trip_margin_s = rec.handle("cb_trip_margin_s");
        rh.supply = rec.handle("supply");
        rh.degradation = rec.handle("degradation");
        if (injector != nullptr) {
          rh.faults_active = rec.handle("faults_active");
          rh.measured_demand = rec.handle("measured_demand");
        }
        rh.ready = true;
      }
      rec.record(rh.demand, now, d);
      rec.record(rh.achieved, now, step.achieved);
      rec.record(rh.achieved_nosprint, now, std::min(d, 1.0));
      rec.record(rh.degree, now, step.degree);
      rec.record(rh.bound, now, step.upper_bound);
      rec.record(rh.cores, now, static_cast<double>(step.active_cores));
      rec.record(rh.phase, now, static_cast<double>(step.phase));
      rec.record(rh.server_mw, now, step.server_power.mw());
      rec.record(rh.cooling_mw, now, step.cooling_power.mw());
      rec.record(rh.ups_mw, now, step.ups_power.mw());
      rec.record(rh.dc_load_mw, now, step.dc_load.mw());
      rec.record(rh.room_c, now, step.room.c());
      rec.record(rh.ups_soc, now, plant->topology.pdu(0).ups().soc());
      rec.record(rh.tes_soc, now,
                 plant->tes != nullptr ? plant->tes->state_of_charge() : 0.0);
      rec.record(rh.dc_cb_heat, now,
                 plant->topology.dc_breaker().thermal_state());
      rec.record(rh.pdu_cb_heat, now,
                 plant->topology.pdu(0).breaker().thermal_state());
      // Time-to-trip margin at the current load, clamped so the channel
      // stays finite (infinity has no JSON literal for trace export); an
      // hour of margin is indistinguishable from "safe" on every figure.
      const Duration trip_margin =
          plant->topology.dc_breaker().time_to_trip_at(step.dc_load);
      rec.record(rh.cb_trip_margin_s, now,
                 trip_margin.is_infinite()
                     ? kTripMarginCapSec
                     : std::min(trip_margin.sec(), kTripMarginCapSec));
      rec.record(rh.supply, now, step.supply_fraction);
      rec.record(rh.degradation, now, static_cast<double>(step.degradation));
      if (injector != nullptr) {
        rec.record(rh.faults_active, now,
                   static_cast<double>(step.faults_active));
        rec.record(rh.measured_demand, now, step.measured_demand);
      }
    }

    if (options.on_step) options.on_step(now, tick_dt, step);
  },
  // The driver's only time-varying inputs are the demand trace, the supply
  // trace and the fault schedule; their next change point bounds the span
  // the engine may replay in its leap loop. The leap replays every tick
  // verbatim, so the hint affects scheduling only — never results.
  [&](Duration now) {
    Duration hint = demand.next_time_after(now, demand_cursor);
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
  return result;
}

RunResult DataCenter::run(const std::vector<ZoneSpec>& zones,
                          const RunOptions& options) {
  DCS_REQUIRE(options.mode == Mode::kControlled,
              "zoned runs support only Mode::kControlled");
  DCS_REQUIRE(options.faults == nullptr, "zoned runs take no fault schedule");
  DCS_REQUIRE(options.supply_fraction == nullptr,
              "zoned runs take no supply trace");
  DCS_REQUIRE(options.generator == nullptr, "zoned runs take no generator");
  DCS_REQUIRE(options.components.empty(), "zoned runs take no components");
  DCS_REQUIRE(!options.on_step, "zoned runs take no on_step hook");
  DCS_REQUIRE(options.metrics == nullptr, "zoned runs take no metrics registry");
  auto plant = make_plant();
  ZonalLaw law(config_,
               SprintingController::Deps{&fleet_, &plant->topology,
                                         &plant->cooling, plant->tes.get(),
                                         &plant->room, &plant->pcm},
               zones);
  faults::Watchdog watchdog(faults::Watchdog::Options{
      config_.battery_per_server.reserve_floor, /*check_breakers=*/true,
      /*check_room=*/true});
  watchdog.set_tracer(options.tracer);
  watchdog.set_decision_log(options.decisions);

  RunResult result;
  // Handles for obs::with_zonal_channels' names, bound once: the two
  // facility channels, then kZonalChannelSuffixes.size() per zone.
  constexpr std::size_t kFacility = 2;
  std::vector<sim::Recorder::Handle> handles;
  if (options.record) {
    for (const std::string& name : obs::with_zonal_channels(
             {"dc_load_mw", "cooling_mw"}, law.zones().size())) {
      handles.push_back(result.recorder.handle(name));
    }
  }
  std::vector<double> achieved(zones.size(), 0.0);
  std::vector<double> baseline(zones.size(), 0.0);

  RunDriver driver(
      [&](Duration now, Duration dt) {
        if (options.decisions != nullptr) options.decisions->set_now(now);
        law.step(now, dt);
        watchdog.check(now, plant->topology, plant->room, plant->tes.get());
        for (std::size_t z = 0; z < law.zones().size(); ++z) {
          const Zone& zone = law.zones()[z];
          achieved[z] += zone.achieved * dt.sec();
          baseline[z] += std::min(zone.demand, 1.0) * dt.sec();
        }
        if (!options.record) return;
        // Per-zone breakdown after the physical commit, so the breaker
        // margin reflects this tick's thermal state at this tick's load.
        sim::Recorder& rec = result.recorder;
        rec.record(handles[0], now, law.dc_load().mw());
        rec.record(handles[1], now, law.cooling_power().mw());
        for (std::size_t z = 0; z < law.zones().size(); ++z) {
          const Zone& zone = law.zones()[z];
          const power::Pdu& rep = plant->topology.pdu(zone.first_pdu);
          const Duration margin = rep.breaker().time_to_trip_at(
              zone.grid_power / static_cast<double>(zone.pdu_count));
          const std::array<double, obs::kZonalChannelSuffixes.size()> values = {
              zone.demand, zone.degree, zone.grid_power.mw(), rep.ups().soc(),
              margin.is_infinite() ? kTripMarginCapSec
                                   : std::min(margin.sec(), kTripMarginCapSec)};
          const std::size_t base =
              kFacility + z * obs::kZonalChannelSuffixes.size();
          for (std::size_t i = 0; i < values.size(); ++i) {
            rec.record(handles[base + i], now, values[i]);
          }
        }
      },
      [&](Duration now) { return law.next_change_after(now); });
  sim::Engine engine(config_.control_period);
  engine.set_tracer(options.tracer);
  engine.set_span_skip(options.span_skip);
  engine.add(&driver);
  engine.run_until(law.end_time());
  result.engine_leaps = engine.leap_count();
  result.engine_leaped_ticks = engine.leaped_ticks();

  double total_achieved = 0.0, total_baseline = 0.0;
  result.zone_performance_factor.resize(zones.size());
  for (std::size_t z = 0; z < zones.size(); ++z) {
    result.zone_performance_factor[z] =
        baseline[z] > 0.0 ? achieved[z] / baseline[z] : 1.0;
    const auto weight = static_cast<double>(zones[z].pdu_count);
    total_achieved += achieved[z] * weight;
    total_baseline += baseline[z] * weight;
  }
  result.performance_factor =
      total_baseline > 0.0 ? total_achieved / total_baseline : 1.0;
  result.sprint_time = law.sprint_time();
  result.ups_energy = law.ups_energy();
  result.tripped = law.tripped();
  result.watchdog = watchdog.report();
  return result;
}

}  // namespace dcs::core
