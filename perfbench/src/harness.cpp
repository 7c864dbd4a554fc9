#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "compute/fleet.h"
#include "compute/pcm_heatsink.h"
#include "core/controller.h"
#include "core/datacenter.h"
#include "core/slo_strategy.h"
#include "core/strategy.h"
#include "exp/runner.h"
#include "exp/sweep.h"
#include "obs/counters.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "power/topology.h"
#include "serving/serving_layer.h"
#include "sim/component.h"
#include "sim/engine.h"
#include "sim/recorder.h"
#include "thermal/cooling_plant.h"
#include "thermal/room_model.h"
#include "thermal/tes_tank.h"
#include "util/time_series.h"
#include "workload/ms_trace.h"
#include "workload/yahoo_trace.h"

namespace perfbench {
namespace {

using namespace dcs;
using Clock = std::chrono::steady_clock;

/// Controller probes (each with its layer replays) per traced run, at most.
constexpr int kMaxProbes = 20;
/// Minimum warm-up before anything is timed.
constexpr double kWarmupMs = 300.0;
/// slo_sweep's fixed worker count (clamped to the host's CPUs).
constexpr std::size_t kSweepThreads = 2;
/// Per-operation samples reserved up front, so that a run's peak_rss_mb
/// does not depend on how many operations fit in it (a growing vector
/// holds its old and new buffers at once). Untouched capacity is not
/// resident.
constexpr std::size_t kSampleCapacity = std::size_t{1} << 20;
/// Failure messages kept for the log.
constexpr std::size_t kMaxFailureMessages = 8;
/// fig01's default counter channels, exported on every day909_traced run.
const std::vector<std::string> kDefaultCounterChannels = {
    "ups_soc", "tes_soc", "cb_trip_margin_s", "room_c", "degree", "cooling_mw"};

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return us_since(t0) * 1e-3; }

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}
double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Keeps replay results observable so the optimizer cannot drop the work.
volatile double g_sink = 0.0;

/// glibc defers coalescing freed small chunks until the next large
/// request. Making that request at the end of an operation charges the
/// operation for freeing its own outputs (a traced day run frees ~10^6
/// small objects, ~20-60 ms of deferred work) instead of whatever the
/// harness times next.
void settle_deferred_frees() {
  constexpr std::size_t kLargeRequest = 64 * 1024;
  void* volatile request = std::malloc(kLargeRequest);
  std::free(request);
}

/// Peak resident memory of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which Linux carries over from the parent across
/// fork + exec and so would report the launcher's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- sim_digest --------------------------------------------------------------

/// FNV-1a over 64-bit words: bit-exact, order-sensitive, cheap enough to
/// hash a day-long recorder on every run.
class Digest {
 public:
  void add(std::uint64_t word) {
    h_ ^= word;
    h_ *= 0x100000001b3ULL;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Hashes every simulated RunResult statistic and recorder sample (not the
/// engine's leap counters, which are scheduling, not results). Returns false
/// when a result that must be finite is not.
bool digest_run(Digest& d, const core::RunResult& r) {
  const double finite_fields[] = {
      r.avg_achieved,          r.avg_achieved_nosprint,
      r.performance_factor,    r.drop_fraction,
      r.avg_sprint_degree,     r.sprint_time.sec(),
      r.ups_energy.j(),        r.tes_saved_energy.j(),
      r.pdu_overload_energy.j(), r.dc_overload_energy.j(),
      r.peak_room_temperature.c(), r.min_ups_soc,
      r.min_tes_soc,           r.ups_equivalent_cycles,
      r.ups_max_depth};
  bool finite = true;
  for (double v : finite_fields) {
    d.add(v);
    finite = finite && std::isfinite(v);
  }
  for (Duration t : r.phase_time) d.add(t.sec());
  for (Duration t : r.degradation_time) d.add(t.sec());
  d.add(static_cast<std::uint64_t>(r.tripped));
  d.add(r.trip_time.sec());  // infinite unless tripped
  d.add(static_cast<std::uint64_t>(r.max_degradation));
  d.add(static_cast<std::uint64_t>(r.ups_discharge_events));
  d.add(static_cast<std::uint64_t>(r.watchdog.checks));
  d.add(static_cast<std::uint64_t>(r.watchdog.violations));
  for (const std::string& channel : r.recorder.channels()) {
    d.add(channel);
    for (const Sample& s : r.recorder.series(channel).samples()) {
      d.add(s.time.sec());
      d.add(s.value);
      finite = finite && std::isfinite(s.value);
    }
  }
  return finite;
}


/// The digest of each operation slot's first run; later runs of the same
/// input must reproduce it bit for bit.
class RepeatCheck {
 public:
  explicit RepeatCheck(std::size_t slots) : first_(slots) {}
  bool same(std::size_t slot, std::uint64_t digest) {
    if (!first_[slot].has_value()) first_[slot] = digest;
    return *first_[slot] == digest;
  }
  [[nodiscard]] std::string combined() const {
    Digest d;
    for (const auto& v : first_) d.add(v.value_or(0));
    return hex(d.value());
  }

 private:
  std::vector<std::optional<std::uint64_t>> first_;
};

/// Checks one controlled run: finite outputs, no trip, no watchdog
/// violation, and a digest equal to the first run of the same input.
/// Appends a message per problem; returns the number of failed operations.
std::size_t check_controlled(const core::RunResult& r, bool finite,
                             std::uint64_t digest, RepeatCheck& repeat,
                             std::vector<std::string>& failures) {
  const std::size_t before = failures.size();
  if (!finite) failures.push_back("non-finite run output");
  if (r.tripped) failures.push_back("controlled run tripped a breaker");
  if (!r.watchdog.ok()) {
    failures.push_back("watchdog violation: " + r.watchdog.first_message);
  }
  if (!repeat.same(0, digest)) {
    failures.push_back("repeat run is not bit-identical");
  }
  return failures.size() > before ? 1 : 0;
}

// --- spans -----------------------------------------------------------------

/// The harness's own spans, kept in memory and written out at the end.
/// Thread-safe: sweep tasks open spans from worker threads.
class Spans {
 public:
  static constexpr std::int64_t kNone = -1;

  std::int64_t open(const char* name, std::uint64_t op, std::int64_t parent) {
    const double t = now_us();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, op, parent, t, t});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t id) {
    const double t = now_us();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
  }
  /// Records a span timed by the caller (`start` .. now).
  void add(const char* name, std::uint64_t op, std::int64_t parent,
           Clock::time_point start) {
    const double end = now_us();
    const double begin =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, op, parent, begin, end});
  }

  void write_jsonl(std::ostream& out) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    out << std::fixed << std::setprecision(3);  // ns resolution
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_us - s.start_us;
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << ",\"self_us\":" << dur - child_us[i] << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::int64_t parent;
    double start_us;
    double end_us;
  };
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for its lifetime; a null Spans makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name, std::uint64_t op,
             std::int64_t parent)
      : spans_(spans),
        id_(spans != nullptr ? spans->open(name, op, parent) : Spans::kNone) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Spans* spans_;
  std::int64_t id_;
};

// --- timing decorators ----------------------------------------------------

/// Times every call into a wrapped strategy.
class TimedStrategy final : public core::Strategy {
 public:
  explicit TimedStrategy(core::Strategy* inner) : inner_(inner) {}
  double upper_bound(const core::SprintContext& ctx) override {
    const auto t0 = Clock::now();
    const double bound = inner_->upper_bound(ctx);
    account(t0);
    return bound;
  }
  void on_burst_start() override {
    const auto t0 = Clock::now();
    inner_->on_burst_start();
    account(t0);
  }
  void observe(const core::SprintContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->observe(ctx);
    account(t0);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  [[nodiscard]] double us() const noexcept { return us_; }

 private:
  void account(Clock::time_point t0) {
    us_ += us_since(t0);
    ++calls_;
  }
  core::Strategy* inner_;
  std::size_t calls_ = 0;
  double us_ = 0.0;
};

/// Times every tick of a wrapped engine component.
class TimedComponent final : public sim::Component {
 public:
  explicit TimedComponent(sim::Component* inner) : inner_(inner) {}
  void tick(Duration now, Duration dt) override {
    const auto t0 = Clock::now();
    inner_->tick(now, dt);
    tick_us_.push_back(us_since(t0));
  }
  [[nodiscard]] Duration next_event_hint(Duration now) const override {
    return inner_->next_event_hint(now);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const std::vector<double>& tick_us() const noexcept {
    return tick_us_;
  }

 private:
  sim::Component* inner_;
  std::vector<double> tick_us_;
};

/// Times every event a Tracer hands its sink and buffers the events in a
/// plain Tracer, so they serialize exactly as a buffered Tracer's would.
class TimedSink final : public obs::TraceSink {
 public:
  void write(const obs::TraceEvent& event) override {
    const auto t0 = Clock::now();
    buffer_.append(event);
    us_ += us_since(t0);
    ++events_;
  }
  void write_lane_name(obs::Domain domain, std::uint32_t lane,
                       const std::string& name) override {
    buffer_.name_lane(domain, lane, name);
  }
  void finalize() override {}
  [[nodiscard]] const obs::Tracer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] double ns_per_event() const noexcept {
    return events_ > 0 ? us_ * 1e3 / static_cast<double>(events_) : 0.0;
  }

 private:
  obs::Tracer buffer_;
  double us_ = 0.0;
  std::size_t events_ = 0;
};

/// An ostream target appending to a caller-owned string. Cleared between
/// operations, the string keeps its capacity, so serializing costs the
/// formatting and the copy, as writing to a file would, rather than fresh
/// page faults for a new buffer every run.
class StringBuf final : public std::streambuf {
 public:
  explicit StringBuf(std::string* out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      out_->push_back(traits_type::to_char_type(c));
    }
    return c;
  }

 private:
  std::string* out_;
};

// --- per-layer accounting ---------------------------------------------------

/// What traced day909_traced operations observed of the write path: the
/// recorder, tracing and serialization.
struct WritePathTotals {
  double recorder_samples = 0.0;  // per run
  std::vector<double> export_ms;
  double tracing_events = 0.0;  // per run
  double tracing_decisions = 0.0;
  double tracing_bytes = 0.0;
  std::vector<double> serialize_ms;
  std::vector<double> sink_ns_per_event;
};

/// What traced operations observed, layer by layer.
struct LayerTotals {
  double run_ticks = 0.0;
  double leaped_ticks = 0.0;
  std::vector<double> serving_tick_us;
  double grids = 0.0;
  double serving_requests = 0.0;  // summed over grids
  double serving_offered = 0.0;
  double serving_admitted = 0.0;
  double serving_busy_us = 0.0;
  double task_us = 0.0;
  WritePathTotals write;
  double sweep_tasks = 0.0;  // per grid
  std::vector<double> parallel_eff;
  std::vector<double> task_wait_ms;
};

/// Traced-run context handed to an operation (null in untraced runs).
struct Instruments {
  Spans* spans = nullptr;
  std::uint64_t op = 0;
  LayerTotals* layers = nullptr;
};

/// What one closed-loop step produced: one operation, or one sweep grid.
struct Batch {
  std::vector<double> op_ms;
  double sim_seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

// --- controller probe and layer replays -------------------------------------

/// Exact per-tick inputs of the plant layers, captured from a
/// benchmark-driven controller run.
struct TickInput {
  bool recharge = false;
  double demand = 0.0;
  double bound = 1.0;
  std::size_t cores = 0;
  Power per_pdu;
  Power fleet_total;
  Power ups;  // discharge request, or recharge offer when `recharge`
  Power cooling;
  bool tes_enabled = false;
  Power tes_relief;
  Power tes_rate;  // TES recharge rate when `recharge`
};

struct ProbeRun {
  std::size_t ticks = 0;
  double run_until_us = 0.0;
  std::vector<double> step_us;
  std::size_t strategy_calls = 0;
  double strategy_us = 0.0;
  std::vector<TickInput> inputs;
};

/// Drives SprintingController::step from a benchmark-owned engine component
/// (the BM_ControllerStep wiring, over a real trace) and captures the inputs
/// the controller handed to the topology, thermal and fleet layers.
class ControllerComponent final : public sim::Component {
 public:
  struct Plant {
    const core::DataCenterConfig* config;
    compute::Fleet* fleet;
    power::PowerTopology* topology;
    thermal::CoolingPlant* cooling;
    thermal::TesTank* tes;
  };

  ControllerComponent(core::SprintingController* controller, Plant plant,
                      const TimeSeries* demand, ProbeRun* out, Spans* spans,
                      std::uint64_t op, std::int64_t parent)
      : controller_(controller),
        plant_(plant),
        demand_(demand),
        out_(out),
        spans_(spans),
        op_(op),
        parent_(parent) {}

  void tick(Duration now, Duration dt) override {
    const double d = demand_->at(now, cursor_);
    const auto t0 = Clock::now();
    const core::StepResult step = controller_->step(now, d, dt);
    out_->step_us.push_back(us_since(t0));
    if (spans_ != nullptr) spans_->add("controller.step", op_, parent_, t0);
    out_->inputs.push_back(capture(step));
  }
  // Same hint as DataCenter::run's own component, so the engine leaps
  // where a real run leaps.
  [[nodiscard]] Duration next_event_hint(Duration now) const override {
    return demand_->next_time_after(now, cursor_);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "perfbench-controller";
  }

 private:
  /// Recomputes the arguments SprintingController::step_controlled passed
  /// to PowerTopology / CoolingPlant this tick (fault-free, feed healthy),
  /// from the step's result and the plant's public state.
  [[nodiscard]] TickInput capture(const core::StepResult& step) const {
    const core::DataCenterConfig& config = *plant_.config;
    const compute::Fleet::Operation op =
        plant_.fleet->operate_with_cores(step.demand, step.active_cores);
    TickInput in;
    in.demand = step.demand;
    in.bound = step.upper_bound;
    in.cores = step.active_cores;
    in.per_pdu = op.per_pdu;
    in.fleet_total = op.fleet_total;
    in.cooling = step.cooling_power;
    in.recharge = step.demand <= 1.0 + 1e-9 &&
                  step.demand <= config.recharge_demand_threshold;
    if (in.recharge) {
      const double n = static_cast<double>(plant_.topology->pdu_count());
      const Power dc_rated = config.dc_rated();
      const Power pdu_rated = config.pdu_rated();
      const Power dc_used =
          op.per_pdu * n + plant_.cooling->electrical_projection(
                               op.fleet_total, false, Power::zero());
      Power dc_room = dc_rated > dc_used ? dc_rated - dc_used : Power::zero();
      const Power pdu_room =
          pdu_rated > op.per_pdu ? pdu_rated - op.per_pdu : Power::zero();
      in.ups = std::min(pdu_room, dc_room / n);
      dc_room = std::max(dc_room - in.ups * n, Power::zero());
      if (plant_.tes != nullptr) {
        in.tes_rate = dc_room / plant_.cooling->chiller_elec_per_heat();
      }
    } else {
      // Pdu::step hands the request to the bank and records what it gave;
      // replaying the given power reproduces the same discharge.
      in.ups = plant_.topology->pdu(0).last_ups_power();
      in.tes_enabled = step.phase == core::SprintPhase::kTesCooling ||
                       step.tes_heat > Power::zero() ||
                       step.tes_relief > Power::zero();
      in.tes_relief = step.tes_relief;
    }
    return in;
  }

  core::SprintingController* controller_;
  Plant plant_;
  const TimeSeries* demand_;
  mutable TimeSeries::Cursor cursor_;
  ProbeRun* out_;
  Spans* spans_;
  std::uint64_t op_;
  std::int64_t parent_;
};

ProbeRun run_controller_probe(const core::DataCenterConfig& config,
                              const TimeSeries& demand, Spans* spans,
                              std::uint64_t op, std::int64_t parent) {
  compute::Fleet fleet(config.fleet);
  power::PowerTopology topology(config.topology_params());
  std::unique_ptr<thermal::TesTank> tes =
      config.has_tes
          ? std::make_unique<thermal::TesTank>("dc/tes", config.tes_params())
          : nullptr;
  thermal::CoolingPlant cooling(config.cooling_params(tes.get()));
  thermal::RoomModel room(config.room_params());
  compute::PcmHeatSink pcm(config.chip_pcm);
  core::GreedyStrategy greedy;
  TimedStrategy strategy(&greedy);
  core::SprintingController controller(
      config, {&fleet, &topology, &cooling, tes.get(), &room, &pcm}, &strategy,
      core::Mode::kControlled);

  ProbeRun out;
  out.step_us.reserve(static_cast<std::size_t>(
      demand.end_time() / config.control_period));
  sim::Engine engine(config.control_period);
  const ScopedSpan span(spans, "engine.run_until", op, parent);
  ControllerComponent component(
      &controller, {&config, &fleet, &topology, &cooling, tes.get()}, &demand,
      &out, spans, op, span.id());
  engine.add(&component);
  const auto t0 = Clock::now();
  out.ticks = engine.run_until(demand.end_time());
  out.run_until_us = us_since(t0);
  out.strategy_calls = strategy.calls();
  out.strategy_us = strategy.us();
  return out;
}

struct TopologyReplay {
  double build_us = 0.0;
  std::vector<double> step_us;
  double ups_available_us = 0.0;  // per call
  std::vector<double> dc_load_w;
};

TopologyReplay replay_topology(const core::DataCenterConfig& config,
                               const std::vector<TickInput>& inputs) {
  const Duration dt = config.control_period;
  TopologyReplay out;
  out.step_us.reserve(inputs.size());
  out.dc_load_w.reserve(inputs.size());
  const auto t_build = Clock::now();
  power::PowerTopology topology(config.topology_params());
  out.build_us = us_since(t_build);
  double available_us = 0.0;
  double acc = 0.0;
  for (const TickInput& in : inputs) {
    const auto t0 = Clock::now();
    const power::Flows flows =
        in.recharge
            ? topology.recharge_uniform(in.per_pdu, in.ups, in.cooling, dt)
            : topology.step_uniform(in.per_pdu, in.ups, in.cooling, dt);
    out.step_us.push_back(us_since(t0));
    out.dc_load_w.push_back(flows.dc_load.w());
    const auto t1 = Clock::now();
    acc += topology.ups_available().j();
    available_us += us_since(t1);
  }
  g_sink = acc;
  out.ups_available_us =
      inputs.empty() ? 0.0 : available_us / static_cast<double>(inputs.size());
  return out;
}

/// Per-tick cooling-plant (with its TES) plus room-model step times.
std::vector<double> replay_thermal(const core::DataCenterConfig& config,
                                   const std::vector<TickInput>& inputs) {
  const Duration dt = config.control_period;
  std::unique_ptr<thermal::TesTank> tes =
      config.has_tes
          ? std::make_unique<thermal::TesTank>("dc/tes", config.tes_params())
          : nullptr;
  thermal::CoolingPlant cooling(config.cooling_params(tes.get()));
  thermal::RoomModel room(config.room_params());
  std::vector<double> step_us;
  step_us.reserve(inputs.size());
  for (const TickInput& in : inputs) {
    const auto t0 = Clock::now();
    const thermal::CoolingStep cs =
        in.recharge
            ? cooling.recharge_tes_step(in.fleet_total, in.tes_rate, dt)
            : cooling.step(in.fleet_total, in.tes_enabled, in.tes_relief, dt);
    room.step(in.fleet_total, cs.heat_absorbed, dt);
    step_us.push_back(us_since(t0));
  }
  g_sink = room.temperature().c();
  return step_us;
}

/// Mean time of one Fleet::operate / operate_with_cores call, replaying the
/// bound solve and the commit of every tick.
double replay_fleet_us_per_call(const core::DataCenterConfig& config,
                                const std::vector<TickInput>& inputs) {
  if (inputs.empty()) return 0.0;
  const compute::Fleet fleet(config.fleet);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (const TickInput& in : inputs) {
    acc += fleet.operate(in.demand, std::max(1.0, in.bound)).per_pdu.w();
    acc += fleet.operate_with_cores(in.demand, in.cores).per_pdu.w();
  }
  const double us = us_since(t0);
  g_sink = acc;
  return us / (2.0 * static_cast<double>(inputs.size()));
}

/// Appends every channel of `recorded` into a fresh Recorder, tick-major
/// through handles as a run does; returns ns per sample.
double replay_recorder_ns_per_sample(const sim::Recorder& recorded) {
  const std::vector<std::string> names = recorded.channels();
  std::vector<const std::vector<Sample>*> series;
  std::size_t ticks = 0;
  std::size_t samples = 0;
  for (const std::string& name : names) {
    series.push_back(&recorded.series(name).samples());
    ticks = std::max(ticks, series.back()->size());
    samples += series.back()->size();
  }
  if (samples == 0) return 0.0;
  sim::Recorder fresh;
  const auto t0 = Clock::now();
  std::vector<sim::Recorder::Handle> handles;
  handles.reserve(names.size());
  for (const std::string& name : names) handles.push_back(fresh.handle(name));
  for (std::size_t i = 0; i < ticks; ++i) {
    for (std::size_t c = 0; c < series.size(); ++c) {
      if (i < series[c]->size()) {
        const Sample& s = (*series[c])[i];
        fresh.record(handles[c], s.time, s.value);
      }
    }
  }
  const double us = us_since(t0);
  return us * 1e3 / static_cast<double>(samples);
}

// --- workloads -----------------------------------------------------------

class Workload {
 public:
  explicit Workload(std::size_t slots) : repeat_(slots) {}
  virtual ~Workload() = default;
  /// Generates the traces, validates the configs and builds the
  /// DataCenter; returns the trace-generation time in ms.
  virtual double setup() = 0;
  /// One closed-loop step: one operation, or one sweep grid.
  virtual Batch batch(const Instruments* ins) = 0;
  /// Time of a plain run (no recorder, tracer or decisions) of the same
  /// input, for workloads whose operation traces; nullopt otherwise.
  virtual std::optional<double> untraced_run_ms() { return std::nullopt; }
  /// ns per sample of replaying the last traced run's recorder channels
  /// into a fresh Recorder (0 when the workload does not record).
  [[nodiscard]] virtual double recorder_ns_per_sample() const { return 0.0; }

  /// The config and trace the controller probe replays.
  [[nodiscard]] const core::DataCenterConfig& config() const { return config_; }
  [[nodiscard]] const TimeSeries& trace() const { return trace_; }
  [[nodiscard]] std::string digest() const { return repeat_.combined(); }

 protected:
  TimeSeries trace_;
  core::DataCenterConfig config_;
  RepeatCheck repeat_;
};

core::DataCenterConfig paper_config() {
  core::DataCenterConfig config;
  config.fleet.pdu_count = 909;
  return config;
}

/// Back-to-back 909-PDU Greedy runs on the 30-minute per-second-noise MS
/// trace: span skipping never fires and the uniform-topology memo misses
/// every tick, so the controller, topology and thermal steps carry the cost.
class Paper909 final : public Workload {
 public:
  explicit Paper909(std::uint64_t seed) : Workload(1), seed_(seed) {}

  double setup() override {
    const auto t0 = Clock::now();
    workload::MsTraceParams params;
    params.seed = seed_;
    trace_ = workload::generate_ms_trace(params);
    const double trace_ms = ms_since(t0);
    config_ = paper_config();
    config_.validate();
    dc_ = std::make_unique<core::DataCenter>(config_);
    return trace_ms;
  }

  Batch batch(const Instruments* ins) override {
    Spans* spans = ins != nullptr ? ins->spans : nullptr;
    const std::uint64_t op = ins != nullptr ? ins->op : 0;
    Batch b;
    b.attempted = 1;
    b.sim_seconds = trace_.end_time().sec();
    const ScopedSpan op_span(spans, "op", op, Spans::kNone);
    core::RunResult r;
    const auto t0 = Clock::now();
    try {
      const ScopedSpan run_span(spans, "dc.run", op, op_span.id());
      r = dc_->run(trace_, &greedy_);
      settle_deferred_frees();
    } catch (const std::exception& e) {
      b.op_ms.push_back(ms_since(t0));
      b.failed = 1;
      b.failures.push_back(std::string("run threw: ") + e.what());
      return b;
    }
    b.op_ms.push_back(ms_since(t0));
    Digest d;
    const bool finite = digest_run(d, r);
    b.failed = check_controlled(r, finite, d.value(), repeat_, b.failures);
    if (ins != nullptr) {
      ins->layers->run_ticks += trace_.end_time() / config_.control_period;
      ins->layers->leaped_ticks += static_cast<double>(r.engine_leaped_ticks);
    }
    return b;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<core::DataCenter> dc_;
  core::GreedyStrategy greedy_;
};

/// fig01's day-long 909-PDU Greedy run with recording, tracing, decision
/// logging, counter export and in-memory serialization: the engine leaps
/// nearly every tick, so the recorder and tracing carry much of the cost.
class Day909Traced final : public Workload {
 public:
  explicit Day909Traced(std::uint64_t seed) : Workload(1), seed_(seed) {}

  double setup() override {
    const auto t0 = Clock::now();
    workload::MsDayTraceParams params;
    params.seed = seed_;
    trace_ = workload::generate_ms_day_trace(params).scaled(1.0 / 4.0);
    const double trace_ms = ms_since(t0);
    config_ = paper_config();
    config_.validate();
    dc_ = std::make_unique<core::DataCenter>(config_);
    return trace_ms;
  }

  Batch batch(const Instruments* ins) override {
    Spans* spans = ins != nullptr ? ins->spans : nullptr;
    const std::uint64_t op = ins != nullptr ? ins->op : 0;
    Batch b;
    b.attempted = 1;
    b.sim_seconds = trace_.end_time().sec();
    const ScopedSpan op_span(spans, "op", op, Spans::kNone);
    // Heap-held so that freeing them is timed as part of the operation.
    auto sink = std::make_unique<TimedSink>();
    auto tracer = ins != nullptr ? std::make_unique<obs::Tracer>(sink.get())
                                 : std::make_unique<obs::Tracer>();
    core::RunResult r;
    std::size_t bytes = 0;
    double export_ms = 0.0;
    double serialize_ms = 0.0;
    std::size_t decisions_emitted = 0;
    const auto t0 = Clock::now();
    try {
      tracer->name_lane(obs::Domain::kSim, 0, "greedy/day-trace");
      obs::DecisionLog decisions(tracer.get());
      core::RunOptions opts;
      opts.record = true;
      opts.tracer = tracer.get();
      opts.decisions = &decisions;
      {
        const ScopedSpan run_span(spans, "dc.run", op, op_span.id());
        r = dc_->run(trace_, &greedy_, opts);
      }
      const auto t_export = Clock::now();
      {
        const ScopedSpan export_span(spans, "recorder.export", op, op_span.id());
        obs::CounterExportOptions counters;
        counters.channels = kDefaultCounterChannels;
        obs::export_counters(r.recorder, *tracer, counters);
      }
      export_ms = ms_since(t_export);
      const auto t_serialize = Clock::now();
      {
        // fig01's trace= export (Chrome JSON + JSONL), into memory.
        const ScopedSpan ser_span(spans, "tracing.serialize", op, op_span.id());
        const obs::Tracer& events = ins != nullptr ? sink->buffer() : *tracer;
        chrome_.clear();
        jsonl_.clear();
        StringBuf chrome_buf(&chrome_);
        StringBuf jsonl_buf(&jsonl_);
        std::ostream chrome(&chrome_buf);
        std::ostream jsonl(&jsonl_buf);
        events.write_chrome_trace(chrome);
        events.write_jsonl(jsonl);
        bytes = chrome_.size() + jsonl_.size();
      }
      serialize_ms = ms_since(t_serialize);
      decisions_emitted = decisions.count();
    } catch (const std::exception& e) {
      b.op_ms.push_back(ms_since(t0));
      b.failed = 1;
      b.failures.push_back(std::string("run threw: ") + e.what());
      return b;
    }
    const double op_ms = ms_since(t0);
    Digest d;
    const bool finite = digest_run(d, r);
    const std::size_t events = tracer->count(obs::Domain::kSim);
    d.add(static_cast<std::uint64_t>(events));
    d.add(static_cast<std::uint64_t>(decisions_emitted));
    b.failed = check_controlled(r, finite, d.value(), repeat_, b.failures);
    if (ins != nullptr) {
      LayerTotals& l = *ins->layers;
      l.run_ticks += trace_.end_time() / config_.control_period;
      l.leaped_ticks += static_cast<double>(r.engine_leaped_ticks);
      double samples = 0.0;
      for (const std::string& channel : r.recorder.channels()) {
        samples += static_cast<double>(r.recorder.series(channel).size());
      }
      l.write.recorder_samples = samples;
      l.write.export_ms.push_back(export_ms);
      l.write.tracing_events = static_cast<double>(events);
      l.write.tracing_decisions = static_cast<double>(decisions_emitted);
      l.write.tracing_bytes = static_cast<double>(bytes);
      l.write.serialize_ms.push_back(serialize_ms);
      l.write.sink_ns_per_event.push_back(sink->ns_per_event());
      last_recorder_ = std::move(r.recorder);
    }
    const auto t_free = Clock::now();
    r = core::RunResult{};
    tracer.reset();
    sink.reset();
    settle_deferred_frees();
    b.op_ms.push_back(op_ms + ms_since(t_free));
    return b;
  }

  std::optional<double> untraced_run_ms() override {
    const auto t0 = Clock::now();
    (void)dc_->run(trace_, &greedy_);
    settle_deferred_frees();
    return ms_since(t0);
  }

  [[nodiscard]] double recorder_ns_per_sample() const override {
    return replay_recorder_ns_per_sample(last_recorder_);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<core::DataCenter> dc_;
  core::GreedyStrategy greedy_;
  // Serialization targets, reused across runs.
  std::string chrome_;
  std::string jsonl_;
  sim::Recorder last_recorder_;
};

/// fig12's two grids on exp::run_sweep: ServingLayer::tick dominates every
/// task, the plant is tiny, and the runner's scheduling of uneven tasks sets
/// the wall time.
class SloSweep final : public Workload {
 public:
  explicit SloSweep(std::uint64_t seed)
      : Workload(kTasks),
        seed_(seed),
        threads_(std::max<std::size_t>(
            1, std::min<std::size_t>(kSweepThreads,
                                     std::thread::hardware_concurrency()))) {}

  double setup() override {
    const auto t0 = Clock::now();
    workload::YahooTraceParams yp;
    yp.burst_degree = 3.2;
    yp.burst_duration = Duration::minutes(15);
    yp.seed = seed_;
    trace_ = workload::generate_yahoo_trace(yp);
    const double trace_ms = ms_since(t0);

    serving_ = serving::ServingParams{};
    serving_.servers = 8;
    serving_.peak_rps = 400.0;
    serving_.queue_model = "mg1";
    serving_.placement = "round_robin";
    serving_.admit_factor = 2.0;
    serving_.seed = seed_;
    serving_.demand = &trace_;

    budget_spec_ = std::make_unique<exp::SweepSpec>("fig12_slo_budget");
    budget_spec_->add_axis("budget", kBudgets, 2);
    budget_spec_->add_axis("strategy", {"slo", "greedy"});
    admit_spec_ = std::make_unique<exp::SweepSpec>("fig12_admission");
    admit_spec_->add_axis("admit", kAdmits, 2);
    admit_spec_->add_axis("strategy", {"slo", "nosprint"});

    config_ = core::DataCenterConfig{};
    config_.fleet.pdu_count = 8;
    configs_.clear();
    for (const exp::SweepSpec::Task& task : budget_spec_->tasks()) {
      configs_.push_back(budget_config(budget_spec_->value(task, 0)));
      configs_.back().validate();
    }
    config_.validate();
    return trace_ms;
  }

  Batch batch(const Instruments* ins) override {
    Spans* spans = ins != nullptr ? ins->spans : nullptr;
    const std::uint64_t op = ins != nullptr ? ins->op : 0;
    const ScopedSpan op_span(spans, "op", op, Spans::kNone);
    const std::size_t nb = budget_spec_->task_count();
    std::vector<TaskSlot> slots(nb + admit_spec_->task_count());

    exp::RunnerOptions runner;
    runner.threads = threads_;
    const auto run_grid = [&](const exp::SweepSpec& spec, std::size_t base,
                              bool admission) {
      const ScopedSpan sweep_span(spans, "exp.run_sweep", op, op_span.id());
      const auto entry = Clock::now();
      const exp::SweepRun run = exp::run_sweep(
          spec, {"p99_ms", "drop_pct"},
          [&](const exp::SweepSpec::Task& task) {
            TaskSlot& slot = slots[base + task.index];
            const auto start = Clock::now();
            slot.wait_ms =
                std::chrono::duration<double, std::milli>(start - entry).count();
            const ScopedSpan task_span(spans, "exp.task", op, sweep_span.id());
            try {
              serving::ServingParams sp = serving_;
              const core::DataCenterConfig* config = &configs_[task.index];
              if (admission) {
                sp.admit_factor = spec.value(task, 0);
                config = &config_;
              }
              run_task(*config, spec.label(task, 1), sp, ins != nullptr, slot,
                       spans, op, task_span.id());
            } catch (const std::exception& e) {
              slot.error = std::string("task threw: ") + e.what();
            }
            settle_deferred_frees();
            slot.ms = ms_since(start);
            return std::vector<double>{slot.p99_ms, slot.drop_pct};
          },
          runner);
      if (ins != nullptr) {
        double busy_ms = 0.0;
        for (std::size_t i = 0; i < spec.task_count(); ++i) {
          busy_ms += slots[base + i].ms;
          ins->layers->task_wait_ms.push_back(slots[base + i].wait_ms);
        }
        ins->layers->parallel_eff.push_back(
            busy_ms / (run.wall_seconds * 1e3 *
                       static_cast<double>(run.threads_used)));
      }
    };
    run_grid(*budget_spec_, 0, false);
    run_grid(*admit_spec_, nb, true);

    // The fig12 contracts: p99 non-increasing in budget under the SLO
    // strategy, and SLO sprinting never drops more than no-sprint.
    double prev_p99 = std::numeric_limits<double>::infinity();
    for (const exp::SweepSpec::Task& task : budget_spec_->tasks()) {
      if (budget_spec_->label(task, 1) != "slo") continue;
      TaskSlot& slot = slots[task.index];
      if (slot.p99_ms > prev_p99) {
        slot.problems.push_back("slo p99 rose with budget at " +
                                budget_spec_->label(task, 0) + "x");
      }
      prev_p99 = slot.p99_ms;
    }
    const std::vector<exp::SweepSpec::Task> admit_tasks = admit_spec_->tasks();
    for (const exp::SweepSpec::Task& task : admit_tasks) {
      if (admit_spec_->label(task, 1) != "slo") continue;
      for (const exp::SweepSpec::Task& other : admit_tasks) {
        if (other.level[0] == task.level[0] &&
            admit_spec_->label(other, 1) == "nosprint" &&
            slots[nb + task.index].drop_pct > slots[nb + other.index].drop_pct) {
          slots[nb + task.index].problems.push_back(
              "slo drops more than nosprint at admit " +
              admit_spec_->label(task, 0) + "x");
        }
      }
    }

    Batch b;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      TaskSlot& slot = slots[i];
      if (!slot.error.empty()) {
        slot.problems.push_back(slot.error);
      } else if (!slot.finite) {
        slot.problems.push_back("non-finite task output");
      }
      if (slot.error.empty() && !repeat_.same(i, slot.digest)) {
        slot.problems.push_back("repeat task is not bit-identical");
      }
      ++b.attempted;
      b.op_ms.push_back(slot.ms);
      b.sim_seconds += trace_.end_time().sec();
      if (!slot.problems.empty()) {
        ++b.failed;
        b.failures.insert(b.failures.end(), slot.problems.begin(),
                          slot.problems.end());
      }
    }
    if (ins != nullptr) {
      LayerTotals& l = *ins->layers;
      l.sweep_tasks = static_cast<double>(slots.size());
      l.grids += 1.0;
      for (TaskSlot& slot : slots) {
        l.run_ticks += trace_.end_time() / config_.control_period;
        l.leaped_ticks += slot.leaped_ticks;
        l.serving_requests += slot.requests;
        l.serving_offered += slot.offered;
        l.serving_admitted += slot.admitted;
        l.serving_busy_us += sum(slot.tick_us);
        l.task_us += slot.ms * 1e3;
        l.serving_tick_us.insert(l.serving_tick_us.end(), slot.tick_us.begin(),
                                 slot.tick_us.end());
      }
    }
    return b;
  }

 private:
  static constexpr double kBudgets[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  static constexpr double kAdmits[] = {1.0, 1.5, 2.0, 3.0, 4.0};
  /// Budget x {slo, greedy} plus admit x {slo, nosprint}.
  static constexpr std::size_t kTasks =
      2 * std::size(kBudgets) + 2 * std::size(kAdmits);

  struct TaskSlot {
    double ms = 0.0;
    double wait_ms = 0.0;
    double p99_ms = std::numeric_limits<double>::quiet_NaN();
    double drop_pct = std::numeric_limits<double>::quiet_NaN();
    bool finite = false;
    std::uint64_t digest = 0;
    std::string error;
    std::vector<std::string> problems;
    double requests = 0.0;
    double offered = 0.0;
    double admitted = 0.0;
    double leaped_ticks = 0.0;
    std::vector<double> tick_us;
  };

  [[nodiscard]] core::DataCenterConfig budget_config(double scale) const {
    core::DataCenterConfig config = config_;
    config.battery_per_server.capacity = Charge::amp_hours(0.5 * scale);
    config.tes_capacity_minutes *= scale;
    return config;
  }

  /// fig12's task: the serving layer rides the engine and the SLO strategy
  /// (when selected) closes the loop from the window p99 to the sprint bound.
  void run_task(const core::DataCenterConfig& config,
                const std::string& strategy_name,
                const serving::ServingParams& sp, bool instrumented,
                TaskSlot& slot, Spans* spans, std::uint64_t op,
                std::int64_t parent) const {
    serving::ServingLayer serving(sp);
    TimedComponent timed(&serving);
    core::SloSprintStrategy slo(core::SloSprintParams{.target_p99_s = 0.25});
    core::GreedyStrategy greedy;
    core::ConstantBoundStrategy nosprint(1.0, "nosprint");
    core::Strategy* strategy = &nosprint;
    if (strategy_name == "slo") {
      strategy = &slo;
      serving.set_slo_callback([&slo](const serving::ServingStats& stats) {
        slo.observe_latency(stats.p99_s);
      });
    } else if (strategy_name == "greedy") {
      strategy = &greedy;
    }
    core::DataCenter dc(config);
    core::RunOptions opts;
    opts.components = {instrumented ? static_cast<sim::Component*>(&timed)
                                    : &serving};
    opts.on_step = [&serving](Duration, Duration, const core::StepResult& step) {
      serving.set_capacity_degree(step.degree);
    };
    core::RunResult r;
    {
      const ScopedSpan run_span(spans, "dc.run", op, parent);
      r = dc.run(trace_, strategy, opts);
    }
    const serving::LatencyHistogram& hist = serving.latency().total();
    slot.p99_ms = serving.latency().p99() * 1e3;
    slot.drop_pct = serving.drop_fraction() * 100.0;
    Digest d;
    slot.finite = digest_run(d, r) && std::isfinite(slot.p99_ms) &&
                  std::isfinite(slot.drop_pct);
    for (std::size_t c : hist.bucket_counts()) {
      d.add(static_cast<std::uint64_t>(c));
    }
    d.add(static_cast<std::uint64_t>(hist.count()));
    d.add(hist.sum_seconds());
    d.add(hist.max_seconds());
    d.add(static_cast<std::uint64_t>(serving.offered_total()));
    d.add(static_cast<std::uint64_t>(serving.dropped_total()));
    slot.digest = d.value();
    slot.requests = static_cast<double>(hist.count());
    slot.offered = static_cast<double>(serving.offered_total());
    slot.admitted =
        static_cast<double>(serving.offered_total() - serving.dropped_total());
    slot.leaped_ticks = static_cast<double>(r.engine_leaped_ticks);
    if (instrumented) slot.tick_us = timed.tick_us();
  }

  std::uint64_t seed_;
  std::size_t threads_;
  serving::ServingParams serving_;
  std::unique_ptr<exp::SweepSpec> budget_spec_;
  std::unique_ptr<exp::SweepSpec> admit_spec_;
  std::vector<core::DataCenterConfig> configs_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper909") return std::make_unique<Paper909>(seed);
  if (name == "day909_traced") return std::make_unique<Day909Traced>(seed);
  if (name == "slo_sweep") return std::make_unique<SloSweep>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- report assembly ---------------------------------------------------------

void absorb(Report& report, const Batch& b) {
  report.attempted += b.attempted;
  report.failed += b.failed;
  for (const std::string& f : b.failures) {
    if (report.failures.size() < kMaxFailureMessages) report.failures.push_back(f);
  }
}

void add(Report& report, std::string name, double value, std::string unit) {
  report.metrics.push_back({std::move(name), value, std::move(unit)});
}

/// Times set-ups of a second instance of the workload, so the instance
/// under measurement keeps its inputs. Set-ups are spread through the timed
/// phase, between operations, so their median sees the same host
/// conditions as the operations' percentiles.
class SetupTimer {
 public:
  explicit SetupTimer(const Options& o) : w_(make_workload(o.workload, o.seed)) {
    setup_s_.reserve(kSampleCapacity);
    trace_gen_ms_.reserve(kSampleCapacity);
  }
  void time() {
    const auto t0 = Clock::now();
    trace_gen_ms_.push_back(w_->setup());
    setup_s_.push_back(ms_since(t0) * 1e-3);
  }
  [[nodiscard]] double setup_s() const { return median(setup_s_); }
  [[nodiscard]] double trace_gen_ms() const { return median(trace_gen_ms_); }

 private:
  std::unique_ptr<Workload> w_;
  std::vector<double> setup_s_;
  std::vector<double> trace_gen_ms_;
};

void run_untraced(Workload& w, const Options& o, Report& report) {
  std::vector<double> op_ms;
  op_ms.reserve(kSampleCapacity);
  SetupTimer setup(o);
  double sim_seconds = 0.0;
  double op_wall_s = 0.0;
  const auto t0 = Clock::now();
  do {
    const auto t_batch = Clock::now();
    const Batch b = w.batch(nullptr);
    op_wall_s += ms_since(t_batch) * 1e-3;
    absorb(report, b);
    op_ms.insert(op_ms.end(), b.op_ms.begin(), b.op_ms.end());
    sim_seconds += b.sim_seconds;
    setup.time();
  } while (ms_since(t0) * 1e-3 < o.seconds);
  report.op_samples = op_ms.size();
  add(report, "setup_s", setup.setup_s(), "s");
  add(report, "op_ms_p50", quantile(op_ms, 0.5), "ms");
  add(report, "op_ms_p90", quantile(op_ms, 0.9), "ms");
  add(report, "sim_s_per_s", sim_seconds / op_wall_s, "1/s");
  add(report, "peak_rss_mb", peak_rss_mb(), "MB");
}

void run_traced(Workload& w, const Options& o, Report& report) {
  Spans spans;
  LayerTotals layers;
  std::uint64_t next_op = 1;
  const auto t0 = Clock::now();
  const auto elapsed_s = [&] { return ms_since(t0) * 1e-3; };

  // Instrumented operations alternate with plain ones on the same input:
  // their ratio is the cost of the harness's own spans and decorators.
  std::vector<double> instrumented_ms;
  std::vector<double> plain_ms;
  std::vector<double> untraced_ms;
  SetupTimer setup(o);
  for (int pair = 0; pair < 2 || elapsed_s() < 0.5 * o.seconds; ++pair) {
    setup.time();
    const Instruments ins{&spans, next_op++, &layers};
    const Batch a = w.batch(&ins);
    const Batch b = w.batch(nullptr);
    absorb(report, a);
    absorb(report, b);
    instrumented_ms.insert(instrumented_ms.end(), a.op_ms.begin(), a.op_ms.end());
    plain_ms.insert(plain_ms.end(), b.op_ms.begin(), b.op_ms.end());
    if (const std::optional<double> ms = w.untraced_run_ms()) {
      untraced_ms.push_back(*ms);
    }
  }

  // paper909's operations do not record. Its traced run also times the
  // write path (recorder, tracing, serialization) on day909_traced's
  // operation with the same seed, so that those layers are measured on a
  // workload that BENCHMARK.json lists.
  std::unique_ptr<Day909Traced> day;
  if (o.workload == "paper909") {
    day = std::make_unique<Day909Traced>(o.seed);
    (void)day->setup();
  }

  // Controller probe and layer replays on the workload's own input.
  std::vector<double> step_us, topo_us, thermal_us, self_per_tick, build_us;
  std::vector<double> ups_available_us, fleet_us, strategy_us_per_call;
  std::size_t ticks = 0;
  std::size_t strategy_calls = 0;
  const double probe_share = day ? 0.7 : 0.9;
  for (int rep = 0;
       rep < 1 || (rep < kMaxProbes && elapsed_s() < probe_share * o.seconds);
       ++rep) {
    const std::uint64_t op = next_op++;
    // Per-tick spans only for the first probe: later ones time the same work.
    Spans* probe_spans = rep == 0 ? &spans : nullptr;
    const ScopedSpan probe_span(&spans, "probe", op, Spans::kNone);
    const ProbeRun probe = run_controller_probe(
        w.config(), w.trace(), probe_spans, op, probe_span.id());
    ticks = probe.ticks;
    strategy_calls = probe.strategy_calls;
    step_us.insert(step_us.end(), probe.step_us.begin(), probe.step_us.end());
    self_per_tick.push_back((probe.run_until_us - sum(probe.step_us)) /
                            static_cast<double>(probe.ticks));
    strategy_us_per_call.push_back(
        probe.strategy_calls > 0
            ? probe.strategy_us / static_cast<double>(probe.strategy_calls)
            : 0.0);
    TopologyReplay topo;
    {
      const ScopedSpan s(&spans, "topology.replay", op, probe_span.id());
      topo = replay_topology(w.config(), probe.inputs);
    }
    topo_us.insert(topo_us.end(), topo.step_us.begin(), topo.step_us.end());
    build_us.push_back(topo.build_us);
    ups_available_us.push_back(topo.ups_available_us);
    {
      const ScopedSpan s(&spans, "thermal.replay", op, probe_span.id());
      const std::vector<double> t = replay_thermal(w.config(), probe.inputs);
      thermal_us.insert(thermal_us.end(), t.begin(), t.end());
    }
    {
      const ScopedSpan s(&spans, "fleet.replay", op, probe_span.id());
      fleet_us.push_back(replay_fleet_us_per_call(w.config(), probe.inputs));
    }
  }

  Workload* writer = &w;
  std::vector<double> write_plain_ms = plain_ms;
  if (day) {
    writer = day.get();
    write_plain_ms.clear();
    LayerTotals day_layers;
    for (int rep = 0; rep < 2 || elapsed_s() < 0.9 * o.seconds; ++rep) {
      const Instruments ins{&spans, next_op++, &day_layers};
      const Batch a = day->batch(&ins);
      const Batch b = day->batch(nullptr);
      absorb(report, a);
      absorb(report, b);
      write_plain_ms.insert(write_plain_ms.end(), b.op_ms.begin(), b.op_ms.end());
      untraced_ms.push_back(*day->untraced_run_ms());
    }
    layers.write = std::move(day_layers.write);
  }
  double recorder_ns = 0.0;
  {
    const ScopedSpan s(&spans, "recorder.replay", next_op++, Spans::kNone);
    recorder_ns = writer->recorder_ns_per_sample();
  }

  const double fleet_per_call = median(fleet_us);
  const double controller_self =
      mean(step_us) - mean(topo_us) - mean(thermal_us) - 2.0 * fleet_per_call;
  // The plain operations are the traced runs without the harness's
  // instruments, so they are what the untraced runs are compared against.
  const double overhead =
      untraced_ms.empty() ? 0.0
                          : median(write_plain_ms) / median(untraced_ms) - 1.0;

  add(report, "engine.ticks", static_cast<double>(ticks), "count");
  add(report, "engine.leap_ratio",
      layers.run_ticks > 0 ? layers.leaped_ticks / layers.run_ticks : 0.0,
      "ratio");
  add(report, "engine.self_us_per_tick", median(self_per_tick), "us");
  add(report, "controller.steps", static_cast<double>(ticks), "count");
  add(report, "controller.step_us_p50", median(step_us), "us");
  add(report, "controller.self_us_per_step", controller_self, "us");
  add(report, "strategy.calls", static_cast<double>(strategy_calls), "count");
  add(report, "strategy.us_per_call", median(strategy_us_per_call), "us");
  add(report, "topology.build_us", median(build_us), "us");
  add(report, "topology.step_us_p50", median(topo_us), "us");
  add(report, "topology.ups_available_us", median(ups_available_us), "us");
  add(report, "thermal.step_us_p50", median(thermal_us), "us");
  add(report, "fleet.operate_us", fleet_per_call, "us");
  add(report, "serving.requests",
      layers.grids > 0 ? layers.serving_requests / layers.grids : 0.0, "count");
  add(report, "serving.tick_us_p50", median(layers.serving_tick_us), "us");
  add(report, "serving.ns_per_request",
      layers.serving_requests > 0
          ? layers.serving_busy_us * 1e3 / layers.serving_requests
          : 0.0,
      "ns");
  add(report, "serving.busy_frac",
      layers.task_us > 0 ? layers.serving_busy_us / layers.task_us : 0.0,
      "ratio");
  add(report, "serving.admit_ratio",
      layers.serving_offered > 0 ? layers.serving_admitted / layers.serving_offered
                                 : 0.0,
      "ratio");
  add(report, "recorder.samples", layers.write.recorder_samples, "count");
  add(report, "recorder.ns_per_sample", recorder_ns, "ns");
  add(report, "recorder.export_ms", median(layers.write.export_ms), "ms");
  add(report, "tracing.events", layers.write.tracing_events, "count");
  add(report, "tracing.decisions", layers.write.tracing_decisions, "count");
  add(report, "tracing.bytes", layers.write.tracing_bytes, "bytes");
  add(report, "tracing.serialize_ms", median(layers.write.serialize_ms), "ms");
  add(report, "tracing.sink_ns_per_event", median(layers.write.sink_ns_per_event),
      "ns");
  add(report, "tracing.overhead_frac", overhead, "ratio");
  add(report, "sweep.tasks", layers.sweep_tasks, "count");
  add(report, "sweep.parallel_eff", median(layers.parallel_eff), "ratio");
  add(report, "sweep.task_wait_ms_p50", median(layers.task_wait_ms), "ms");
  add(report, "setup.trace_gen_ms", setup.trace_gen_ms(), "ms");
  add(report, "bench.span_overhead_frac",
      median(instrumented_ms) / median(plain_ms) - 1.0, "ratio");
  report.op_samples = instrumented_ms.size();

  if (!o.spans_out.empty()) {
    const std::filesystem::path path(o.spans_out);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    spans.write_jsonl(out);
    if (!out) throw std::runtime_error("cannot write spans to " + o.spans_out);
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper909", "day909_traced",
                                                 "slo_sweep"};
  return names;
}

Report run_workload(const Options& options) {
  std::unique_ptr<Workload> w = make_workload(options.workload, options.seed);
  (void)w->setup();
  Report report;
  // Warm-up: caches and the heap settle; the first run's digests become
  // the reference every later repeat must reproduce.
  const auto warm = Clock::now();
  do {
    absorb(report, w->batch(nullptr));
  } while (ms_since(warm) < kWarmupMs);
  if (options.trace) {
    run_traced(*w, options, report);
  } else {
    run_untraced(*w, options, report);
  }
  report.sim_digest = w->digest();
  return report;
}

void print_report(std::ostream& out, const Report& report) {
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  out.precision(17);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << "metric " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    json << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  out << "metric failed_frac " << failed_frac << " ratio\n";
  out << "samples op " << report.op_samples << '\n';
  for (const std::string& f : report.failures) out << "failure " << f << '\n';
  out << "sim_digest " << report.sim_digest << '\n';
  out << json.str() << '\n';
}

TopologyReplayCheck topology_replay_check(const std::string& workload,
                                          std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  (void)w->setup();
  core::DataCenter dc(w->config());
  core::GreedyStrategy greedy;
  core::RunOptions opts;
  opts.record = true;
  const core::RunResult recorded = dc.run(w->trace(), &greedy, opts);
  const ProbeRun probe = run_controller_probe(w->config(), w->trace(),
                                              nullptr, 0, Spans::kNone);
  const TopologyReplay replay = replay_topology(w->config(), probe.inputs);
  TopologyReplayCheck check;
  for (double w_load : replay.dc_load_w) {
    check.replayed_mw.push_back(Power::watts(w_load).mw());
  }
  for (const Sample& s : recorded.recorder.series("dc_load_mw").samples()) {
    check.recorded_mw.push_back(s.value);
  }
  return check;
}

}  // namespace perfbench
