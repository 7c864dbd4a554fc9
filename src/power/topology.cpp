#include "power/topology.h"

#include <cstring>

#include "util/check.h"
#include "util/repeated_sum.h"

namespace dcs::power {

PowerTopology::PowerTopology(const Params& params)
    : pdu_count_(params.pdu_count),
      rep_("pdu0", params.pdu),
      dc_breaker_("dc/cb", params.dc_breaker) {
  DCS_REQUIRE(params.pdu_count > 0, "need at least one PDU");
}

// Copying keeps the source's build and refresh state: an unbuilt source
// copies as one representative, and a built one copies its slots as they
// are (stale slots are refreshed on the copy's first read, as on the
// source's).
PowerTopology::PowerTopology(const PowerTopology& other)
    : pdu_count_(other.pdu_count_),
      rep_(other.rep_),
      pdus_(other.pdus_),
      breaker_states_(other.pdus_.size()),
      battery_states_(other.pdus_.size()),
      dc_breaker_(other.dc_breaker_),
      uniform_(other.uniform_),
      materialized_(other.materialized_),
      grid_sum_(other.grid_sum_),
      ups_sum_(other.ups_sum_),
      avail_sum_(other.avail_sum_),
      capacity_sum_(other.capacity_sum_) {
  // The copied Pdus own copies of the source's slot values; bind them into
  // this topology's pools.
  rebind_states();
}

PowerTopology& PowerTopology::operator=(const PowerTopology& other) {
  if (this != &other) *this = PowerTopology(other);
  return *this;
}

PowerTopology::PowerTopology(PowerTopology&& other) noexcept
    : pdu_count_(other.pdu_count_),
      rep_(std::move(other.rep_)),
      pdus_(std::move(other.pdus_)),
      breaker_states_(std::move(other.breaker_states_)),
      battery_states_(std::move(other.battery_states_)),
      dc_breaker_(std::move(other.dc_breaker_)),
      uniform_(other.uniform_),
      materialized_(other.materialized_),
      grid_sum_(other.grid_sum_),
      ups_sum_(other.ups_sum_),
      avail_sum_(other.avail_sum_),
      capacity_sum_(other.capacity_sum_) {
  // Vector moves steal the heap buffers, so the per-PDU views still point at
  // valid slots; rebinding keeps the invariant explicit regardless.
  rebind_states();
}

PowerTopology& PowerTopology::operator=(PowerTopology&& other) noexcept {
  if (this != &other) {
    pdu_count_ = other.pdu_count_;
    rep_ = std::move(other.rep_);
    pdus_ = std::move(other.pdus_);
    breaker_states_ = std::move(other.breaker_states_);
    battery_states_ = std::move(other.battery_states_);
    dc_breaker_ = std::move(other.dc_breaker_);
    uniform_ = other.uniform_;
    materialized_ = other.materialized_;
    grid_sum_ = other.grid_sum_;
    ups_sum_ = other.ups_sum_;
    avail_sum_ = other.avail_sum_;
    capacity_sum_ = other.capacity_sum_;
    rebind_states();
  }
  return *this;
}

void PowerTopology::rebind_states() const noexcept {
  for (std::size_t i = 0; i < pdus_.size(); ++i) {
    pdus_[i].bind_states(&breaker_states_[i], &battery_states_[i]);
  }
}

void PowerTopology::materialize() const {
  if (materialized_) return;
  if (pdus_.empty()) {
    pdus_.reserve(pdu_count_);
    for (std::size_t i = 0; i < pdu_count_; ++i) {
      pdus_.emplace_back("pdu" + std::to_string(i), rep_.params());
    }
    breaker_states_.resize(pdu_count_);
    battery_states_.resize(pdu_count_);
    rebind_states();
  }
  for (Pdu& p : pdus_) p.copy_dynamic_state_from(rep_);
  materialized_ = true;
}

std::vector<Pdu>& PowerTopology::pdus() {
  materialize();
  uniform_ = false;
  return pdus_;
}

const std::vector<Pdu>& PowerTopology::pdus() const {
  materialize();
  return pdus_;
}

const Pdu& PowerTopology::pdu(std::size_t i) const {
  if (uniform_ && i == 0) return rep_;
  materialize();
  return pdus_[i];
}

double PowerTopology::uniform_sum(SumMemo& memo, double value) const {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  if (!memo.valid || memo.value_bits != bits) {
    memo.value_bits = bits;
    memo.sum = repeated_sum(value, pdu_count_);
    memo.valid = true;
  }
  return memo.sum;
}

Flows PowerTopology::step_uniform(Power server_power_per_pdu,
                                  Power ups_request_per_pdu,
                                  Power cooling_power, Duration dt) {
  if (uniform_) {
    rep_.step(server_power_per_pdu, ups_request_per_pdu, dt);
    materialized_ = false;
    return finish_step_uniform(cooling_power, dt);
  }
  for (Pdu& p : pdus_) p.step(server_power_per_pdu, ups_request_per_pdu, dt);
  return finish_step(cooling_power, dt);
}

Flows PowerTopology::step(const std::vector<Power>& server_power,
                          const std::vector<Power>& ups_request,
                          Power cooling_power, Duration dt) {
  DCS_REQUIRE(server_power.size() == pdu_count_, "one server power per PDU");
  DCS_REQUIRE(ups_request.size() == pdu_count_, "one ups request per PDU");
  materialize();
  uniform_ = false;
  for (std::size_t i = 0; i < pdu_count_; ++i) {
    pdus_[i].step(server_power[i], ups_request[i], dt);
  }
  return finish_step(cooling_power, dt);
}

Flows PowerTopology::recharge_uniform(Power server_power_per_pdu,
                                      Power recharge_per_pdu,
                                      Power cooling_power, Duration dt) {
  if (uniform_) {
    rep_.recharge_step(server_power_per_pdu, recharge_per_pdu, dt);
    materialized_ = false;
    return finish_step_uniform(cooling_power, dt);
  }
  for (Pdu& p : pdus_) p.recharge_step(server_power_per_pdu, recharge_per_pdu, dt);
  return finish_step(cooling_power, dt);
}

Flows PowerTopology::finish_step(Power cooling_power, Duration dt) {
  DCS_REQUIRE(cooling_power >= Power::zero(), "cooling power must be non-negative");
  Flows flows{};
  for (const Pdu& p : pdus_) {
    flows.pdu_grid_total += p.last_grid_load();
    flows.ups_total += p.last_ups_power();
    flows.any_pdu_tripped = flows.any_pdu_tripped || p.breaker().tripped();
  }
  flows.cooling = cooling_power;
  flows.dc_load = flows.pdu_grid_total + cooling_power;
  dc_breaker_.apply_load(flows.dc_load, dt);
  flows.dc_tripped = dc_breaker_.tripped();
  return flows;
}

Flows PowerTopology::finish_step_uniform(Power cooling_power, Duration dt) {
  DCS_REQUIRE(cooling_power >= Power::zero(), "cooling power must be non-negative");
  Flows flows{};
  flows.pdu_grid_total = Power::watts(uniform_sum(grid_sum_, rep_.last_grid_load().w()));
  flows.ups_total = Power::watts(uniform_sum(ups_sum_, rep_.last_ups_power().w()));
  flows.any_pdu_tripped = rep_.breaker().tripped();
  flows.cooling = cooling_power;
  flows.dc_load = flows.pdu_grid_total + cooling_power;
  dc_breaker_.apply_load(flows.dc_load, dt);
  flows.dc_tripped = dc_breaker_.tripped();
  return flows;
}

Energy PowerTopology::ups_available() const {
  if (uniform_) {
    return Energy::joules(uniform_sum(avail_sum_, rep_.ups().available().j()));
  }
  Energy total = Energy::zero();
  for (const Pdu& p : pdus_) total += p.ups().available();
  return total;
}

Energy PowerTopology::ups_capacity() const {
  // Capacity ignores injected fade, and all banks are built from identical
  // params, so this sum is constant for the lifetime of the topology.
  return Energy::joules(uniform_sum(capacity_sum_, rep_.ups().capacity().j()));
}

double PowerTopology::max_pdu_breaker_heat() const {
  if (uniform_) return rep_.breaker().thermal_state();
  double max_heat = 0.0;
  for (const Pdu& p : pdus_) {
    max_heat = std::max(max_heat, p.breaker().thermal_state());
  }
  return max_heat;
}

void PowerTopology::set_fault_all(double breaker_rating_factor,
                                  double breaker_trip_bias,
                                  double ups_availability,
                                  double ups_capacity_factor) {
  if (uniform_) {
    rep_.breaker().set_fault(breaker_rating_factor, breaker_trip_bias);
    rep_.ups().set_fault(ups_availability, ups_capacity_factor);
    materialized_ = false;
    return;
  }
  for (Pdu& p : pdus_) {
    p.breaker().set_fault(breaker_rating_factor, breaker_trip_bias);
    p.ups().set_fault(ups_availability, ups_capacity_factor);
  }
}

void PowerTopology::reset_breakers() {
  dc_breaker_.reset();
  if (uniform_) {
    rep_.breaker().reset();
    materialized_ = false;
    return;
  }
  for (Pdu& p : pdus_) p.breaker().reset();
}

}  // namespace dcs::power
