// Two-level data-center power topology: an on-site substation breaker
// (DC level) feeding identical PDU groups, with the cooling plant hanging
// off the DC level (paper Fig. 4).
//
// Uniform mode: the paper's fleet is homogeneous, so while every PDU sees
// the same load the topology holds one *representative* Pdu and advances
// only it (`step_uniform`, `recharge_uniform`, `set_fault_all`,
// `reset_breakers`). Fleet totals over n identical PDUs come from
// `repeated_sum` (util/repeated_sum.h), which returns the exact bits of the
// per-PDU walk's sequential loop in O(log n) steps, memoized per summand.
// A uniform step's cost therefore grows with log n, not with n.
//
// Lazy pools: the per-PDU Pdu objects and the two contiguous
// structure-of-arrays pools holding their breaker/bank state (each Pdu's
// CircuitBreaker/Battery is a thin view bound into its slot) are built on
// the first read that needs them, `pdu(i)` for i != 0 or `pdus()`, and
// their slots are refreshed from the representative whenever it has moved
// on since. A run that never asks for per-PDU state never builds them, and
// copying or moving such a topology stays as cheap. The skewed-load path
// (`step` with per-PDU vectors, or mutation via the non-const `pdus()`
// accessor) permanently drops the topology out of uniform mode and every
// kernel then walks the full pools.
//
// Bit-identity contract: every fast path reproduces the exact floating-point
// results of the plain per-PDU walk, so a uniform run is byte-identical to a
// materialized one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "power/circuit_breaker.h"
#include "power/pdu.h"
#include "util/units.h"

namespace dcs::power {

/// The power flows of one control step.
struct Flows {
  Power dc_load;            ///< load on the substation (DC-level) breaker
  Power pdu_grid_total;     ///< total grid power into PDUs
  Power ups_total;          ///< total UPS discharge across PDUs
  Power cooling;            ///< cooling plant power at the DC level
  bool dc_tripped = false;  ///< substation breaker tripped this step or earlier
  bool any_pdu_tripped = false;
};

class PowerTopology {
 public:
  struct Params {
    std::size_t pdu_count = 909;
    Pdu::Params pdu;
    CircuitBreaker::Params dc_breaker;
  };

  explicit PowerTopology(const Params& params);

  PowerTopology(const PowerTopology& other);
  PowerTopology& operator=(const PowerTopology& other);
  PowerTopology(PowerTopology&& other) noexcept;
  PowerTopology& operator=(PowerTopology&& other) noexcept;

  /// Advances one step with *uniform* per-PDU server power and UPS request
  /// (the paper's fleet is homogeneous and the workload is spread evenly).
  /// `cooling_power` is applied at the DC level only.
  Flows step_uniform(Power server_power_per_pdu, Power ups_request_per_pdu,
                     Power cooling_power, Duration dt);

  /// Advances one step with per-PDU values (tests exercise skewed loads).
  /// Permanently leaves uniform mode.
  Flows step(const std::vector<Power>& server_power,
             const std::vector<Power>& ups_request, Power cooling_power,
             Duration dt);

  /// Recharge variant of step_uniform: per-PDU banks absorb up to
  /// `recharge_per_pdu` from the grid.
  Flows recharge_uniform(Power server_power_per_pdu, Power recharge_per_pdu,
                         Power cooling_power, Duration dt);

  [[nodiscard]] CircuitBreaker& dc_breaker() noexcept { return dc_breaker_; }
  [[nodiscard]] const CircuitBreaker& dc_breaker() const noexcept { return dc_breaker_; }

  /// Mutable per-PDU access: materializes and permanently leaves uniform
  /// mode (callers may skew individual PDUs). Prefer `pdu(i)` for reads.
  [[nodiscard]] std::vector<Pdu>& pdus();
  /// Read access to the full PDU list; materializes lazily but stays in
  /// uniform mode.
  [[nodiscard]] const std::vector<Pdu>& pdus() const;
  /// Read access to one PDU. `pdu(0)` is always cheap (the representative
  /// while uniform); other indices materialize first. A reference to the
  /// representative stays valid until the topology leaves uniform mode.
  [[nodiscard]] const Pdu& pdu(std::size_t i) const;
  /// True while all PDUs provably share the representative's state.
  [[nodiscard]] bool uniform() const noexcept { return uniform_; }

  [[nodiscard]] std::size_t pdu_count() const noexcept { return pdu_count_; }
  /// All PDUs are built from the same params.
  [[nodiscard]] std::size_t server_count() const noexcept {
    return pdu_count_ * rep_.server_count();
  }

  /// Total UPS energy still available across all PDU banks.
  [[nodiscard]] Energy ups_available() const;
  /// Total UPS energy capacity across all PDU banks.
  [[nodiscard]] Energy ups_capacity() const;
  /// Largest trip fraction across the PDU-level breakers (not the DC one).
  [[nodiscard]] double max_pdu_breaker_heat() const;

  /// Applies fault-injection factors to every PDU breaker and UPS bank
  /// (faults::FaultInjector pushes the merged fault state here each tick).
  /// Uniform topologies fault only the representative.
  void set_fault_all(double breaker_rating_factor, double breaker_trip_bias,
                     double ups_availability, double ups_capacity_factor);

  void reset_breakers();

 private:
  /// Memo for a sequential sum of `pdu_count` identical doubles: recomputes
  /// it with `repeated_sum` when the summand changes and reuses the result
  /// while it doesn't.
  struct SumMemo {
    std::uint64_t value_bits = 0;
    double sum = 0.0;
    bool valid = false;
  };

  void rebind_states() const noexcept;
  /// Builds the pools on first use and brings every slot up to the
  /// representative's state.
  void materialize() const;
  [[nodiscard]] double uniform_sum(SumMemo& memo, double value) const;
  Flows finish_step(Power cooling_power, Duration dt);
  Flows finish_step_uniform(Power cooling_power, Duration dt);

  std::size_t pdu_count_;
  // Authoritative for every PDU while uniform_; stale once the topology
  // leaves uniform mode, after which pdus_ holds each PDU's own state.
  Pdu rep_;
  // The uniform kernels mutate only the representative, so const readers
  // must be able to build and refresh the pools on demand. Empty until the
  // first materialization.
  mutable std::vector<Pdu> pdus_;
  mutable std::vector<CircuitBreaker::State> breaker_states_;
  mutable std::vector<Battery::State> battery_states_;
  CircuitBreaker dc_breaker_;
  bool uniform_ = true;
  // True while every pool slot matches the representative (or, outside
  // uniform mode, always).
  mutable bool materialized_ = false;
  mutable SumMemo grid_sum_;
  mutable SumMemo ups_sum_;
  mutable SumMemo avail_sum_;
  mutable SumMemo capacity_sum_;
};

}  // namespace dcs::power
