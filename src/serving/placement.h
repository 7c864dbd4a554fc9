// Pluggable request-placement policies over the serving layer's servers.
//
// Mirrors the job-queue + pluggable-scheduler shape of geedo0's
// miniproject3 (ROADMAP exemplar): the serving layer asks the policy which
// server receives each admitted request, given every server's queue backlog
// and a thermal proxy. Three policies:
//   round_robin - rotate through the servers;
//   jsq         - join the shortest queue (backlog + requests already
//                 placed this period), ties to the lowest index;
//   thermal     - coolest server first (the exemplar's
//                 LowTemperatureFirstSchedulingAlgorithm, reproduced as a
//                 sprint-placement strategy), queue length as tiebreak.
//
// Policies are deterministic pure functions of the server view plus their
// own cursor state, so placement never perturbs the sweep bit-identity
// contract.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace dcs::serving {

/// What a policy may observe about one server when placing a request.
struct ServerLoad {
  /// Requests queued at the server (fluid backlog), in requests.
  double backlog = 0.0;
  /// Thermal proxy in [0, ~2]: utilization smoothed over heat_tau_s.
  double heat = 0.0;
  /// Requests already placed on this server during the current period.
  std::size_t assigned = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Index of the server that receives the next request. `servers` is
  /// never empty.
  [[nodiscard]] virtual std::size_t pick(
      const std::vector<ServerLoad>& servers) = 0;

  /// Places `n` requests: the same servers, in the same order, as `n`
  /// pick() calls that each add one to the chosen server's `assigned` and
  /// `per_server` entry (`per_server.size() == servers.size()`). The
  /// default is that loop; a policy whose choices do not read the loads
  /// may settle the batch in closed form.
  virtual void place(std::size_t n, std::vector<ServerLoad>& servers,
                     std::vector<std::size_t>& per_server);

  virtual void reset() {}

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

class RoundRobinPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::size_t pick(
      const std::vector<ServerLoad>& servers) override;
  /// n / S requests per server, plus one for the n % S servers from the
  /// cursor on.
  void place(std::size_t n, std::vector<ServerLoad>& servers,
             std::vector<std::size_t>& per_server) override;
  void reset() override { cursor_ = 0; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "round_robin";
  }

 private:
  std::size_t cursor_ = 0;
};

class JoinShortestQueuePlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::size_t pick(
      const std::vector<ServerLoad>& servers) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "jsq";
  }
};

class ThermalAwarePlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::size_t pick(
      const std::vector<ServerLoad>& servers) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "thermal";
  }
};

/// Factory over the bench `placement=` knob: "round_robin" | "jsq" |
/// "thermal". Aborts on an unknown name.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(
    std::string_view name);

}  // namespace dcs::serving
