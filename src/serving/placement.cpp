#include "serving/placement.h"

#include "util/check.h"

namespace dcs::serving {
namespace {

double queue_length(const ServerLoad& server) noexcept {
  return server.backlog + static_cast<double>(server.assigned);
}

}  // namespace

void PlacementPolicy::place(std::size_t n, std::vector<ServerLoad>& servers,
                            std::vector<std::size_t>& per_server) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t server = pick(servers);
    ++servers[server].assigned;
    ++per_server[server];
  }
}

std::size_t RoundRobinPlacement::pick(const std::vector<ServerLoad>& servers) {
  const std::size_t index = cursor_ % servers.size();
  cursor_ = (cursor_ + 1) % servers.size();
  return index;
}

void RoundRobinPlacement::place(std::size_t n, std::vector<ServerLoad>& servers,
                                std::vector<std::size_t>& per_server) {
  if (n == 0) return;
  const std::size_t size = servers.size();
  const std::size_t start = cursor_ % size;
  const std::size_t rounds = n / size;
  const std::size_t extra = n % size;
  for (std::size_t s = 0; s < size; ++s) {
    // Offset of server s after the cursor, in rotation order.
    const std::size_t offset = s >= start ? s - start : s + size - start;
    const std::size_t count = rounds + (offset < extra ? 1 : 0);
    servers[s].assigned += count;
    per_server[s] += count;
  }
  cursor_ = (start + extra) % size;
}

std::size_t JoinShortestQueuePlacement::pick(
    const std::vector<ServerLoad>& servers) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < servers.size(); ++i) {
    if (queue_length(servers[i]) < queue_length(servers[best])) best = i;
  }
  return best;
}

std::size_t ThermalAwarePlacement::pick(
    const std::vector<ServerLoad>& servers) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < servers.size(); ++i) {
    if (servers[i].heat < servers[best].heat ||
        (servers[i].heat == servers[best].heat &&
         queue_length(servers[i]) < queue_length(servers[best]))) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<PlacementPolicy> make_placement(std::string_view name) {
  if (name == "round_robin") return std::make_unique<RoundRobinPlacement>();
  if (name == "jsq") return std::make_unique<JoinShortestQueuePlacement>();
  if (name == "thermal") return std::make_unique<ThermalAwarePlacement>();
  DCS_REQUIRE(false, "unknown placement (want round_robin, jsq or thermal)");
  return nullptr;
}

}  // namespace dcs::serving
