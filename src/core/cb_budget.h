// Parent/child circuit-breaker budget coordination (paper Section V-B):
// "if the power overload of a parent CB has already reached its upper
// bound, then a power increase on any of its child CBs demands a power
// decrease on some other child CBs, in order to keep their sum unchanged.
// Therefore, we never trip a CB at the substation level by overloading the
// CBs at the PDU level."
//
// allocate_cb_budget() grants each child the most it asked for, subject to
// its own breaker bound and to the parent's aggregate bound, using max-min
// fairness (a water level) so no child is starved in favour of a hungrier
// sibling. The uniform-fleet controller gets this for free (all children
// identical); zoned runs (DataCenter::run over ZoneSpecs) call it every
// control period with one child per zone.
#pragma once

#include <vector>

#include "util/units.h"

namespace dcs::core {

struct CbBudgetRequest {
  Power demand;       ///< power the child's servers want to draw
  Power child_allow;  ///< the child breaker governor's current bound
};

/// Grants per child. Invariants (verified by tests):
///  * grant_i <= min(demand_i, child_allow_i)
///  * sum(grants) <= parent_allow
///  * max-min fair: a child below the water level receives its full demand.
[[nodiscard]] std::vector<Power> allocate_cb_budget(
    Power parent_allow, const std::vector<CbBudgetRequest>& children);

}  // namespace dcs::core
