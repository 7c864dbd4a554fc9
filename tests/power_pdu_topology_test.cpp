#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "power/pdu.h"
#include "power/topology.h"
#include "util/rng.h"

namespace dcs::power {
namespace {

Pdu::Params pdu_params() {
  Pdu::Params p;
  p.server_count = 200;
  // Paper: 55 W x 200 x 1.25 = 13.75 kW rated.
  p.breaker.rated = Power::kilowatts(13.75);
  return p;
}

TEST(Pdu, AggregatesBatteryBank) {
  const Pdu pdu("p", pdu_params());
  // 200 x 5.5 Wh = 1.1 kWh bank.
  EXPECT_NEAR(pdu.ups().capacity().kwh(), 1.1, 1e-9);
  EXPECT_NEAR(pdu.ups().max_discharge().kw(), 30.0, 1e-9);  // 200 x 150 W
}

TEST(Pdu, StepWithoutUpsLoadsBreakerFully) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(11), Power::zero(), Duration::seconds(1));
  EXPECT_DOUBLE_EQ(grid.kw(), 11.0);
  EXPECT_DOUBLE_EQ(pdu.last_ups_power().w(), 0.0);
  EXPECT_FALSE(pdu.breaker().tripped());
}

TEST(Pdu, UpsReducesGridLoad) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(20), Power::kilowatts(8),
                              Duration::seconds(1));
  EXPECT_NEAR(grid.kw(), 12.0, 1e-9);
  EXPECT_NEAR(pdu.last_ups_power().kw(), 8.0, 1e-9);
}

TEST(Pdu, UpsRequestCappedAtServerPower) {
  Pdu pdu("p", pdu_params());
  const Power grid = pdu.step(Power::kilowatts(5), Power::kilowatts(30),
                              Duration::seconds(1));
  EXPECT_DOUBLE_EQ(grid.w(), 0.0);
  EXPECT_NEAR(pdu.last_ups_power().kw(), 5.0, 1e-9);
}

TEST(Pdu, RechargeAddsGridLoad) {
  Pdu pdu("p", pdu_params());
  // Drain a bit first so the bank accepts charge.
  pdu.step(Power::kilowatts(20), Power::kilowatts(10), Duration::seconds(60));
  const Power grid = pdu.recharge_step(Power::kilowatts(10), Power::kilowatts(0.5),
                                       Duration::seconds(1));
  EXPECT_GT(grid.kw(), 10.0);
  EXPECT_DOUBLE_EQ(pdu.last_ups_power().w(), 0.0);
}

TEST(Pdu, RequiresServers) {
  Pdu::Params p = pdu_params();
  p.server_count = 0;
  EXPECT_THROW((void)Pdu("p", p), std::invalid_argument);
}

PowerTopology::Params topo_params(std::size_t pdus = 4) {
  PowerTopology::Params p;
  p.pdu_count = pdus;
  p.pdu = pdu_params();
  p.dc_breaker.rated = Power::kilowatts(13.75 * static_cast<double>(pdus) * 1.2);
  return p;
}

TEST(PowerTopology, CountsServers) {
  const PowerTopology topo(topo_params(4));
  EXPECT_EQ(topo.pdu_count(), 4u);
  EXPECT_EQ(topo.server_count(), 800u);
}

TEST(PowerTopology, UniformStepAggregatesFlows) {
  PowerTopology topo(topo_params(4));
  const Flows flows = topo.step_uniform(Power::kilowatts(10), Power::zero(),
                                        Power::kilowatts(5), Duration::seconds(1));
  EXPECT_NEAR(flows.pdu_grid_total.kw(), 40.0, 1e-9);
  EXPECT_NEAR(flows.dc_load.kw(), 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(flows.ups_total.w(), 0.0);
  EXPECT_FALSE(flows.dc_tripped);
  EXPECT_FALSE(flows.any_pdu_tripped);
}

TEST(PowerTopology, PerPduStepValidatesSizes) {
  PowerTopology topo(topo_params(2));
  EXPECT_THROW((void)topo.step({Power::kilowatts(1)}, {Power::zero(), Power::zero()},
                         Power::zero(), Duration::seconds(1)),
               std::invalid_argument);
}

TEST(PowerTopology, SkewedLoadTripsOnlyThatPdu) {
  PowerTopology topo(topo_params(2));
  // PDU 0 at 60 % overload trips after ~60 s; PDU 1 stays at rated.
  for (int i = 0; i < 70; ++i) {
    topo.step({Power::kilowatts(22), Power::kilowatts(10)},
              {Power::zero(), Power::zero()}, Power::zero(), Duration::seconds(1));
  }
  EXPECT_TRUE(topo.pdus()[0].breaker().tripped());
  EXPECT_FALSE(topo.pdus()[1].breaker().tripped());
}

TEST(PowerTopology, UpsDischargeRelievesDcBreaker) {
  PowerTopology topo(topo_params(2));
  const Flows without = topo.step_uniform(Power::kilowatts(20), Power::zero(),
                                          Power::zero(), Duration::seconds(1));
  PowerTopology topo2(topo_params(2));
  const Flows with = topo2.step_uniform(Power::kilowatts(20), Power::kilowatts(8),
                                        Power::zero(), Duration::seconds(1));
  EXPECT_GT(without.dc_load, with.dc_load);
  EXPECT_NEAR((without.dc_load - with.dc_load).kw(), 16.0, 1e-9);
}

TEST(PowerTopology, UpsEnergyAccounting) {
  PowerTopology topo(topo_params(2));
  const Energy cap = topo.ups_capacity();
  EXPECT_NEAR(cap.kwh(), 2.2, 1e-9);
  topo.step_uniform(Power::kilowatts(20), Power::kilowatts(10), Power::zero(),
                    Duration::seconds(60));
  EXPECT_NEAR((cap - topo.ups_available()).kwh(), 2.0 * 10.0 * 60.0 / 3600.0, 1e-6);
}

TEST(PowerTopology, RechargeUniformDrawsThroughBreakers) {
  PowerTopology topo(topo_params(2));
  topo.step_uniform(Power::kilowatts(20), Power::kilowatts(10), Power::zero(),
                    Duration::seconds(60));
  const Flows flows = topo.recharge_uniform(Power::kilowatts(5), Power::kilowatts(0.5),
                                            Power::kilowatts(2), Duration::seconds(1));
  EXPECT_GT(flows.pdu_grid_total.kw(), 10.0);
  EXPECT_GT(flows.dc_load.kw(), 12.0);
}

TEST(PowerTopology, ResetBreakersRestoresAll) {
  PowerTopology topo(topo_params(2));
  for (int i = 0; i < 70; ++i) {
    topo.step_uniform(Power::kilowatts(22), Power::zero(), Power::zero(),
                      Duration::seconds(1));
  }
  EXPECT_TRUE(topo.pdus()[0].breaker().tripped());
  topo.reset_breakers();
  EXPECT_FALSE(topo.pdus()[0].breaker().tripped());
  EXPECT_FALSE(topo.dc_breaker().tripped());
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

TEST(PowerTopology, UniformRepresentativeMatchesMaterializedWalk) {
  // The uniform fast path updates only the representative PDU; reading any
  // other slot must materialize state that is bit-identical to stepping a
  // de-uniformed topology through the same loads.
  PowerTopology fast(topo_params(4));
  PowerTopology slow(topo_params(4));
  (void)slow.pdus();  // non-const access permanently leaves uniform mode
  EXPECT_TRUE(fast.uniform());
  EXPECT_FALSE(slow.uniform());
  const Power loads[] = {Power::kilowatts(10), Power::kilowatts(18),
                         Power::kilowatts(21), Power::kilowatts(9)};
  for (int round = 0; round < 25; ++round) {
    const Power server = loads[round % 4];
    const Power ups = round % 3 == 0 ? Power::kilowatts(4) : Power::zero();
    const Flows a = fast.step_uniform(server, ups, Power::kilowatts(3),
                                      Duration::seconds(1));
    const Flows b = slow.step_uniform(server, ups, Power::kilowatts(3),
                                      Duration::seconds(1));
    EXPECT_EQ(bits(a.pdu_grid_total.w()), bits(b.pdu_grid_total.w()));
    EXPECT_EQ(bits(a.ups_total.w()), bits(b.ups_total.w()));
    EXPECT_EQ(bits(a.dc_load.w()), bits(b.dc_load.w()));
    EXPECT_EQ(a.any_pdu_tripped, b.any_pdu_tripped);
    EXPECT_EQ(a.dc_tripped, b.dc_tripped);
  }
  EXPECT_TRUE(fast.uniform());
  // Const per-PDU reads materialize without leaving uniform mode, and every
  // slot matches the de-uniformed topology bit for bit.
  for (std::size_t i = 0; i < fast.pdu_count(); ++i) {
    EXPECT_EQ(bits(fast.pdu(i).breaker().thermal_state()),
              bits(slow.pdu(i).breaker().thermal_state()));
    EXPECT_EQ(bits(fast.pdu(i).ups().soc()), bits(slow.pdu(i).ups().soc()));
    EXPECT_EQ(bits(fast.pdu(i).last_grid_load().w()),
              bits(slow.pdu(i).last_grid_load().w()));
  }
  EXPECT_TRUE(fast.uniform());
  EXPECT_EQ(bits(fast.ups_available().j()), bits(slow.ups_available().j()));
  EXPECT_EQ(bits(fast.max_pdu_breaker_heat()),
            bits(slow.max_pdu_breaker_heat()));
}

TEST(PowerTopology, SetFaultAllAppliesToEverySlot) {
  PowerTopology topo(topo_params(3));
  topo.step_uniform(Power::kilowatts(20), Power::kilowatts(5), Power::zero(),
                    Duration::seconds(30));
  topo.set_fault_all(0.8, 0.1, 0.5, 0.9);
  EXPECT_TRUE(topo.uniform());
  for (std::size_t i = 0; i < topo.pdu_count(); ++i) {
    EXPECT_DOUBLE_EQ(topo.pdu(i).breaker().effective_rated().kw(),
                     13.75 * 0.8);
  }
  // Clearing restores the nameplate rating everywhere.
  topo.set_fault_all(1.0, 0.0, 1.0, 1.0);
  for (std::size_t i = 0; i < topo.pdu_count(); ++i) {
    EXPECT_DOUBLE_EQ(topo.pdu(i).breaker().effective_rated().kw(), 13.75);
  }
}

TEST(PowerTopology, CopyPreservesStateAndIndependence) {
  PowerTopology topo(topo_params(2));
  topo.step_uniform(Power::kilowatts(20), Power::kilowatts(8), Power::zero(),
                    Duration::seconds(60));
  PowerTopology copy = topo;  // copy while still uniform/unmaterialized
  EXPECT_EQ(bits(copy.ups_available().j()), bits(topo.ups_available().j()));
  EXPECT_EQ(bits(copy.pdu(1).breaker().thermal_state()),
            bits(topo.pdu(1).breaker().thermal_state()));
  // Further steps on the copy must not alias the original's state.
  copy.step_uniform(Power::kilowatts(22), Power::zero(), Power::zero(),
                    Duration::seconds(60));
  EXPECT_NE(bits(copy.pdu(0).breaker().thermal_state()),
            bits(topo.pdu(0).breaker().thermal_state()));
  // Move keeps the views bound to live state.
  PowerTopology moved = std::move(copy);
  EXPECT_GT(moved.pdu(0).breaker().thermal_state(), 0.0);
  moved.step_uniform(Power::kilowatts(10), Power::zero(), Power::zero(),
                     Duration::seconds(1));
}

// Paper-scale uniform equivalence: 909 PDUs and non-round per-tick loads, so
// the fleet totals round on many ticks (whole-kW loads over 4 PDUs
// never do). Covers UPS discharge, a recharge stretch and a set_fault_all
// edge, and compares against a de-uniformed topology bit for bit.
TEST(PowerTopology, UniformMatchesMaterializedWalkAtPaperScale) {
  PowerTopology fast(topo_params(909));
  PowerTopology slow(topo_params(909));
  (void)slow.pdus();
  ASSERT_FALSE(slow.uniform());
  Rng rng(909);
  const Duration dt = Duration::seconds(1);
  int rounded_ticks = 0;
  for (int tick = 0; tick < 240; ++tick) {
    if (tick == 60) {
      fast.set_fault_all(0.93, 0.04, 0.7, 0.85);
      slow.set_fault_all(0.93, 0.04, 0.7, 0.85);
    }
    if (tick == 150) {
      fast.set_fault_all(1.0, 0.0, 1.0, 1.0);
      slow.set_fault_all(1.0, 0.0, 1.0, 1.0);
    }
    const Power server = Power::watts(rng.uniform(7000.0, 16500.0));
    const Power cooling = Power::watts(rng.uniform(1.0e5, 1.2e6));
    const bool recharge = tick >= 120 && tick < 180;
    const Power request =
        recharge ? Power::watts(rng.uniform(50.0, 900.0))
                 : (tick % 3 == 0 ? Power::zero()
                                  : Power::watts(rng.uniform(0.0, 6000.0)));
    const Flows a = recharge ? fast.recharge_uniform(server, request, cooling, dt)
                             : fast.step_uniform(server, request, cooling, dt);
    const Flows b = recharge ? slow.recharge_uniform(server, request, cooling, dt)
                             : slow.step_uniform(server, request, cooling, dt);
    ASSERT_EQ(bits(a.pdu_grid_total.w()), bits(b.pdu_grid_total.w())) << tick;
    ASSERT_EQ(bits(a.ups_total.w()), bits(b.ups_total.w())) << tick;
    ASSERT_EQ(bits(a.dc_load.w()), bits(b.dc_load.w())) << tick;
    ASSERT_EQ(a.any_pdu_tripped, b.any_pdu_tripped) << tick;
    ASSERT_EQ(a.dc_tripped, b.dc_tripped) << tick;
    ASSERT_EQ(bits(fast.ups_available().j()), bits(slow.ups_available().j())) << tick;
    ASSERT_EQ(bits(fast.ups_capacity().j()), bits(slow.ups_capacity().j())) << tick;
    const double product = fast.pdu(0).last_grid_load().w() * 909.0;
    if (bits(a.pdu_grid_total.w()) != bits(product)) ++rounded_ticks;
  }
  EXPECT_TRUE(fast.uniform());
  // The sequential sum must have drifted from the product on many ticks, or
  // this test would not be exercising the rounding it claims to.
  EXPECT_GT(rounded_ticks, 100);
}

TEST(PowerTopology, CopyAndMoveOfUnbuiltTopologyStayIndependent) {
  const Duration dt = Duration::seconds(1);
  PowerTopology topo(topo_params(16));
  PowerTopology ref(topo_params(16));
  for (PowerTopology* t : {&topo, &ref}) {
    (void)t->step_uniform(Power::kilowatts(12.5), Power::kilowatts(3.25),
                          Power::kilowatts(7), dt);
  }
  PowerTopology copy = topo;
  PowerTopology staged = topo;
  PowerTopology moved = std::move(staged);
  PowerTopology assigned(topo_params(3));
  assigned = topo;
  PowerTopology move_assigned(topo_params(3));
  staged = topo;
  move_assigned = std::move(staged);
  // Each stepped differently; none may disturb the source or each other.
  (void)copy.step_uniform(Power::kilowatts(16), Power::zero(), Power::zero(), dt);
  (void)moved.step_uniform(Power::kilowatts(14), Power::kilowatts(9),
                           Power::zero(), dt);
  (void)assigned.recharge_uniform(Power::kilowatts(8), Power::kilowatts(0.4),
                                  Power::zero(), dt);
  (void)move_assigned.step_uniform(Power::kilowatts(9), Power::zero(),
                                   Power::zero(), dt);
  (void)topo.step_uniform(Power::kilowatts(11), Power::kilowatts(1),
                          Power::kilowatts(7), dt);
  (void)ref.step_uniform(Power::kilowatts(11), Power::kilowatts(1),
                         Power::kilowatts(7), dt);
  EXPECT_EQ(assigned.pdu_count(), 16u);
  EXPECT_EQ(move_assigned.pdu_count(), 16u);
  EXPECT_EQ(bits(topo.ups_available().j()), bits(ref.ups_available().j()));
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(bits(topo.pdu(i).breaker().thermal_state()),
              bits(ref.pdu(i).breaker().thermal_state()));
    EXPECT_EQ(bits(topo.pdu(i).ups().soc()), bits(ref.pdu(i).ups().soc()));
  }
  // Breaker heat and bank energy together tell the five apart.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> states;
  for (const PowerTopology* t : {&topo, &copy, &moved, &assigned, &move_assigned}) {
    states.emplace_back(bits(t->pdu(0).breaker().thermal_state()),
                        bits(t->pdu(0).ups().stored().j()));
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      EXPECT_NE(states[i], states[j]) << i << " vs " << j;
    }
  }
  // Every slot of each copy follows that copy's own representative.
  for (const PowerTopology* t : {&copy, &moved, &assigned, &move_assigned}) {
    for (std::size_t i = 1; i < 16; ++i) {
      EXPECT_EQ(bits(t->pdu(i).breaker().thermal_state()),
                bits(t->pdu(0).breaker().thermal_state()));
      EXPECT_EQ(bits(t->pdu(i).ups().soc()), bits(t->pdu(0).ups().soc()));
    }
  }
}

TEST(PowerTopology, LateMaterializationMatchesDeUniformedWalk) {
  const Duration dt = Duration::seconds(1);
  PowerTopology fast(topo_params(32));
  PowerTopology slow(topo_params(32));
  (void)slow.pdus();
  const auto advance = [&](int ticks, double base_w) {
    for (int k = 0; k < ticks; ++k) {
      const Power server = Power::watts(base_w + 37.3 * k);
      const Power ups = Power::watts(1234.5 + 11.1 * k);
      (void)fast.step_uniform(server, ups, Power::kilowatts(40), dt);
      (void)slow.step_uniform(server, ups, Power::kilowatts(40), dt);
    }
  };
  const PowerTopology& fast_view = fast;  // const reads keep uniform mode
  const auto expect_slots_match = [&] {
    ASSERT_EQ(fast_view.pdus().size(), slow.pdus().size());
    for (std::size_t i = 0; i < fast.pdu_count(); ++i) {
      const Pdu& a = fast_view.pdus()[i];
      const Pdu& b = slow.pdus()[i];
      EXPECT_EQ(a.name(), b.name());
      EXPECT_EQ(a.breaker().name(), b.breaker().name());
      EXPECT_EQ(a.ups().name(), b.ups().name());
      EXPECT_EQ(bits(a.breaker().thermal_state()), bits(b.breaker().thermal_state()));
      EXPECT_EQ(a.breaker().tripped(), b.breaker().tripped());
      EXPECT_EQ(bits(a.breaker().effective_rated().w()),
                bits(b.breaker().effective_rated().w()));
      EXPECT_EQ(bits(a.ups().stored().j()), bits(b.ups().stored().j()));
      EXPECT_EQ(bits(a.ups().max_discharge().w()), bits(b.ups().max_discharge().w()));
      EXPECT_EQ(bits(a.ups().total_discharged().j()),
                bits(b.ups().total_discharged().j()));
      EXPECT_EQ(bits(a.last_grid_load().w()), bits(b.last_grid_load().w()));
      EXPECT_EQ(bits(a.last_ups_power().w()), bits(b.last_ups_power().w()));
    }
  };
  advance(50, 14100.25);
  fast.set_fault_all(0.9, 0.05, 0.6, 0.8);
  slow.set_fault_all(0.9, 0.05, 0.6, 0.8);
  advance(7, 9000.5);
  expect_slots_match();  // first materialization builds the pools
  EXPECT_EQ(fast.pdu(31).name(), "pdu31");
  EXPECT_TRUE(fast.uniform());
  advance(20, 12000.75);  // built pools go stale, then refresh on read
  expect_slots_match();
  EXPECT_TRUE(fast.uniform());
}

TEST(PowerTopology, RequiresAtLeastOnePdu) {
  PowerTopology::Params p = topo_params();
  p.pdu_count = 0;
  EXPECT_THROW((void)PowerTopology{p}, std::invalid_argument);
}

}  // namespace
}  // namespace dcs::power
