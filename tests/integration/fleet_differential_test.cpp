// Fleet differential tests: the correctness anchor of the multi-tenant
// subsystem (api/fleet.hpp).
//
// The fleet's design claim is *standalone equivalence*: tenant t of a
// FleetSystem built with seed S replays, message for message, the
// standalone System built with seed S + t -- whatever the other tenants
// do. These tests pin that claim at full trace granularity:
//
//   1. fleet(1) is bit-identical to the plain single-system build
//      (same sends, same deliveries, same grants, same fault response);
//   2. every tenant of fleet(R), R in {3, 16}, replays its standalone
//      twin, including through a transient fault injected into ONE
//      tenant only -- the faulted tenant tracks its (equally faulted)
//      twin and the others never notice;
//   3. the worker-thread count changes nothing per tenant (lane-major
//      serial vs threaded windows over the same tenant-block lanes), and
//      each tenant still matches its standalone twin's counters;
//   4. lane-major execution (the lanes one after another) equals the
//      merged-serial loop a blocking observer forces: stabilization
//      results, per-tenant fingerprints and a watched SafetyMonitor --
//      also under a per-tenant admission policy and under chaos bursts
//      whose burst-end epoch cuts run as callbacks.
//
// All phases run to fixed horizons (run_until aligns every lane clock
// exactly at the horizon), so out-of-event actions -- fault injection,
// driver resync -- happen at identical simulated times on both sides.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/fleet.hpp"
#include "proto/messages.hpp"
#include "verify/safety_monitor.hpp"

namespace klex {
namespace {

constexpr std::int32_t kResourceType =
    static_cast<std::int32_t>(proto::TokenType::kResource);

struct TraceEvent {
  sim::SimTime at = 0;
  int kind = 0;  // 0 = send, 1 = deliver
  NodeId node = -1;
  int channel = -1;
  sim::Message msg{};

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Recorder final : public sim::SimObserver {
 public:
  void on_send(sim::SimTime at, sim::NodeId from, int channel,
               const sim::Message& msg) override {
    events.push_back({at, 0, from, channel, msg});
  }
  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override {
    events.push_back({at, 1, to, channel, msg});
  }

  std::vector<TraceEvent> events;
};

void expect_traces_equal(const std::vector<TraceEvent>& fleet_side,
                         const std::vector<TraceEvent>& single_side,
                         const std::string& label) {
  ASSERT_EQ(fleet_side.size(), single_side.size()) << label;
  for (std::size_t i = 0; i < fleet_side.size(); ++i) {
    const TraceEvent& a = fleet_side[i];
    const TraceEvent& b = single_side[i];
    ASSERT_TRUE(a == b) << label << ": first divergence at trace index " << i
                        << " (at " << a.at << " vs " << b.at << ", kind "
                        << a.kind << " vs " << b.kind << ", node " << a.node
                        << " vs " << b.node << ", channel " << a.channel
                        << " vs " << b.channel << ")";
  }
}

/// The fleet trace restricted to one tenant, re-expressed in tenant-local
/// node ids (channel indexes are per-node and need no translation).
std::vector<TraceEvent> tenant_slice(const std::vector<TraceEvent>& all,
                                     const FleetSystem& fleet, int tenant) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : all) {
    if (fleet.tenant_of(event.node) != tenant) continue;
    TraceEvent local = event;
    local.node -= fleet.node_begin(tenant);
    out.push_back(local);
  }
  return out;
}

/// A workload with some heterogeneity so the class-materialization and
/// driver rng streams actually matter: relays, a budgeted class, and a
/// contended base (need can exceed 1).
proto::WorkloadSpec contention_spec() {
  proto::WorkloadSpec spec;
  spec.base.think = proto::Dist::exponential(48);
  spec.base.cs_duration = proto::Dist::exponential(24);
  spec.base.need = proto::Dist::uniform(1, 2);
  spec.classes.push_back(proto::BehaviorClass::relays("relays", 0.2));
  spec.classes.push_back(proto::BehaviorClass::budgeted("oneshot", 2, 2, 4));
  return spec;
}

SystemBuilder base_builder(std::uint64_t seed) {
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_balanced(2, 3)).kl(2, 4).seed(seed);
  return builder;
}

TEST(FleetDifferentialTest, FleetOfOneIsBitIdenticalToSingleSystem) {
  const std::uint64_t seed = 4242;
  auto make = [&](bool as_fleet) {
    SystemBuilder builder = base_builder(seed);
    builder.workload(contention_spec());
    if (as_fleet) builder.fleet(1);
    return builder.build_session();
  };
  Session single = make(false);
  Session fleet = make(true);
  ASSERT_NE(single.driver, nullptr);
  ASSERT_NE(fleet.driver, nullptr);
  auto* fleet_system = dynamic_cast<FleetSystem*>(fleet.system.get());
  ASSERT_NE(fleet_system, nullptr);
  EXPECT_EQ(fleet_system->tenant_count(), 1);
  EXPECT_EQ(dynamic_cast<FleetSystem*>(single.system.get()), nullptr);
  EXPECT_EQ(fleet.system->n(), single.system->n());

  Recorder single_trace;
  Recorder fleet_trace;
  single.system->add_observer(&single_trace);
  fleet.system->add_observer(&fleet_trace);

  // Phase 0: initial stabilization reports the identical instant through
  // the fleet's incremental per-tenant probe.
  sim::SimTime single_stable = single.system->run_until_stabilized(1'000'000);
  sim::SimTime fleet_stable = fleet.system->run_until_stabilized(1'000'000);
  ASSERT_NE(single_stable, sim::kTimeInfinity);
  EXPECT_EQ(fleet_stable, single_stable);
  EXPECT_EQ(fleet_system->tenant_stabilized_at(0), fleet_stable);
  EXPECT_TRUE(fleet_system->tenant_correct(0));

  // Phase 1: closed-loop workload to a fixed horizon.
  single.begin_workload();
  fleet.begin_workload();
  const sim::SimTime kT1 = 400'000;
  single.system->run_until(kT1);
  fleet.system->run_until(kT1);
  expect_traces_equal(fleet_trace.events, single_trace.events,
                      "fleet(1) pre-fault");
  EXPECT_GT(single.driver->total_grants(), 0);
  EXPECT_EQ(fleet.driver->total_grants(), single.driver->total_grants());
  EXPECT_EQ(fleet.driver->total_requests(), single.driver->total_requests());

  // Phase 2: identical transient faults (identically seeded rngs draw the
  // identical corruption), symmetric driver resync, another fixed horizon.
  support::Rng single_fault(seed ^ 0x5EEDull);
  support::Rng fleet_fault(seed ^ 0x5EEDull);
  single.system->inject_transient_fault(single_fault);
  fleet.system->inject_transient_fault(fleet_fault);
  single.driver->resync();
  fleet.driver->resync();
  const sim::SimTime kT2 = 800'000;
  single.system->run_until(kT2);
  fleet.system->run_until(kT2);
  expect_traces_equal(fleet_trace.events, single_trace.events,
                      "fleet(1) post-fault");

  EXPECT_EQ(fleet.driver->total_grants(), single.driver->total_grants());
  EXPECT_EQ(fleet.driver->total_requests(), single.driver->total_requests());
  EXPECT_EQ(fleet.driver->total_denials(), single.driver->total_denials());
  for (int r = 0; r < kDenyReasonCount; ++r) {
    EXPECT_EQ(fleet.driver->deny_count(static_cast<DenyReason>(r)),
              single.driver->deny_count(static_cast<DenyReason>(r)))
        << to_string(static_cast<DenyReason>(r));
  }
  EXPECT_EQ(fleet.system->engine().messages_sent(),
            single.system->engine().messages_sent());
  EXPECT_EQ(fleet.system->engine().messages_delivered(),
            single.system->engine().messages_delivered());
  EXPECT_EQ(fleet.system->engine().events_executed(),
            single.system->engine().events_executed());
  EXPECT_EQ(fleet.system->token_counts_correct(),
            single.system->token_counts_correct());
}

// R = 16 packs many tenants' events into each tick, so the fleet's
// intra-tick interleaving of tenants differs most from any one twin's.
class FleetTwinTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetTwinTest, EachTenantReplaysItsStandaloneTwin) {
  const std::uint64_t seed = 777;
  const int tenants = GetParam();

  SystemBuilder fleet_builder = base_builder(seed);
  fleet_builder.workload(contention_spec()).fleet(tenants);
  Session fleet = fleet_builder.build_session();
  auto* fleet_system = dynamic_cast<FleetSystem*>(fleet.system.get());
  ASSERT_NE(fleet_system, nullptr);
  ASSERT_EQ(fleet_system->tenant_count(), tenants);

  std::vector<Session> singles;
  for (int t = 0; t < tenants; ++t) {
    SystemBuilder builder = base_builder(seed + static_cast<std::uint64_t>(t));
    builder.workload(contention_spec());
    singles.push_back(builder.build_session());
  }

  Recorder fleet_trace;
  std::vector<Recorder> single_traces(tenants);
  fleet.system->add_observer(&fleet_trace);
  for (int t = 0; t < tenants; ++t) {
    singles[static_cast<std::size_t>(t)].system->add_observer(
        &single_traces[static_cast<std::size_t>(t)]);
  }

  // Phase 1: everyone runs its workload to the same horizon.
  fleet.begin_workload();
  for (Session& s : singles) s.begin_workload();
  const sim::SimTime kT1 = 250'000;
  fleet.system->run_until(kT1);
  for (Session& s : singles) s.system->run_until(kT1);

  const int per_tenant_n = fleet_system->tenant_n(0);
  for (int t = 0; t < tenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "pre-fault tenant " + std::to_string(t));
    for (NodeId local = 0; local < per_tenant_n; ++local) {
      NodeId global = fleet_system->global_id(t, local);
      EXPECT_EQ(fleet.driver->grants(global), twin.driver->grants(local));
      EXPECT_EQ(fleet.driver->requests_issued(global),
                twin.driver->requests_issued(local));
    }
  }

  // Phase 2: transient fault into tenant 1 ONLY; its standalone twin gets
  // the identically seeded fault. All drivers resync (a no-op for
  // sessions whose protocol state is untouched), then another horizon.
  support::Rng fleet_fault(seed ^ 0xFA17ull);
  support::Rng twin_fault(seed ^ 0xFA17ull);
  fleet_system->inject_transient_fault_tenant(1, fleet_fault);
  singles[1].system->inject_transient_fault(twin_fault);
  fleet.driver->resync();
  for (Session& s : singles) s.driver->resync();
  const sim::SimTime kT2 = 550'000;
  fleet.system->run_until(kT2);
  for (Session& s : singles) s.system->run_until(kT2);

  for (int t = 0; t < tenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "post-fault tenant " + std::to_string(t));
    for (NodeId local = 0; local < per_tenant_n; ++local) {
      NodeId global = fleet_system->global_id(t, local);
      EXPECT_EQ(fleet.driver->grants(global), twin.driver->grants(local));
    }
    // Per-tenant observables agree with the twin's global ones.
    EXPECT_EQ(fleet_system->tenant_correct(t),
              twin.system->token_counts_correct())
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_events_executed(t),
              twin.system->engine().events_executed())
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_sent_of_type(t, kResourceType),
              twin.system->engine().sent_of_type(kResourceType))
        << "tenant " << t;
    // Nobody ran an epoch-cut recovery (the rung is not enabled here).
    EXPECT_EQ(fleet_system->tenant_recovery_events(t), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Tenants, FleetTwinTest, ::testing::Values(3, 16));

struct TenantFingerprint {
  std::uint64_t events = 0;
  std::uint64_t resource_sends = 0;
  bool correct = false;

  friend bool operator==(const TenantFingerprint&,
                         const TenantFingerprint&) = default;
};

TEST(FleetDifferentialTest, WorkerLaneCountDoesNotChangeTenantTrajectories) {
  const std::uint64_t seed = 909;
  const int kTenants = 4;
  const sim::SimTime kHorizon = 250'000;

  // No observers here: blocking observers force the parallel engine's
  // merged-serial fallback, and this test exists to exercise the real
  // windowed path.
  auto fingerprint = [&](int threads) {
    SystemBuilder builder = base_builder(seed);
    builder.fleet(kTenants).threads(threads);
    std::unique_ptr<SystemBase> system = builder.build();
    auto* fleet = dynamic_cast<FleetSystem*>(system.get());
    EXPECT_NE(fleet, nullptr);
    // Lanes are tenant blocks (one per tenant here); threads are the
    // workers running them, three workers taking blocks of 1, 1 and 2.
    EXPECT_EQ(system->threads(), threads);
    EXPECT_EQ(system->engine().lane_count(), kTenants);
    system->run_until(kHorizon);
    std::vector<TenantFingerprint> out;
    for (int t = 0; t < kTenants; ++t) {
      out.push_back({fleet->tenant_events_executed(t),
                     fleet->tenant_sent_of_type(t, kResourceType),
                     fleet->tenant_correct(t)});
    }
    return out;
  };

  std::vector<TenantFingerprint> serial = fingerprint(1);
  EXPECT_EQ(fingerprint(2), serial);
  EXPECT_EQ(fingerprint(3), serial);
  EXPECT_EQ(fingerprint(4), serial);

  // And the serial fleet's per-tenant counters equal each standalone twin.
  for (int t = 0; t < kTenants; ++t) {
    SystemBuilder builder =
        base_builder(seed + static_cast<std::uint64_t>(t));
    std::unique_ptr<SystemBase> twin = builder.build();
    twin->run_until(kHorizon);
    const TenantFingerprint& got = serial[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.events, twin->engine().events_executed()) << "tenant " << t;
    EXPECT_EQ(got.resource_sends, twin->engine().sent_of_type(kResourceType))
        << "tenant " << t;
    EXPECT_EQ(got.correct, twin->token_counts_correct()) << "tenant " << t;
  }
}

/// A blocking observer that does nothing: attaching it forces the
/// merged-serial loops (Engine::run_until and the base
/// run_until_stabilized) without changing what they execute.
class MergedSerialForcer final : public sim::SimObserver {};

struct StabilizeOutcome {
  sim::SimTime returned = 0;
  sim::SimTime now = 0;
  std::uint64_t events = 0;
  std::vector<sim::SimTime> tenant_stabilized_at;

  friend bool operator==(const StabilizeOutcome&,
                         const StabilizeOutcome&) = default;
};

struct LaneMajorRun {
  std::vector<StabilizeOutcome> stabilizations;
  std::vector<std::vector<TenantFingerprint>> fingerprints;
  std::vector<std::int64_t> grants;
  std::vector<std::int64_t> recoveries;
  std::int64_t overloaded = 0;
  std::int64_t violations = 0;
  sim::SimTime last_violation = 0;
  std::vector<std::pair<NodeId, sim::SimTime>> stalls;  // (node, flagged)
  bool lanes_closed = false;
};

/// How a lane-major case perturbs the fleet between its phases.
enum class LaneMajorFault {
  kTransient,   // transient faults into three tenants, driver resync
  kChaosBurst,  // a fleet-wide kChaosBurst plan event on full+cut tenants
};

struct LaneMajorCase {
  const char* name;
  int tenants;
  LaneMajorFault fault;
  bool admission;  // a per-tenant admission policy that sheds load
};

void PrintTo(const LaneMajorCase& c, std::ostream* os) { *os << c.name; }

class LaneMajorTest : public ::testing::TestWithParam<LaneMajorCase> {};

TEST_P(LaneMajorTest, LaneMajorEqualsMergedSerial) {
  const LaneMajorCase& param = GetParam();
  const int tenants = param.tenants;
  const std::uint64_t seed = 31337;
  FaultEvent burst;
  burst.kind = FaultKind::kChaosBurst;
  burst.chaos.drop_p = 0.2;
  burst.chaos.dup_p = 0.2;
  burst.duration = 2'000;

  auto run = [&](bool force_merged) {
    SystemBuilder builder = base_builder(seed);
    builder.workload(contention_spec()).fleet(tenants);
    if (param.fault == LaneMajorFault::kChaosBurst) {
      FaultPlan plan;
      plan.events.push_back(burst);
      builder.features(proto::Features::full().with_epoch_cut())
          .fault_plan(plan);
    }
    if (param.admission) {
      proto::AdmissionPolicy admission;
      admission.max_waiting = 2;
      builder.admission_policy(admission);
    }
    Session session = builder.build_session();
    auto* fleet = dynamic_cast<FleetSystem*>(session.system.get());
    EXPECT_NE(fleet, nullptr);
    MergedSerialForcer forcer;
    if (force_merged) fleet->add_observer(&forcer);
    verify::SafetyMonitor monitor(fleet->n(), fleet->k(), fleet->l());
    monitor.set_stall_threshold(800);
    fleet->add_listener(&monitor);
    monitor.watch(fleet->engine());

    LaneMajorRun out;
    auto stabilize = [&](sim::SimTime deadline) {
      StabilizeOutcome o;
      o.returned = fleet->run_until_stabilized(deadline);
      o.now = fleet->engine().now();
      o.events = fleet->engine().events_executed();
      for (int t = 0; t < tenants; ++t) {
        o.tenant_stabilized_at.push_back(fleet->tenant_stabilized_at(t));
      }
      out.stabilizations.push_back(o);
    };
    auto fingerprint = [&] {
      std::vector<TenantFingerprint> f;
      for (int t = 0; t < tenants; ++t) {
        f.push_back({fleet->tenant_events_executed(t),
                     fleet->tenant_sent_of_type(t, kResourceType),
                     fleet->tenant_correct(t)});
      }
      out.fingerprints.push_back(f);
    };
    auto fault = [&](std::uint64_t salt) {
      support::Rng rng(seed ^ salt);
      if (param.fault == LaneMajorFault::kChaosBurst) {
        // The burst's cuts wait for burst end, as callbacks: run past it
        // so they fire inside the lanes' windows, not at the horizon.
        session.apply_fault_event(burst, rng);
        fleet->run_until(fleet->engine().now() + 2 * burst.duration);
        return;
      }
      for (int t : {0, tenants / 2, tenants - 1}) {
        fleet->inject_transient_fault_tenant(t, rng);
      }
      session.driver->resync();
    };

    // Boot, a closed-loop stretch, then faults recovered under load (the
    // callbacks stay pending), one recovery that misses a tight deadline
    // and one that makes it.
    stabilize(1'000'000);
    session.begin_workload();
    fleet->run_until(fleet->engine().now() + 20'000);
    fingerprint();
    fault(0xFA17ull);
    stabilize(fleet->engine().now() + 400'000);
    fingerprint();
    fault(0xBADull);
    stabilize(fleet->engine().now() + 40);
    stabilize(fleet->engine().now() + 400'000);
    fleet->run_until(fleet->engine().now() + 10'000);
    fingerprint();

    for (NodeId v = 0; v < fleet->n(); ++v) {
      out.grants.push_back(session.driver->grants(v));
    }
    for (int t = 0; t < tenants; ++t) {
      out.recoveries.push_back(fleet->tenant_recovery_events(t));
    }
    out.overloaded = session.driver->deny_count(DenyReason::kOverloaded);
    out.violations = monitor.violation_count();
    out.last_violation = monitor.last_violation_time();
    for (const verify::SafetyMonitor::Stall& stall : monitor.stalls()) {
      out.stalls.emplace_back(stall.node, stall.flagged_at);
    }
    out.lanes_closed = fleet->engine().lanes_closed();
    return out;
  };

  const LaneMajorRun lane_major = run(false);
  const LaneMajorRun merged = run(true);
  ASSERT_TRUE(lane_major.lanes_closed);
  ASSERT_EQ(lane_major.stabilizations.size(), 4u);
  for (std::size_t i = 0; i < merged.stabilizations.size(); ++i) {
    EXPECT_TRUE(lane_major.stabilizations[i] == merged.stabilizations[i])
        << "stabilization " << i << ": returned "
        << lane_major.stabilizations[i].returned << " vs "
        << merged.stabilizations[i].returned << ", events "
        << lane_major.stabilizations[i].events << " vs "
        << merged.stabilizations[i].events;
  }
  // The phases exercise both exits: successes and the tight deadline.
  EXPECT_NE(merged.stabilizations[0].returned, sim::kTimeInfinity);
  EXPECT_EQ(merged.stabilizations[2].returned, sim::kTimeInfinity);
  EXPECT_NE(merged.stabilizations[3].returned, sim::kTimeInfinity);
  EXPECT_EQ(lane_major.fingerprints, merged.fingerprints);
  EXPECT_EQ(lane_major.grants, merged.grants);
  EXPECT_EQ(lane_major.recoveries, merged.recoveries);
  EXPECT_EQ(lane_major.overloaded, merged.overloaded);
  EXPECT_EQ(lane_major.violations, merged.violations);
  EXPECT_EQ(lane_major.last_violation, merged.last_violation);
  EXPECT_EQ(lane_major.stalls, merged.stalls);
  EXPECT_GT(merged.stalls.size(), 0u) << "the watchdog must fire";
  // Each case must exercise what it is named for.
  if (param.admission) {
    EXPECT_GT(merged.overloaded, 0) << "the policy must shed requests";
  }
  if (param.fault == LaneMajorFault::kChaosBurst) {
    std::int64_t cuts = 0;
    int cut_on_later_lane = 0;
    for (std::size_t t = 0; t < merged.recoveries.size(); ++t) {
      cuts += merged.recoveries[t];
      if (merged.recoveries[t] > 0 && t >= merged.recoveries.size() / 2) {
        ++cut_on_later_lane;
      }
    }
    EXPECT_GT(cuts, 0) << "burst-end cuts must drain damaged tenants";
    EXPECT_GT(cut_on_later_lane, 0) << "a cut must land beyond lane 0";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, LaneMajorTest,
    ::testing::Values(
        LaneMajorCase{"tenants3", 3, LaneMajorFault::kTransient, false},
        LaneMajorCase{"tenants16", 16, LaneMajorFault::kTransient, false},
        LaneMajorCase{"tenants64", 64, LaneMajorFault::kTransient, false},
        LaneMajorCase{"admission16", 16, LaneMajorFault::kTransient, true},
        LaneMajorCase{"chaos_burst16", 16, LaneMajorFault::kChaosBurst,
                      false}),
    [](const ::testing::TestParamInfo<LaneMajorCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace klex
