#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "api/fleet.hpp"
#include "proto/messages.hpp"
#include "stats/waiting_time.hpp"
#include "support/check.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "verify/safety_monitor.hpp"

namespace klex::exp {

namespace {

/// The grid point's policy variant (null when the scenario has no
/// policy axis).
const ScenarioSpec::PolicyVariant* variant_of(const ScenarioSpec& spec,
                                              const RunPoint& point) {
  if (point.policy < 0) return nullptr;
  KLEX_CHECK(static_cast<std::size_t>(point.policy) < spec.policies.size(),
             "policy index out of range");
  return &spec.policies[static_cast<std::size_t>(point.policy)];
}

/// The chaos config a grid point actually runs under (a variant may
/// override the scenario-level config).
const sim::ChaosConfig& chaos_of(const ScenarioSpec& spec,
                                 const ScenarioSpec::PolicyVariant* variant) {
  return variant != nullptr && variant->override_chaos ? variant->chaos
                                                       : spec.chaos;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Fills a run's or a class slice's grant-latency percentiles (count = 0
/// leaves them unset / unemitted).
template <typename Cell>
void fill_latency(Cell& cell, const support::Histogram& latency) {
  if (latency.count() == 0) return;
  cell.latency_count = static_cast<std::int64_t>(latency.count());
  cell.latency_p50 = latency.quantile(0.5);
  cell.latency_p99 = latency.quantile(0.99);
  cell.latency_p999 = latency.quantile(0.999);
}

/// Protocol messages sent per grant over the measurement window.
void set_messages_per_grant(RunResult& result) {
  if (result.grants == 0) return;
  result.messages_per_grant =
      static_cast<double>(result.control_messages + result.resource_messages +
                          result.pusher_messages + result.priority_messages) /
      static_cast<double>(result.grants);
}

// Fleet grid points support the single post-measurement transient fault
// only (targeted at tenant 0). Staged fault plans imply live-topology
// graph systems; fleets are tree-tenant only.
void require_fleet_fault_supported(const ScenarioSpec& spec) {
  KLEX_REQUIRE(spec.fault_plan.events.empty(),
               "fleet grid points do not support staged fault plans");
  KLEX_REQUIRE(spec.fault == ScenarioSpec::FaultKind::kNone ||
                   spec.fault == ScenarioSpec::FaultKind::kTransient,
               "fleet grid points support only none/transient faults");
}

/// The one declarative construction every grid point goes through:
/// topology × params × workload × fault plan. A point with fleet > 1
/// builds the shared-engine FleetSystem (tenant t seeded seed + t);
/// graph-only knobs are ignored by tree and fleet builds.
SystemBuilder builder_for(const ScenarioSpec& spec, const RunPoint& point) {
  const ScenarioSpec::PolicyVariant* variant = variant_of(spec, point);
  SystemBuilder builder;
  builder.topology(point.topology)
      .kl(point.k, point.l)
      .features(point.features)
      .cmax(spec.cmax)
      .delays(spec.delays)
      .seed(point.seed)
      .seed_tokens(spec.seed_tokens)
      .spread_tokens(spec.spread_tokens)
      .beacon_period(spec.beacon_period)
      .spanning_tree_deadline(spec.spanning_tree_deadline)
      .threads(point.threads)
      .workload(spec.workload)
      .fault(spec.fault)
      .fault_garbage(point.fault_garbage)
      .fault_plan(spec.fault_plan)
      .chaos(chaos_of(spec, variant));
  if (point.fleet > 1) builder.fleet(point.fleet);
  if (variant != nullptr) {
    builder.retry_policy(variant->retry).admission_policy(variant->admission);
  }
  return builder;
}

/// The grid-point coordinates every result carries (the aggregate and
/// bench_diff cell key).
RunResult identity_of(const ScenarioSpec& spec, const RunPoint& point) {
  RunResult result;
  result.topology = point.topology.name();
  result.features = point.features.name();
  result.k = point.k;
  result.l = point.l;
  result.fault_garbage = point.fault_garbage;
  result.threads = point.threads;
  result.seed = point.seed;
  if (point.fleet > 1) {
    result.fleet = point.fleet;
    result.fleet_mode = point.fleet_separate ? "separate" : "shared";
  }
  const ScenarioSpec::PolicyVariant* variant = variant_of(spec, point);
  if (variant != nullptr) result.policy = variant->label;
  return result;
}

/// What one pass of the phase sequence leaves besides its RunResult
/// fields: the raw grant-latency samples (percentiles do not sum across
/// a batch) and whether the fault step ran the epoch-cut drain.
struct PhaseExtras {
  support::Histogram latency;
  bool drained = false;
};

/// The experiment's one phase sequence over a built session: stabilize
/// from the arbitrary initial state (Theorem 1), warm up, measure the
/// closed-loop k-out-of-ℓ service, inject the session's planned fault and
/// time re-legitimacy. Fills every measured field of `result` (the
/// identity fields are the caller's).
///
/// On a FleetSystem the same sequence runs over all tenants at once; the
/// only fleet-specific steps are the per-tenant slices and the fault,
/// which corrupts tenant 0 alone so the slices exhibit fault isolation
/// (every other tenant's recovery_events stays 0 and its census stays
/// correct throughout).
PhaseExtras run_phases(const ScenarioSpec& spec, const RunPoint& point,
                       Session& session, RunResult& result) {
  PhaseExtras extras;
  SystemBase& system = *session.system;
  auto* fleet = dynamic_cast<FleetSystem*>(&system);
  result.n = system.n();

  // The wall clock starts after construction so events_per_sec measures
  // the exclusion engine only (GraphSystem's constructor simulates a
  // whole spanning-tree engine that is invisible to engine().stats()).
  auto wall_start = std::chrono::steady_clock::now();

  stats::WaitingTimeTracker waits(result.n);
  // For fleets k is the max per-node need and l the sum of the tenants'
  // populations (SystemBase accessors aggregate).
  verify::SafetyMonitor safety(result.n, system.k(), system.l());
  system.add_listener(&waits);
  system.add_listener(&safety);
  if (spec.stall_threshold > 0) {
    // Continuous liveness watchdog: the monitor rides the engine as an
    // observer so stalls are timestamped as they happen. The monitor is
    // window-safe (lane-local buffers merged at the barrier), so this
    // does not force the parallel engine into merged-serial.
    safety.set_stall_threshold(spec.stall_threshold);
    safety.watch(system.engine());
  }
  // Message-overhead accounting reads the engine's inline per-type send
  // counters (window deltas) instead of attaching a per-send observer, so
  // the measured window runs with an empty observer list.
  auto sent_of = [&system](proto::TokenType type) {
    return system.engine().sent_of_type(static_cast<std::int32_t>(type));
  };

  // Phase 1: stabilize, then settle through the warmup window. The
  // legitimacy predicate is rung-aware, so reduced rungs (seeded token
  // population, no controller) stabilize at t ~ 0; a fleet's predicate
  // is the AND of its tenants' O(1) predicates.
  sim::SimTime stabilized =
      system.run_until_stabilized(spec.stabilize_deadline);
  result.stabilized = stabilized != sim::kTimeInfinity;
  result.stabilization_time = stabilized;
  system.run_until(system.engine().now() + spec.warmup);

  // Phase 2: closed-loop workload over the measurement window.
  WorkloadDriver& driver = *session.driver;
  session.begin_workload();

  waits.reset_samples();
  const std::uint64_t control_before = sent_of(proto::TokenType::kControl);
  const std::uint64_t resource_before = sent_of(proto::TokenType::kResource);
  const std::uint64_t pusher_before = sent_of(proto::TokenType::kPusher);
  const std::uint64_t priority_before = sent_of(proto::TokenType::kPriority);
  sim::SimTime window_start = system.engine().now();
  std::uint64_t events_before = system.engine().events_executed();
  system.run_until(window_start + spec.horizon);

  result.grants = driver.total_grants();
  result.requests = driver.total_requests();
  result.grants_per_mtick = static_cast<double>(result.grants) * 1e6 /
                            static_cast<double>(spec.horizon);
  result.outstanding_at_end = driver.outstanding();
  result.quiescent_at_end =
      system.engine().next_event_time() == sim::kTimeInfinity;
  for (proto::NodeId node = 0; node < result.n; ++node) {
    extras.latency.merge(driver.grant_latency(node));
  }
  fill_latency(result, extras.latency);
  if (!spec.workload.classes.empty()) {
    // Per-class slices, in class order plus a trailing "base" cell when
    // any node fell through to the base behavior.
    const std::size_t class_count = spec.workload.classes.size();
    std::vector<ClassResult> cells(class_count + 1);
    std::vector<support::Histogram> class_latency(class_count + 1);
    for (std::size_t c = 0; c < class_count; ++c) {
      cells[c].name = spec.workload.classes[c].name;
    }
    cells.back().name = "base";
    for (proto::NodeId node = 0; node < result.n; ++node) {
      int cls = session.workload.class_index[static_cast<std::size_t>(node)];
      std::size_t slot = cls >= 0 ? static_cast<std::size_t>(cls)
                                  : class_count;
      ClassResult& cell = cells[slot];
      ++cell.nodes;
      cell.requests += driver.requests_issued(node);
      cell.grants += driver.grants(node);
      class_latency[slot].merge(driver.grant_latency(node));
      if (system.state_of(node) == proto::AppState::kIn) ++cell.holding_at_end;
    }
    for (std::size_t slot = 0; slot <= class_count; ++slot) {
      fill_latency(cells[slot], class_latency[slot]);
    }
    if (cells.back().nodes == 0) cells.pop_back();
    result.classes = std::move(cells);
  }
  if (waits.waits().count() > 0) {
    result.mean_wait_entries = waits.waits().mean();
    result.max_wait_entries = waits.waits().max();
    result.p99_wait_entries = waits.waits().p99();
  }
  result.control_messages =
      sent_of(proto::TokenType::kControl) - control_before;
  result.resource_messages =
      sent_of(proto::TokenType::kResource) - resource_before;
  result.pusher_messages = sent_of(proto::TokenType::kPusher) - pusher_before;
  result.priority_messages =
      sent_of(proto::TokenType::kPriority) - priority_before;
  set_messages_per_grant(result);
  // Snapshotted before any fault injection: self-stabilization only
  // guarantees eventual safety, so transient violations while
  // re-stabilizing are expected and must not read as regressions; the
  // event count likewise covers the measurement window alone.
  result.safety_ok = !safety.any_violation();
  result.events_executed = system.engine().events_executed() - events_before;
  const std::int64_t violations_at_measure_end = safety.violation_count();

  if (fleet != nullptr) {
    // Per-tenant slices of the workload window (the per-node driver
    // counters are cumulative, so they are read before the fault phase
    // accrues more grants).
    result.tenants.resize(static_cast<std::size_t>(fleet->tenant_count()));
    for (int t = 0; t < fleet->tenant_count(); ++t) {
      TenantResult& cell = result.tenants[static_cast<std::size_t>(t)];
      cell.tenant = t;
      cell.n = fleet->tenant_n(t);
      sim::SimTime since = fleet->tenant_stabilized_at(t);
      cell.stabilized = since != sim::kTimeInfinity;
      cell.stabilization_time = cell.stabilized ? since : 0;
      for (proto::NodeId local = 0; local < cell.n; ++local) {
        proto::NodeId node = fleet->global_id(t, local);
        cell.requests += driver.requests_issued(node);
        cell.grants += driver.grants(node);
      }
    }
  }

  // Phase 3 (optional): fault + recovery. A staged plan generalizes the
  // single post-measurement fault: the engine advances to each event's
  // scheduled time (relative to the end of the measurement window),
  // applies it, re-stabilizes, and records the materialized incident.
  auto recovery_start = std::chrono::steady_clock::now();
  support::Rng fault_rng(point.seed ^ 0xFA17ull);
  if (!session.fault_plan.events.empty()) {
    result.fault_injected = true;
    const sim::SimTime phase_start = system.engine().now();
    bool all_recovered = true;
    for (const FaultEvent& event : session.fault_plan.events) {
      system.run_until(phase_start + event.at);
      const sim::SimTime fault_at = system.engine().now();
      const std::uint64_t events_at_fault = system.engine().events_executed();
      const std::int64_t violations_at_event = safety.violation_count();
      const sim::ChaosStats chaos_at_event = system.engine().chaos_stats();
      TopologyFaultResult repair = session.apply_fault_event(event, fault_rng);
      const sim::SimTime recovered_at =
          system.run_until_stabilized(fault_at + spec.recovery_deadline);
      FaultEventResult record;
      record.at = fault_at;
      record.kind = to_string(event.kind);
      record.links_changed = repair.links_changed;
      record.nodes_changed = repair.nodes_changed;
      record.detached = repair.detached;
      record.reattached = repair.reattached;
      record.attached_nodes = repair.attached_nodes;
      record.parent_changes = repair.parent_changes;
      record.stree_events = repair.stree_events;
      record.stree_time = repair.stree_time;
      record.repair_seed = repair.repair_seed;
      record.recovered = recovered_at != sim::kTimeInfinity;
      record.recovery_time =
          record.recovered ? recovered_at - fault_at : 0;
      record.recovery_events =
          system.engine().events_executed() - events_at_fault;
      if (event.kind == FaultKind::kChaosBurst) {
        // What the adversary actually did inside [injection,
        // re-stabilization] and whether it managed to break safety.
        const sim::ChaosStats chaos_now = system.engine().chaos_stats();
        record.chaos = true;
        record.chaos_dropped = chaos_now.dropped - chaos_at_event.dropped;
        record.chaos_duplicated =
            chaos_now.duplicated - chaos_at_event.duplicated;
        record.chaos_reordered =
            chaos_now.reordered - chaos_at_event.reordered;
        record.chaos_jittered = chaos_now.jittered - chaos_at_event.jittered;
        record.violations = safety.violation_count() - violations_at_event;
      }
      all_recovered = all_recovered && record.recovered;
      result.recovery_time += record.recovery_time;
      result.recovery_events += record.recovery_events;
      result.fault_events.push_back(std::move(record));
    }
    result.recovered = all_recovered;
    result.recovery_wall_seconds = seconds_since(recovery_start);
  } else if (session.planned_fault != FaultKind::kNone) {
    result.fault_injected = true;
    sim::SimTime fault_at = system.engine().now();
    std::uint64_t events_at_fault = system.engine().events_executed();
    if (fleet != nullptr) {
      // Tenant 0 alone; the other tenants keep circulating.
      fleet->inject_transient_fault_tenant(0, fault_rng,
                                           session.fault_garbage);
      if (fleet->tenant_params(0).features.epoch_cut) {
        fleet->epoch_cut_recover_tenant(0);  // no-op if the fault missed
      }
      driver.resync();
    } else {
      extras.drained = session.apply_planned_fault(fault_rng);
    }
    sim::SimTime recovered =
        system.run_until_stabilized(fault_at + spec.recovery_deadline);
    result.recovered = recovered != sim::kTimeInfinity;
    // Elapsed since the fault, so runs with different warmups/horizons
    // stay comparable.
    result.recovery_time = result.recovered ? recovered - fault_at : 0;
    result.recovery_events =
        system.engine().events_executed() - events_at_fault;
    result.recovery_wall_seconds = seconds_since(recovery_start);
  }

  if (fleet != nullptr) {
    // Per-tenant end state: the isolation observables the artifact pins.
    for (TenantResult& cell : result.tenants) {
      cell.events_executed = fleet->tenant_events_executed(cell.tenant);
      cell.recovery_events = fleet->tenant_recovery_events(cell.tenant);
      cell.correct_at_end = fleet->tenant_correct(cell.tenant);
    }
  }

  // Continuous-monitoring totals: a final watchdog sweep catches stalls
  // younger than the last delivery heartbeat, then the whole-run
  // violation/stall totals are read off the monitor.
  if (spec.stall_threshold > 0) safety.check_stalls(system.engine().now());
  result.safety_violations = safety.violation_count();
  result.last_violation_time = safety.last_violation_time();
  result.liveness_stalls = safety.stall_count();
  result.fault_phase_violations =
      safety.violation_count() - violations_at_measure_end;

  result.engine_stats = system.engine().stats();
  result.wall_seconds = seconds_since(wall_start);
  if (result.wall_seconds > 0.0) {
    result.events_per_sec =
        static_cast<double>(result.engine_stats.events_executed) /
        result.wall_seconds;
  }
  return extras;
}

/// The batching baseline: the point's R tenants as R standalone serial
/// systems seeded point.seed .. point.seed + R - 1 -- exactly the twins
/// the shared run's tenants replay (tests/integration/
/// fleet_differential_test.cpp) -- each run through the same phase
/// sequence, sequentially on this worker, and summed. Only system 0
/// takes the fault (the shared run's tenant 0 draws the same rng in the
/// same order, so the two modes recover through identical trajectories).
/// Wait stats and class slices are per-system distributions and are not
/// merged (the shared run carries them for the cell). The wall clock
/// spans the whole batch, so events_per_sec is the rate bench_fleet
/// compares the shared engine against.
void run_separate(const ScenarioSpec& spec, const RunPoint& point,
                  RunResult& total) {
  std::vector<RunPoint> points(static_cast<std::size_t>(point.fleet), point);
  std::vector<Session> sessions;
  sessions.reserve(points.size());
  for (std::size_t t = 0; t < points.size(); ++t) {
    points[t].fleet = 1;
    points[t].threads = 1;
    points[t].seed = point.seed + t;
    sessions.push_back(builder_for(spec, points[t]).build_session());
    if (t > 0) sessions.back().planned_fault = FaultKind::kNone;
  }

  auto wall_start = std::chrono::steady_clock::now();
  support::Histogram latency;
  total.tenants.resize(points.size());
  total.stabilized = true;
  total.quiescent_at_end = true;
  for (std::size_t t = 0; t < points.size(); ++t) {
    RunResult part;
    PhaseExtras extras = run_phases(spec, points[t], sessions[t], part);
    latency.merge(extras.latency);

    total.n += part.n;
    total.stabilized = total.stabilized && part.stabilized;
    total.stabilization_time =
        std::max(total.stabilization_time, part.stabilization_time);
    total.requests += part.requests;
    total.grants += part.grants;
    total.outstanding_at_end += part.outstanding_at_end;
    total.quiescent_at_end = total.quiescent_at_end && part.quiescent_at_end;
    total.control_messages += part.control_messages;
    total.resource_messages += part.resource_messages;
    total.pusher_messages += part.pusher_messages;
    total.priority_messages += part.priority_messages;
    total.events_executed += part.events_executed;
    total.safety_ok = total.safety_ok && part.safety_ok;
    total.safety_violations += part.safety_violations;
    total.last_violation_time =
        std::max(total.last_violation_time, part.last_violation_time);
    total.liveness_stalls += part.liveness_stalls;
    total.fault_phase_violations += part.fault_phase_violations;
    total.engine_stats.merge(part.engine_stats);
    if (part.fault_injected) {
      total.fault_injected = true;
      total.recovered = part.recovered;
      total.recovery_time = part.recovery_time;
      total.recovery_events = part.recovery_events;
      total.recovery_wall_seconds = part.recovery_wall_seconds;
    }

    TenantResult& cell = total.tenants[t];
    cell.tenant = static_cast<int>(t);
    cell.n = part.n;
    cell.stabilized = part.stabilized;
    cell.stabilization_time = part.stabilized ? part.stabilization_time : 0;
    cell.requests = part.requests;
    cell.grants = part.grants;
    cell.events_executed = part.engine_stats.events_executed;
    cell.recovery_events = extras.drained ? 1 : 0;
    cell.correct_at_end = sessions[t].system->token_counts_correct();
  }
  fill_latency(total, latency);
  // Per-system windows all have length `horizon`, so the batch rate uses
  // the same denominator as the shared run's single window.
  total.grants_per_mtick = static_cast<double>(total.grants) * 1e6 /
                           static_cast<double>(spec.horizon);
  set_messages_per_grant(total);
  total.wall_seconds = seconds_since(wall_start);
  if (total.wall_seconds > 0.0) {
    total.events_per_sec =
        static_cast<double>(total.engine_stats.events_executed) /
        total.wall_seconds;
  }
}

}  // namespace

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads) {
  KLEX_REQUIRE(threads >= 0, "negative thread count");
  if (threads_ == 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

std::vector<RunPoint> ExperimentRunner::expand(const ScenarioSpec& spec) {
  KLEX_REQUIRE(!spec.topologies.empty(), "scenario has no topologies");
  KLEX_REQUIRE(!spec.features.empty(), "scenario has no ladder rungs");
  KLEX_REQUIRE(!spec.kl.empty(), "scenario has no (k,l) pairs");
  KLEX_REQUIRE(spec.seeds >= 1, "scenario needs at least one seed");
  KLEX_REQUIRE(!spec.fault_garbage.empty(),
               "scenario has no fault_garbage entries");
  KLEX_REQUIRE(!spec.threads.empty(), "scenario has no thread counts");
  KLEX_REQUIRE(!spec.fleet.empty(), "scenario has no fleet entries");
  for (int fleet : spec.fleet) {
    KLEX_REQUIRE(fleet >= 1, "fleet entries must be >= 1, got ", fleet);
  }
  // An empty policy list is one implicit default variant (policy = -1):
  // artifacts gain no policy axis and stay byte-identical.
  const int policy_count =
      spec.policies.empty() ? 1 : static_cast<int>(spec.policies.size());
  std::vector<RunPoint> points;
  points.reserve(spec.topologies.size() * spec.features.size() *
                 spec.kl.size() * spec.fault_garbage.size() *
                 spec.threads.size() * spec.fleet.size() *
                 static_cast<std::size_t>(policy_count) *
                 static_cast<std::size_t>(spec.seeds) *
                 (spec.fleet_compare_separate ? 2 : 1));
  for (const TopologySpec& topology : spec.topologies) {
    for (const proto::Features& features : spec.features) {
      for (const auto& [k, l] : spec.kl) {
        for (int garbage : spec.fault_garbage) {
          for (int threads : spec.threads) {
            for (int fleet : spec.fleet) {
              // A fleet entry fans out into the shared-engine point and,
              // when requested, the separate-engines baseline point.
              const int modes =
                  (fleet > 1 && spec.fleet_compare_separate) ? 2 : 1;
              for (int mode = 0; mode < modes; ++mode) {
                for (int policy = 0; policy < policy_count; ++policy) {
                  for (int s = 0; s < spec.seeds; ++s) {
                    RunPoint point;
                    point.topology = topology;
                    point.features = features;
                    point.k = k;
                    point.l = l;
                    point.fault_garbage = garbage;
                    point.threads = threads;
                    point.fleet = fleet;
                    point.fleet_separate = mode == 1;
                    point.policy = spec.policies.empty() ? -1 : policy;
                    point.seed =
                        spec.base_seed + static_cast<std::uint64_t>(s);
                    points.push_back(point);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}


RunResult ExperimentRunner::run_point(const ScenarioSpec& spec,
                                      const RunPoint& point) {
  if (point.fleet > 1) require_fleet_fault_supported(spec);
  RunResult result = identity_of(spec, point);
  if (point.fleet > 1 && point.fleet_separate) {
    run_separate(spec, point, result);
  } else {
    Session session = builder_for(spec, point).build_session();
    run_phases(spec, point, session, result);
  }
  return result;
}

std::vector<RunResult> ExperimentRunner::run(const ScenarioSpec& spec) const {
  std::vector<RunPoint> points = expand(spec);
  std::vector<RunResult> results(points.size());

  int workers = std::min<int>(threads_, static_cast<int>(points.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      results[i] = run_point(spec, points[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&spec, &points, &results, &next] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      results[i] = run_point(spec, points[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  return results;
}

std::vector<Aggregate> ExperimentRunner::aggregate(
    const std::vector<RunResult>& results) {
  // Keyed by (topology, features, k, l, fault_garbage, threads, fleet,
  // fleet_mode, policy), in first-appearance order.
  std::map<std::tuple<std::string, std::string, int, int, int, int, int,
                      std::string, std::string>,
           std::size_t>
      index;
  std::vector<Aggregate> cells;
  for (const RunResult& run : results) {
    auto key = std::tuple{run.topology, run.features,  run.k,
                          run.l,        run.fault_garbage, run.threads,
                          run.fleet,    run.fleet_mode, run.policy};
    auto [it, inserted] = index.try_emplace(key, cells.size());
    if (inserted) {
      Aggregate cell;
      cell.topology = run.topology;
      cell.features = run.features;
      cell.k = run.k;
      cell.l = run.l;
      cell.fault_garbage = run.fault_garbage;
      cell.threads = run.threads;
      cell.fleet = run.fleet;
      cell.fleet_mode = run.fleet_mode;
      cell.policy = run.policy;
      cell.n = run.n;
      cells.push_back(cell);
    }
    Aggregate& cell = cells[it->second];
    ++cell.runs;
    if (run.stabilized) {
      ++cell.stabilized_runs;
      double t = static_cast<double>(run.stabilization_time);
      cell.mean_stabilization_time += t;
      cell.max_stabilization_time = std::max(cell.max_stabilization_time, t);
    }
    if (run.recovered) {
      ++cell.recovered_runs;
      double t = static_cast<double>(run.recovery_time);
      cell.mean_recovery_time += t;
      cell.max_recovery_time = std::max(cell.max_recovery_time, t);
      cell.mean_recovery_events += static_cast<double>(run.recovery_events);
      cell.mean_recovery_wall_seconds += run.recovery_wall_seconds;
    }
    if (run.safety_ok) ++cell.safe_runs;
    cell.mean_grants_per_mtick += run.grants_per_mtick;
    cell.mean_wait_entries += run.mean_wait_entries;
    cell.max_wait_entries =
        std::max(cell.max_wait_entries, run.max_wait_entries);
    cell.mean_messages_per_grant += run.messages_per_grant;
    cell.mean_outstanding_at_end += run.outstanding_at_end;
    cell.mean_wall_seconds += run.wall_seconds;
    cell.total_events_per_sec += run.events_per_sec;
    cell.mean_fault_events += static_cast<double>(run.fault_events.size());
    for (const FaultEventResult& event : run.fault_events) {
      cell.mean_parent_changes += event.parent_changes;
      cell.mean_stree_events += static_cast<double>(event.stree_events);
    }
    cell.mean_chaos_dropped +=
        static_cast<double>(run.engine_stats.chaos_dropped);
    cell.mean_chaos_duplicated +=
        static_cast<double>(run.engine_stats.chaos_duplicated);
    cell.mean_chaos_reordered +=
        static_cast<double>(run.engine_stats.chaos_reordered);
    cell.mean_chaos_jittered +=
        static_cast<double>(run.engine_stats.chaos_jittered);
    cell.mean_fault_phase_violations +=
        static_cast<double>(run.fault_phase_violations);
    cell.mean_liveness_stalls += static_cast<double>(run.liveness_stalls);
    if (run.latency_count > 0) {
      ++cell.latency_runs;
      cell.mean_latency_p50 += run.latency_p50;
      cell.mean_latency_p99 += run.latency_p99;
      cell.mean_latency_p999 += run.latency_p999;
    }
  }
  for (Aggregate& cell : cells) {
    if (cell.stabilized_runs > 0) {
      cell.mean_stabilization_time /= cell.stabilized_runs;
    }
    if (cell.recovered_runs > 0) {
      cell.mean_recovery_time /= cell.recovered_runs;
      cell.mean_recovery_events /= cell.recovered_runs;
      cell.mean_recovery_wall_seconds /= cell.recovered_runs;
    }
    if (cell.runs > 0) {
      cell.mean_grants_per_mtick /= cell.runs;
      cell.mean_wait_entries /= cell.runs;
      cell.mean_messages_per_grant /= cell.runs;
      cell.mean_outstanding_at_end /= cell.runs;
      cell.mean_wall_seconds /= cell.runs;
      cell.mean_fault_events /= cell.runs;
      cell.mean_parent_changes /= cell.runs;
      cell.mean_stree_events /= cell.runs;
      cell.mean_chaos_dropped /= cell.runs;
      cell.mean_chaos_duplicated /= cell.runs;
      cell.mean_chaos_reordered /= cell.runs;
      cell.mean_chaos_jittered /= cell.runs;
      cell.mean_fault_phase_violations /= cell.runs;
      cell.mean_liveness_stalls /= cell.runs;
    }
    if (cell.latency_runs > 0) {
      cell.mean_latency_p50 /= cell.latency_runs;
      cell.mean_latency_p99 /= cell.latency_runs;
      cell.mean_latency_p999 /= cell.latency_runs;
    }
  }
  return cells;
}

namespace {

void write_dist(support::JsonWriter& json, const proto::Dist& dist) {
  json.begin_object();
  switch (dist.kind) {
    case proto::Dist::Kind::kFixed:
      json.field("kind", "fixed").field("value", dist.a);
      break;
    case proto::Dist::Kind::kUniform:
      json.field("kind", "uniform").field("lo", dist.a).field("hi", dist.b);
      break;
    case proto::Dist::Kind::kExponential:
      json.field("kind", "exponential").field("mean", dist.a);
      break;
  }
  json.end_object();
}

void write_chaos_config(support::JsonWriter& json,
                        const sim::ChaosConfig& chaos) {
  json.begin_object();
  json.field("drop_p", chaos.drop_p);
  json.field("dup_p", chaos.dup_p);
  json.field("reorder_p", chaos.reorder_p);
  json.field("reorder_window", chaos.reorder_window);
  json.field("reorder_flush_delay", chaos.reorder_flush_delay);
  json.field("jitter", chaos.jitter);
  json.end_object();
}

void write_behavior(support::JsonWriter& json,
                    const proto::NodeBehavior& behavior) {
  json.begin_object();
  json.field("active", behavior.active);
  json.field("hold_forever", behavior.hold_forever);
  json.key("think");
  write_dist(json, behavior.think);
  json.key("cs_duration");
  write_dist(json, behavior.cs_duration);
  json.key("need");
  write_dist(json, behavior.need);
  if (behavior.max_requests >= 0) {
    json.field("max_requests", behavior.max_requests);
  }
  json.end_object();
}

// True when any run of the scenario can exercise a ChaosModel or the
// liveness watchdog -- gates the chaos/monitoring fields so pre-chaos
// artifacts stay byte-identical.
bool is_monitored_spec(const ScenarioSpec& spec) {
  if (spec.chaos.enabled() || spec.fault_plan.has_chaos_events() ||
      spec.stall_threshold > 0) {
    return true;
  }
  for (const ScenarioSpec::PolicyVariant& variant : spec.policies) {
    if (variant.override_chaos && variant.chaos.enabled()) return true;
  }
  return false;
}

void write_retry_policy(support::JsonWriter& json,
                        const proto::RetryPolicy& retry) {
  json.begin_object();
  json.field("backoff_base", retry.backoff_base);
  json.field("backoff_cap_exponent", retry.backoff_cap_exponent);
  json.field("jitter", retry.jitter);
  json.field("max_attempts", retry.max_attempts);
  json.field("retry_budget", retry.retry_budget);
  json.field("deadline", retry.deadline);
  json.end_object();
}

void write_admission_policy(support::JsonWriter& json,
                            const proto::AdmissionPolicy& admission) {
  json.begin_object();
  json.field("max_waiting", admission.max_waiting);
  json.field("max_outstanding_need", admission.max_outstanding_need);
  json.end_object();
}

// The artifact's "spec" object -- factored out of write_json so the
// chaos fuzzer can emit a minimized reproducer as standalone,
// replayable scenario JSON (write_scenario_json).
void write_spec_object(support::JsonWriter& json,
                       const ScenarioSpec& spec) {
  json.begin_object();
  if (!spec.note.empty()) json.field("note", spec.note);
  json.key("topologies").begin_array();
  for (const TopologySpec& topology : spec.topologies) {
    json.value(topology.name());
  }
  json.end_array();
  json.key("features").begin_array();
  for (const proto::Features& features : spec.features) {
    json.value(features.name());
  }
  json.end_array();
  json.key("kl").begin_array();
  for (const auto& [k, l] : spec.kl) {
    json.begin_object().field("k", k).field("l", l).end_object();
  }
  json.end_array();
  json.field("cmax", spec.cmax);
  json.key("delays").begin_object();
  json.field("min", spec.delays.min_delay);
  json.field("max", spec.delays.max_delay);
  json.end_object();
  json.key("threads").begin_array();
  for (int threads : spec.threads) json.value(threads);
  json.end_array();
  // The fleet axis is emitted only when the scenario actually sweeps it,
  // so pre-fleet artifacts stay byte-identical.
  const bool fleet_grid = spec.fleet != std::vector<int>{1} ||
                          spec.fleet_compare_separate;
  if (fleet_grid) {
    json.key("fleet").begin_array();
    for (int fleet : spec.fleet) json.value(fleet);
    json.end_array();
    json.field("fleet_compare_separate", spec.fleet_compare_separate);
  }
  json.field("seed_tokens", spec.seed_tokens);
  json.field("spread_tokens", spec.spread_tokens);
  json.key("workload").begin_object();
  json.key("base");
  write_behavior(json, spec.workload.base);
  json.key("classes").begin_array();
  for (const proto::BehaviorClass& cls : spec.workload.classes) {
    json.begin_object();
    json.field("name", cls.name);
    if (!cls.nodes.empty()) {
      json.key("nodes").begin_array();
      for (proto::NodeId node : cls.nodes) json.value(node);
      json.end_array();
    } else if (cls.count >= 0) {
      json.field("count", cls.count);
    } else {
      json.field("fraction", cls.fraction);
    }
    json.key("behavior");
    write_behavior(json, cls.behavior);
    json.end_object();
  }
  json.end_array();
  json.end_object();  // workload
  json.field("warmup", spec.warmup);
  json.field("horizon", spec.horizon);
  json.field("stabilize_deadline", spec.stabilize_deadline);
  json.field("beacon_period", spec.beacon_period);
  json.field("fault", to_string(spec.fault));
  if (!spec.fault_plan.events.empty()) {
    json.key("fault_plan").begin_array();
    for (const FaultEvent& event : spec.fault_plan.events) {
      json.begin_object();
      json.field("at", event.at);
      json.field("kind", to_string(event.kind));
      json.field("count", event.count);
      json.field("restore", event.restore);
      if (!event.links.empty()) {
        json.key("links").begin_array();
        for (const auto& [a, b] : event.links) {
          json.begin_array().value(a).value(b).end_array();
        }
        json.end_array();
      }
      if (!event.nodes.empty()) {
        json.key("nodes").begin_array();
        for (int node : event.nodes) json.value(node);
        json.end_array();
      }
      if (event.garbage >= 0) json.field("garbage", event.garbage);
      if (event.kind == FaultKind::kChaosBurst) {
        json.field("duration", event.duration);
        json.key("chaos");
        write_chaos_config(json, event.chaos);
      }
      json.end_object();
    }
    json.end_array();
  }
  // Chaos / watchdog spec knobs, emitted only for scenarios that use
  // them so every pre-chaos artifact stays byte-identical.
  if (is_monitored_spec(spec)) {
    json.key("chaos");
    write_chaos_config(json, spec.chaos);
    json.field("stall_threshold", spec.stall_threshold);
  }
  // Policy axis, emitted only when the scenario sweeps one (pre-policy
  // artifacts stay byte-identical).
  if (!spec.policies.empty()) {
    json.key("policies").begin_array();
    for (const ScenarioSpec::PolicyVariant& variant : spec.policies) {
      json.begin_object();
      json.field("label", variant.label);
      json.key("retry");
      write_retry_policy(json, variant.retry);
      json.key("admission");
      write_admission_policy(json, variant.admission);
      if (variant.override_chaos) {
        json.key("chaos");
        write_chaos_config(json, variant.chaos);
      }
      json.end_object();
    }
    json.end_array();
  }
  json.key("fault_garbage").begin_array();
  for (int garbage : spec.fault_garbage) json.value(garbage);
  json.end_array();
  json.field("seeds", spec.seeds);
  json.field("base_seed", spec.base_seed);
  json.end_object();  // spec
}

}  // namespace

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results) {
  write_json(out, spec, results, ExperimentRunner::aggregate(results));
}

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results,
                const std::vector<Aggregate>& aggregates) {
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);

  json.key("spec");
  write_spec_object(json, spec);
  const bool monitored_spec = is_monitored_spec(spec);

  json.key("runs").begin_array();
  for (const RunResult& run : results) {
    json.begin_object();
    json.field("topology", run.topology);
    json.field("features", run.features);
    json.field("n", run.n);
    json.field("k", run.k);
    json.field("l", run.l);
    json.field("threads", run.threads);
    if (run.fleet > 1) {
      json.field("fleet", run.fleet);
      json.field("fleet_mode", run.fleet_mode);
    }
    if (!run.policy.empty()) json.field("policy", run.policy);
    json.field("seed", run.seed);
    json.field("stabilized", run.stabilized);
    if (run.stabilized) {
      json.field("stabilization_time", run.stabilization_time);
    }
    if (run.fault_injected) {
      if (run.fault_garbage >= 0) {
        json.field("fault_garbage", run.fault_garbage);
      }
      json.field("recovered", run.recovered);
      if (run.recovered) {
        json.field("recovery_time", run.recovery_time);
        json.field("recovery_events", run.recovery_events);
        json.field("recovery_wall_seconds", run.recovery_wall_seconds);
      }
      if (!run.fault_events.empty()) {
        json.key("fault_events").begin_array();
        for (const FaultEventResult& event : run.fault_events) {
          json.begin_object();
          json.field("at", event.at);
          json.field("kind", event.kind);
          json.field("links_changed", event.links_changed);
          json.field("nodes_changed", event.nodes_changed);
          json.field("detached", event.detached);
          json.field("reattached", event.reattached);
          json.field("attached_nodes", event.attached_nodes);
          json.field("parent_changes", event.parent_changes);
          json.field("stree_events", event.stree_events);
          json.field("stree_time", event.stree_time);
          json.field("repair_seed", event.repair_seed);
          json.field("recovered", event.recovered);
          json.field("recovery_time", event.recovery_time);
          json.field("recovery_events", event.recovery_events);
          if (event.chaos) {
            json.field("chaos_dropped", event.chaos_dropped);
            json.field("chaos_duplicated", event.chaos_duplicated);
            json.field("chaos_reordered", event.chaos_reordered);
            json.field("chaos_jittered", event.chaos_jittered);
            json.field("violations", event.violations);
          }
          json.end_object();
        }
        json.end_array();
      }
    }
    json.field("grants", run.grants);
    json.field("requests", run.requests);
    json.field("grants_per_mtick", run.grants_per_mtick);
    json.field("outstanding_at_end", run.outstanding_at_end);
    json.field("quiescent_at_end", run.quiescent_at_end);
    if (!run.classes.empty()) {
      json.key("classes").begin_array();
      for (const ClassResult& cls : run.classes) {
        json.begin_object();
        json.field("name", cls.name);
        json.field("nodes", cls.nodes);
        json.field("requests", cls.requests);
        json.field("grants", cls.grants);
        json.field("holding_at_end", cls.holding_at_end);
        if (cls.latency_count > 0) {
          json.field("latency_count", cls.latency_count);
          json.field("grant_latency_p50", cls.latency_p50);
          json.field("grant_latency_p99", cls.latency_p99);
          json.field("grant_latency_p999", cls.latency_p999);
        }
        json.end_object();
      }
      json.end_array();
    }
    if (!run.tenants.empty()) {
      json.key("tenants").begin_array();
      for (const TenantResult& cell : run.tenants) {
        json.begin_object();
        json.field("tenant", cell.tenant);
        json.field("n", cell.n);
        json.field("stabilized", cell.stabilized);
        if (cell.stabilized) {
          json.field("stabilization_time", cell.stabilization_time);
        }
        json.field("requests", cell.requests);
        json.field("grants", cell.grants);
        json.field("events_executed", cell.events_executed);
        json.field("recovery_events", cell.recovery_events);
        json.field("correct_at_end", cell.correct_at_end);
        json.end_object();
      }
      json.end_array();
    }
    json.field("mean_wait_entries", run.mean_wait_entries);
    json.field("max_wait_entries", run.max_wait_entries);
    json.field("p99_wait_entries", run.p99_wait_entries);
    // Grant-latency percentiles, only when the run recorded any grants
    // (bench_diff treats a percentile present in the baseline but
    // missing here as a loud failure).
    if (run.latency_count > 0) {
      json.field("latency_count", run.latency_count);
      json.field("grant_latency_p50", run.latency_p50);
      json.field("grant_latency_p99", run.latency_p99);
      json.field("grant_latency_p999", run.latency_p999);
    }
    json.field("messages_per_grant", run.messages_per_grant);
    json.field("control_messages", run.control_messages);
    json.field("resource_messages", run.resource_messages);
    json.field("pusher_messages", run.pusher_messages);
    json.field("priority_messages", run.priority_messages);
    json.field("safety_ok", run.safety_ok);
    if (monitored_spec) {
      json.field("safety_violations", run.safety_violations);
      json.field("last_violation_time", run.last_violation_time);
      json.field("liveness_stalls", run.liveness_stalls);
      json.field("fault_phase_violations", run.fault_phase_violations);
    }
    json.field("events_executed", run.events_executed);
    json.field("wall_seconds", run.wall_seconds);
    json.field("events_per_sec", run.events_per_sec);
    json.key("engine").begin_object();
    json.field("callbacks_scheduled", run.engine_stats.callbacks_scheduled);
    json.field("callback_slots_created",
               run.engine_stats.callback_slots_created);
    json.field("max_heap_size", run.engine_stats.max_heap_size);
    json.field("in_flight_walks", run.engine_stats.in_flight_walks);
    if (monitored_spec) {
      json.field("chaos_dropped", run.engine_stats.chaos_dropped);
      json.field("chaos_duplicated", run.engine_stats.chaos_duplicated);
      json.field("chaos_reordered", run.engine_stats.chaos_reordered);
      json.field("chaos_jittered", run.engine_stats.chaos_jittered);
    }
    json.field("bucket_inserts", run.engine_stats.scheduler.bucket_inserts);
    json.field("bucket_scans", run.engine_stats.scheduler.bucket_scans);
    json.field("overflow_pushes",
               run.engine_stats.scheduler.overflow_pushes);
    json.field("overflow_pops", run.engine_stats.scheduler.overflow_pops);
    json.field("bucket_sorts", run.engine_stats.scheduler.bucket_sorts);
    json.field("sorted_events", run.engine_stats.scheduler.sorted_events);
    json.field("bucket_window", run.engine_stats.bucket_window);
    json.end_object();
    json.end_object();
  }
  json.end_array();  // runs

  json.key("aggregates").begin_array();
  for (const Aggregate& cell : aggregates) {
    json.begin_object();
    json.field("topology", cell.topology);
    json.field("features", cell.features);
    json.field("k", cell.k);
    json.field("l", cell.l);
    if (cell.fault_garbage >= 0) {
      json.field("fault_garbage", cell.fault_garbage);
    }
    json.field("threads", cell.threads);
    if (cell.fleet > 1) {
      json.field("fleet", cell.fleet);
      json.field("fleet_mode", cell.fleet_mode);
    }
    if (!cell.policy.empty()) json.field("policy", cell.policy);
    json.field("n", cell.n);
    json.field("runs", cell.runs);
    json.field("stabilized_runs", cell.stabilized_runs);
    json.field("safe_runs", cell.safe_runs);
    json.field("recovered_runs", cell.recovered_runs);
    json.field("mean_stabilization_time", cell.mean_stabilization_time);
    json.field("max_stabilization_time", cell.max_stabilization_time);
    json.field("mean_recovery_time", cell.mean_recovery_time);
    json.field("max_recovery_time", cell.max_recovery_time);
    json.field("mean_recovery_events", cell.mean_recovery_events);
    json.field("mean_recovery_wall_seconds",
               cell.mean_recovery_wall_seconds);
    json.field("mean_wall_seconds", cell.mean_wall_seconds);
    json.field("mean_grants_per_mtick", cell.mean_grants_per_mtick);
    json.field("mean_wait_entries", cell.mean_wait_entries);
    json.field("max_wait_entries", cell.max_wait_entries);
    if (cell.latency_runs > 0) {
      json.field("mean_grant_latency_p50", cell.mean_latency_p50);
      json.field("mean_grant_latency_p99", cell.mean_latency_p99);
      json.field("mean_grant_latency_p999", cell.mean_latency_p999);
    }
    json.field("mean_messages_per_grant", cell.mean_messages_per_grant);
    json.field("mean_outstanding_at_end", cell.mean_outstanding_at_end);
    json.field("total_events_per_sec", cell.total_events_per_sec);
    if (cell.mean_fault_events > 0.0) {
      json.field("mean_fault_events", cell.mean_fault_events);
      json.field("mean_parent_changes", cell.mean_parent_changes);
      json.field("mean_stree_events", cell.mean_stree_events);
    }
    if (monitored_spec) {
      json.field("mean_chaos_dropped", cell.mean_chaos_dropped);
      json.field("mean_chaos_duplicated", cell.mean_chaos_duplicated);
      json.field("mean_chaos_reordered", cell.mean_chaos_reordered);
      json.field("mean_chaos_jittered", cell.mean_chaos_jittered);
      json.field("mean_fault_phase_violations",
                 cell.mean_fault_phase_violations);
      json.field("mean_liveness_stalls", cell.mean_liveness_stalls);
    }
    json.end_object();
  }
  json.end_array();  // aggregates

  json.end_object();
  out << '\n';
}

void write_scenario_json(std::ostream& out, const ScenarioSpec& spec) {
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);
  json.key("spec");
  write_spec_object(json, spec);
  json.end_object();
  out << '\n';
}

std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::vector<Aggregate>& aggregates,
                            const std::string& directory) {
  KLEX_REQUIRE(!spec.name.empty(), "scenario needs a name");
  std::string path = directory + "/BENCH_" + spec.name + ".json";
  std::ofstream out(path);
  KLEX_REQUIRE(out.good(), "cannot open ", path, " for writing");
  write_json(out, spec, results, aggregates);
  return path;
}

std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::string& directory) {
  return write_json_file(spec, results, ExperimentRunner::aggregate(results),
                         directory);
}

}  // namespace klex::exp
