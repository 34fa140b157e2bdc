// The benchmark's workloads and one episode of each: set-up, warm-up,
// measured intervals and correctness checks, driven through the public
// API (SystemBuilder::build_session -> run_until_stabilized ->
// Session::begin_workload -> run_until / Session::apply_planned_fault).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "api/client.hpp"
#include "proto/app.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace perfbench {

/// A failed correctness check: the run prints no metrics and exits 1.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Workload {
  const char* name;
  int arity;   // tree::balanced(arity, height)
  int height;
  int fleet;   // tenants on one engine; 0 = one plain system
  int k;
  int l;
  klex::proto::Features features;
  bool clients;  // closed-loop WorkloadDriver, one client per node
  double think_mean;
  double cs_mean;
  double need_max;  // need ~ Dist::uniform(1, need_max), rounded
  int threads;      // engine lanes
  bool spread_tokens;
  klex::sim::SimTime warmup;   // ticks after set-up, before measuring
  klex::sim::SimTime horizon;  // measured ticks (steady workloads)
  int faults;  // transient faults, one fresh system each; 0 = steady
  klex::sim::SimTime settle;   // ticks after each re-legitimacy, checked
  klex::sim::SimTime stabilize_deadline;
  klex::sim::SimTime recovery_deadline;
};

/// The workload named `name`, or null.
const Workload* find_workload(const std::string& name);

/// The windowed-engine probe (NOTES.md): run as an episode by traced
/// runs to measure the ParallelEngine window layer.
const Workload& window_probe();

struct SentByType {
  std::uint64_t resource = 0, control = 0, pusher = 0, priority = 0;
  std::uint64_t total() const {
    return resource + control + pusher + priority;
  }
};

/// Everything one episode measured. Host times are seconds; the rest
/// is fixed by the seed and identical in every episode of a run.
struct Episode {
  // host time
  double setup_s = 0, tree_s = 0, build_s = 0, stabilize_s = 0;
  double phase_s = 0;     // sum over measured intervals
  // phase_s at the reference host speed: each interval's wall time
  // scaled by reference_rate() / kReferenceRate around it (reference.hpp)
  double reference_s = 0;
  double fault_s = 0;     // apply_planned_fault, summed
  double recovery_s = 0;  // median over faults, fault -> re-legitimacy
  double verify_s = 0, stats_s = 0;  // listener time in measured intervals
  double materialize_s = 0, partition_s = 0;  // traced replays only
  // trajectory
  klex::sim::SimTime stabilized_at = 0;
  std::uint64_t stabilize_events = 0;
  klex::sim::SimTime phase_ticks = 0;     // sum over measured intervals
  klex::sim::SimTime recovery_ticks = 0;  // median over faults
  std::uint64_t events = 0, sent = 0, delivered = 0, callbacks = 0;
  klex::sim::SchedulerCounters queue{};
  std::uint64_t max_pending = 0;
  std::uint64_t windows = 0, merged_fallbacks = 0;
  SentByType sent_type;
  std::int64_t acquires = 0, grants = 0, denials = 0, leases_revoked = 0;
  std::int64_t denials_by_reason[klex::kDenyReasonCount] = {};
  /// Acquisitions denied or leases revoked outside any fault window.
  std::int64_t failed_outside_faults = 0;
  std::uint64_t latency_count = 0;
  double p50 = 0, p99 = 0, p999 = 0;  // 0 = fewer than 10 samples beyond
  std::uint64_t verify_calls = 0, stats_calls = 0;
  std::uint64_t circulations = 0, tokens_minted = 0;
  std::uint64_t digest = 0;

  double events_per_s() const {
    return static_cast<double>(events) / phase_s;
  }
  /// Events per host second at the reference host speed.
  double normalized_events_per_s() const {
    return static_cast<double>(events) / reference_s;
  }
  /// The reference's mean rate over the measured intervals.
  double reference_mean_rate() const {
    return reference_s / phase_s * kReferenceRate;
  }
  double failed_ratio() const {
    return acquires > 0 ? static_cast<double>(denials + leases_revoked) /
                              static_cast<double>(acquires)
                        : 0.0;
  }
};

/// Builds the system and runs it to its first legitimate census; returns
/// the host seconds that took. The system is then discarded (repeated
/// set-ups make setup_s a median).
double setup_only(const Workload& w, std::uint64_t seed);

/// One full episode. `traced` times every listener callback and records
/// spans into `tracer` (a disabled tracer records nothing). Throws
/// CheckFailure when a correctness check fails.
Episode run_episode(const Workload& w, std::uint64_t seed, Tracer& tracer,
                    bool traced);

/// Times stree::partition_tree and the workload materialization on the
/// inputs build_session gives them, filling partition_s / materialize_s
/// (the benchmark cannot span the calls inside build_session).
void replay_setup_layers(const Workload& w, std::uint64_t seed,
                         Tracer& tracer, Episode& ep);

std::string hex(std::uint64_t v);

}  // namespace perfbench
