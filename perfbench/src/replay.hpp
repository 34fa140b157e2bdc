// Scheduler replay: sim::EventQueue driven directly, with no engine,
// channels or handlers around it.
//
// The queue holds `pending` events (a workload's measured pending-set
// high-water mark). Each step pops the minimum with pop_min_until and
// pushes one successor, a "hold" model, so the size stays constant. The
// successor's delay follows the workload's measured event mix: message
// deliveries draw U{1..16} ticks (the default delay model), client
// callbacks draw exp(callback_mean), and timers land `timer_delay` ticks
// out. Sequence numbers follow one of the engine's two rules:
//   * streams == 1: one monotone counter (a serial lane), so every
//     calendar bucket is appended in seq order;
//   * streams == R: per-stream counters striped as seq * R + stream (the
//     fleet rule). Successors stay in their predecessor's stream, so
//     buckets collect out-of-order seqs and are sorted lazily on read.
// The result separates the queue's share of ns/event from the rest of
// the engine.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace perfbench {

struct ReplayModel {
  std::uint64_t pending = 0;
  double delivery_share = 1.0;  // of events; the rest split below
  double callback_share = 0.0;
  double callback_mean = 48.0;
  klex::sim::SimTime timer_delay = 0;
  int streams = 1;
};

struct ReplayResult {
  std::uint64_t events = 0;
  double ns_per_event = 0.0;
};

/// Runs `events` timed pops (after a warm-up of the same model) and
/// returns wall ns per pop+push. Deterministic in `seed` apart from time.
ReplayResult replay_queue(const ReplayModel& model, std::uint64_t events,
                          std::uint64_t seed);

}  // namespace perfbench
