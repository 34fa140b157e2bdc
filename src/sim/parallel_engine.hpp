// Conservative time-window execution over a lane-partitioned Engine.
//
// The paper's model guarantees every channel delay is at least
// DelayModel::min_delay -- that lower bound is exactly the lookahead a
// conservative parallel discrete-event simulator needs. The loop:
//
//   W   = earliest pending event across all lanes
//   end = min(W + lookahead, horizon + 1)
//   every lane executes its events with timestamps in [W, end); each
//       worker thread runs a contiguous block of lanes one after
//       another, the workers concurrently (worker 0 inline on the
//       calling thread);
//   barrier: cross-lane deliveries created inside the window are merged
//       into their destination queues (Engine::end_window).
//
// Soundness: the lookahead is min_delay, so a delivery created at time
// s >= W is scheduled at s + delay >= W + min_delay >= end, and no lane
// can receive an event inside the very window that created it -- each
// lane's [W, end) slice is causally closed and the merge at the barrier
// cannot be late. On closed lanes (Engine::lanes_closed: no channel
// crosses lanes, as in a fleet) nothing ever crosses a lane, so the
// lookahead is the engine's bucket_window() instead, the same cap that
// bounds window-safe observers' buffers in Engine::run_until.
//
// Determinism: per (seed, lane partition) the trajectory is a pure
// function -- each lane executes its own events in (at, seq) order with
// its own rng stream, and cross-lane interaction is FIFO per channel --
// and it equals the merged-serial trajectory Engine::run_until produces
// for the same partition. With one lane the loop degenerates to the
// serial engine, bit for bit (pinned by parallel_differential_test).
//
// Threaded windows require that lanes share no mutable state, which
// workload callbacks (closures that may share state across lanes, such
// as a driver's totals) and *blocking* observers break; run_until then
// falls back to the trajectory-identical Engine::run_until on the
// calling thread (merged-serial, or one lane after another on closed
// lanes). Observers that declare themselves window_safe() -- lane-local
// record buffers merged at the window barrier, like the buffered
// SafetyMonitor -- ride the windowed executor (they get
// on_window_merge() after Engine::end_window).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace klex::sim {

class ParallelEngine {
 public:
  /// Binds to `engine` with `workers` threads (1..lane_count()). Worker
  /// w runs a contiguous block of lanes; worker 0 is the thread calling
  /// run_until, the others are persistent threads. The engine must
  /// outlive this object and must not be repartitioned while bound.
  ParallelEngine(Engine& engine, int workers);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Runs until simulated time exceeds `t` (events at exactly `t` are
  /// still executed) or the queues empty; windowed while no callbacks
  /// are pending and (for multi-lane engines) no *blocking* observers
  /// are attached (window-safe observers ride the windows),
  /// merged-serial otherwise. `t` must be finite.
  void run_until(SimTime t);

  struct WindowStats {
    /// Windows executed (== barriers crossed).
    std::uint64_t windows = 0;
    /// run_until calls (or tails of calls) that fell back to the
    /// merged-serial loop because callbacks or observers were live.
    std::uint64_t merged_fallbacks = 0;
  };

  const WindowStats& window_stats() const { return stats_; }

  /// Worker threads, the calling thread included.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void worker_main(int worker);
  /// Runs worker `worker`'s block of lanes through the open window.
  void run_block(int worker, SimTime last);

  Engine& engine_;
  WindowStats stats_;

  // Generation barrier: run_until publishes {window_end_, generation_}
  // under mu_ and wakes the workers; each worker runs its lane's window
  // and decrements outstanding_; the last one wakes the main thread.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable window_done_;
  std::uint64_t generation_ = 0;
  SimTime window_last_ = 0;  // inclusive end of the open window
  int outstanding_ = 0;
  bool shutdown_ = false;

  // Worker w runs lanes [lane_begin_[w], lane_begin_[w + 1]).
  std::vector<int> lane_begin_;
  std::vector<std::thread> workers_;  // workers 1..threads()-1
};

}  // namespace klex::sim
