#include "sim/parallel_engine.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace klex::sim {

ParallelEngine::ParallelEngine(Engine& engine, int workers) : engine_(engine) {
  const int lanes = engine_.lane_count();
  KLEX_REQUIRE(workers >= 1 && workers <= lanes, "need 1..", lanes,
               " workers for ", lanes, " lanes, got ", workers);
  // Contiguous lane blocks, as even as the counts allow.
  lane_begin_.reserve(static_cast<std::size_t>(workers) + 1);
  for (int w = 0; w <= workers; ++w) lane_begin_.push_back(w * lanes / workers);
  workers_.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ParallelEngine::~ParallelEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelEngine::run_block(int worker, SimTime last) {
  engine_.run_lane_window(lane_begin_[static_cast<std::size_t>(worker)],
                          lane_begin_[static_cast<std::size_t>(worker) + 1],
                          last);
}

void ParallelEngine::worker_main(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime last;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      last = window_last_;
    }
    run_block(worker, last);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) window_done_.notify_one();
    }
  }
}

void ParallelEngine::run_until(SimTime t) {
  KLEX_REQUIRE(t < kTimeInfinity, "windowed runs need a finite horizon");
  engine_.start();
  // Closed lanes never exchange a message, so only the observer-buffer
  // cap bounds their windows.
  const SimTime lookahead = engine_.lanes_closed()
                                ? engine_.bucket_window()
                                : engine_.delay_model().min_delay;
  bool observers_block =
      engine_.lane_count() > 1 && engine_.has_blocking_observers();
  for (;;) {
    if (observers_block || engine_.pending_callbacks() > 0) {
      // Callback closures may share state across lanes and blocking
      // observers do; neither is safe on concurrent threads. (Window-safe
      // observers -- lane-local buffers merged at the barrier -- do not
      // force this path.) The engine's own loop executes the exact same
      // per-lane (at, seq) trajectory, just on one thread.
      ++stats_.merged_fallbacks;
      engine_.run_until(t);
      return;
    }
    SimTime window_start = engine_.next_event_time();
    if (window_start > t) break;
    // All events in [window_start, window_end) are causally closed per
    // lane; run them concurrently. The horizon clamp keeps events at
    // exactly t executable (run_until semantics) without overshooting.
    SimTime window_last = window_start + lookahead - 1;  // inclusive
    window_last = std::min(window_last, t);
    engine_.begin_window(window_start);
    {
      // Publishing after begin_window: the lock hand-off is what makes
      // the lane-clock writes visible to the woken workers.
      std::lock_guard<std::mutex> lock(mu_);
      window_last_ = window_last;
      outstanding_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    work_ready_.notify_all();
    run_block(0, window_last);
    {
      std::unique_lock<std::mutex> lock(mu_);
      window_done_.wait(lock, [&] { return outstanding_ == 0; });
    }
    engine_.end_window();
    ++stats_.windows;
  }
  engine_.sync_lanes_to(t);
}

}  // namespace klex::sim
