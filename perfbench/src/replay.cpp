#include "replay.hpp"

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Delays are drawn before timing starts and cycled, so the timed loop
// measures the queue, not the rng.
constexpr std::size_t kDelayTable = 1 << 16;

}  // namespace

ReplayResult replay_queue(const ReplayModel& model, std::uint64_t events,
                          std::uint64_t seed) {
  using klex::sim::Event;
  using klex::sim::EventKind;
  using klex::sim::SimTime;

  klex::support::Rng rng(seed);
  std::vector<SimTime> delays(kDelayTable);
  for (SimTime& delay : delays) {
    const double u = rng.next_double();
    if (u < model.delivery_share) {
      delay = rng.next_in(1, 16);
    } else if (u < model.delivery_share + model.callback_share) {
      delay = static_cast<SimTime>(rng.next_exponential(model.callback_mean));
    } else {
      delay = std::max<SimTime>(model.timer_delay, 1);
    }
  }

  const auto streams = static_cast<std::uint64_t>(std::max(model.streams, 1));
  std::vector<std::uint64_t> stream_seq(streams, 0);
  auto next_seq = [&](std::uint64_t stream) {
    return stream_seq[stream]++ * streams + stream;
  };

  klex::sim::EventQueue queue;
  std::size_t d = 0;
  for (std::uint64_t i = 0; i < model.pending; ++i) {
    Event event;
    event.at = delays[d++ % kDelayTable];
    event.target = static_cast<std::int32_t>(i % streams);
    event.seq = next_seq(i % streams);
    event.kind = EventKind::kCallback;
    queue.push(event);
  }

  auto run = [&](std::uint64_t count) {
    Event event;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!queue.pop_min_until(klex::sim::kTimeInfinity - 1, &event)) break;
      queue.advance_to(event.at);
      event.at += delays[d++ % kDelayTable];
      event.seq = next_seq(static_cast<std::uint64_t>(event.target));
      queue.push(event);
    }
  };

  run(events / 4);  // warm the buckets and the allocator
  const Clock::time_point start = Clock::now();
  run(events);
  const double elapsed = seconds_since(start);
  return {events, elapsed * 1e9 / static_cast<double>(events)};
}

}  // namespace perfbench
