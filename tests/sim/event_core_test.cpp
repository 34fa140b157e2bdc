// The rewritten event core: callback-slab recycling, timer-generation
// invalidation through the flat table, heap ordering under stress, and
// the EngineStats counters the benchmark JSON reports.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/builder.hpp"
#include "sim/engine.hpp"

namespace klex::sim {
namespace {

class Sink : public Process {
 public:
  void on_message(int, const Message&) override { ++deliveries; }
  void on_timer(int timer_id) override { timer_fires.push_back(timer_id); }
  using Process::send;
  using Process::set_timer;
  int deliveries = 0;
  std::vector<int> timer_fires;
};

struct Net {
  explicit Net(DelayModel delays = {}, std::uint64_t seed = 1)
      : engine(delays, seed) {
    auto p0 = std::make_unique<Sink>();
    auto p1 = std::make_unique<Sink>();
    a = p0.get();
    b = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
  }
  Engine engine;
  Sink* a;
  Sink* b;
};

TEST(EventCore, CallbackSlabRecyclesSlots) {
  Net net;
  net.engine.start();
  int fired = 0;
  // Sequential schedule/run cycles: after the first slot exists, no new
  // slots may be created -- the freed slot must be reused every time.
  for (int round = 0; round < 100; ++round) {
    net.engine.schedule(1, [&fired] { ++fired; });
    net.engine.run_until(net.engine.now() + 2);
  }
  EXPECT_EQ(fired, 100);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.callbacks_scheduled, 100u);
  EXPECT_EQ(stats.callback_slots_created, 1u);
}

TEST(EventCore, SlabGrowsToConcurrentPeakOnly) {
  Net net;
  net.engine.start();
  int fired = 0;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 5; ++i) {
      net.engine.schedule(static_cast<SimTime>(1 + i),
                          [&fired] { ++fired; });
    }
    net.engine.run_until(net.engine.now() + 10);
  }
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(net.engine.stats().callback_slots_created, 5u);
}

TEST(EventCore, ReentrantScheduleFromCallbackIsSafe) {
  Net net;
  net.engine.start();
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 10) net.engine.schedule(1, next);
  };
  net.engine.schedule(1, next);
  net.engine.run_until(100);
  EXPECT_EQ(chain, 10);
  // The chain reuses one freed slot per link (freed before the callback
  // runs), so the tail schedule may claim at most one extra slot.
  EXPECT_LE(net.engine.stats().callback_slots_created, 2u);
}

TEST(EventCore, HeapOrderingUnderBurstLoad) {
  // Many same-tick and out-of-order events: times must be non-decreasing
  // and FIFO must hold per channel.
  Net net(DelayModel{1, 64}, 9);
  net.engine.start();
  for (int i = 0; i < 500; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
  EXPECT_EQ(net.b->deliveries, 500);
  EXPECT_EQ(net.engine.stats().messages_delivered, 500u);
  EXPECT_GE(net.engine.stats().max_heap_size, 1u);
}

TEST(EventCore, TimerGenerationsSurviveHeavyRearming) {
  Net net;
  net.engine.start();
  // Rearm the same timer 1000 times; only the last arming may fire.
  for (int i = 0; i < 1000; ++i) {
    net.a->set_timer(3, static_cast<SimTime>(10 + i % 7));
  }
  net.engine.run_until(1000);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EXPECT_EQ(net.a->timer_fires[0], 3);
}

TEST(EventCore, AllTimerIdsIndependent) {
  Net net;
  net.engine.start();
  for (int id = 0; id < Engine::kMaxTimers; ++id) {
    net.a->set_timer(id, static_cast<SimTime>(10 + id));
  }
  net.engine.run_until(100);
  ASSERT_EQ(net.a->timer_fires.size(),
            static_cast<std::size_t>(Engine::kMaxTimers));
  for (int id = 0; id < Engine::kMaxTimers; ++id) {
    EXPECT_EQ(net.a->timer_fires[static_cast<std::size_t>(id)], id);
  }
  EXPECT_THROW(net.a->set_timer(Engine::kMaxTimers, 1),
               std::invalid_argument);
}

TEST(EventCore, ClearedChannelsDoNotAccelerateLaterTraffic) {
  // A delivery event stranded in the heap by clear_channels() must not
  // deliver a later-injected message ahead of its own sampled delay.
  Net net(DelayModel{4, 4}, 3);
  net.engine.start();
  net.a->send(0, Message{1, 1, 0, 0, 0});  // stale event at t = 4
  net.engine.run_until(2);                 // now = 2, delivery pending
  net.engine.clear_channels();
  net.engine.inject_message(0, 0, Message{1, 2, 0, 0, 0});  // due t = 6
  SimTime before = net.engine.now();
  while (net.engine.step()) {
    if (net.b->deliveries > 0) break;
  }
  EXPECT_EQ(net.b->deliveries, 1);
  EXPECT_EQ(net.engine.now(), before + 4);  // full min_delay honored
}

// -- calendar-queue scheduler ------------------------------------------------
//
// The routing policy as a gated invariant, with deterministic counters:
// sparse queues (<= kSparseThreshold pending) stay on the tiny hot heap,
// loaded queues move the bulk onto the O(1) calendar ring, far-future
// events always take the heap, and the (at, seq) merge keeps the split
// invisible to event order. Any drift in the counts below means the
// scheduling policy changed.

TEST(EventCore, SparseTrafficPrefersTheHeap) {
  Net net;  // one outstanding delivery at a time: always sparse
  net.engine.start();
  for (int round = 0; round < 200; ++round) {
    net.a->send(0, Message{1, round, 0, 0, 0});
    net.engine.run_until(net.engine.now() + 20);
  }
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(net.b->deliveries, 200);
  EXPECT_EQ(stats.scheduler.bucket_inserts, 0u);
  EXPECT_EQ(stats.scheduler.bucket_scans, 0u);
  EXPECT_EQ(stats.scheduler.overflow_pushes, 200u);
  EXPECT_EQ(stats.scheduler.overflow_pops, 200u);
}

TEST(EventCore, LoadedQueueMovesTheBulkToTheRing) {
  // A standing burst: the first kSparseThreshold pushes seed the heap,
  // everything past the threshold lands in calendar buckets, and the
  // merge delivers all of it in time order.
  Net net(DelayModel{1, 16}, 9);
  net.engine.start();
  for (int i = 0; i < 100; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EngineStats queued = net.engine.stats();
  EXPECT_EQ(queued.scheduler.overflow_pushes, 8u);  // kSparseThreshold
  EXPECT_EQ(queued.scheduler.bucket_inserts, 92u);
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
  EXPECT_EQ(net.b->deliveries, 100);
}

TEST(EventCore, FarFutureTimerPaysOneHeapRoundTrip) {
  Net net;
  net.engine.start();
  net.a->set_timer(0, 10'000);  // beyond the 1024-tick ring window
  EngineStats armed = net.engine.stats();
  EXPECT_EQ(armed.scheduler.overflow_pushes, 1u);
  EXPECT_EQ(armed.scheduler.overflow_pops, 0u);
  net.engine.run_until(20'000);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EngineStats fired = net.engine.stats();
  EXPECT_EQ(fired.scheduler.overflow_pushes, 1u);
  EXPECT_EQ(fired.scheduler.overflow_pops, 1u);
}

TEST(EventCore, SameTickBurstStaysFifoInOneBucket) {
  // Fixed 4-tick delay, 2000 sends at t=0: the FIFO clamp
  // (max(now+delay, last_scheduled)) lands every delivery on tick 4 --
  // a deep backlog piles onto ONE bucket (after the sparse-threshold
  // heap seed), and the (at, seq) merge drains heap seqs 0..7 then ring
  // seqs 8..1999: exact send order.
  Net net(DelayModel{4, 4}, 5);
  net.engine.start();
  for (int i = 0; i < 2000; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EngineStats queued = net.engine.stats();
  EXPECT_EQ(queued.scheduler.overflow_pushes, 8u);
  EXPECT_EQ(queued.scheduler.bucket_inserts, 1992u);
  net.engine.run_until(10'000);
  EXPECT_EQ(net.b->deliveries, 2000);
  EXPECT_EQ(net.engine.stats().scheduler.bucket_scans, 1u);  // one bucket
}

TEST(EventCore, FarEventOutwaitsRingTrafficAndFiresOnTime) {
  // A callback beyond the ring window sits on the heap while in-window
  // ring traffic churns past it, and still fires at its exact tick.
  Net net(DelayModel{1, 16}, 13);
  net.engine.start();
  int fired_at = -1;
  net.engine.schedule(1'500, [&net, &fired_at] {
    fired_at = static_cast<int>(net.engine.now());
  });                                          // beyond 1024: heap
  for (int i = 0; i < 64; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  EXPECT_EQ(net.engine.stats().scheduler.overflow_pushes, 8u);  // incl. cb
  net.engine.run_until(1'000);
  EXPECT_EQ(net.b->deliveries, 64);
  EXPECT_EQ(fired_at, -1);
  net.engine.run_until(2'000);
  EXPECT_EQ(fired_at, 1500);
}

TEST(EventCore, BinaryHeapModeBypassesTheRing) {
  Engine engine(DelayModel{}, 1, SchedulerKind::kBinaryHeap);
  auto p0 = std::make_unique<Sink>();
  Sink* a = p0.get();
  engine.add_process(std::move(p0));
  engine.add_process(std::make_unique<Sink>());
  engine.connect(0, 0, 1, 0);
  engine.start();
  for (int i = 0; i < 50; ++i) a->send(0, Message{1, i, 0, 0, 0});
  engine.run_until(1'000);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.messages_delivered, 50u);
  EXPECT_EQ(stats.scheduler.bucket_inserts, 0u);
  EXPECT_EQ(stats.scheduler.bucket_scans, 0u);
  EXPECT_EQ(stats.scheduler.overflow_pushes, 50u);
  EXPECT_EQ(stats.scheduler.overflow_pops, 50u);
}

TEST(EventCore, StatsCountersAreCoherent) {
  Net net;
  net.engine.start();
  for (int i = 0; i < 20; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  net.engine.schedule(5, [] {});
  net.engine.run_until(100000);
  EngineStats stats = net.engine.stats();
  EXPECT_EQ(stats.messages_sent, 20u);
  EXPECT_EQ(stats.messages_delivered, 20u);
  EXPECT_EQ(stats.events_executed, net.engine.events_executed());
  EXPECT_EQ(stats.callbacks_scheduled, 1u);
  EXPECT_GE(stats.max_heap_size, 20u);  // the burst was all pending at once
}

TEST(EventCore, SerialFleetNeverSortsABucket) {
  // Every event of a serial engine -- each tenant's included -- takes the
  // one lane seq counter, so buckets fill in seq order and the lazy sort
  // never runs, however many tenants share a tick.
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_balanced(2, 3))
      .kl(2, 4)
      .seed(11)
      .workload(proto::WorkloadSpec{})
      .fleet(64);
  Session session = builder.build_session();
  session.begin_workload();
  session.system->run_until(100'000);
  const SchedulerCounters counters =
      session.system->engine().stats().scheduler;
  EXPECT_GT(counters.bucket_inserts, 0u);
  EXPECT_EQ(counters.bucket_sorts, 0u);
  EXPECT_EQ(counters.sorted_events, 0u);
}

TEST(EventCore, CrossLanePushesSortTheBucketOnce) {
  // Node 1 lives on lane 1. Twenty deliveries from lane 0 (seqs 0, 2,
  // .., 38) and then node 1's own timer (seq 1) all land on tick 5 of
  // lane 1's queue: the timer is appended behind higher seqs, so the
  // bucket is sorted once, on first read.
  Net net(DelayModel{5, 5});
  net.engine.configure_lanes({0, 1}, 2);
  net.engine.start();
  for (int i = 0; i < 20; ++i) net.a->send(0, Message{1, i, 0, 0, 0});
  net.b->set_timer(0, 5);
  net.engine.run_until(5);
  const SchedulerCounters counters = net.engine.stats().scheduler;
  EXPECT_EQ(net.b->deliveries, 20);
  ASSERT_EQ(net.b->timer_fires.size(), 1u);
  EXPECT_EQ(counters.overflow_pushes, 8u);  // kSparseThreshold
  EXPECT_EQ(counters.bucket_sorts, 1u);
  EXPECT_EQ(counters.sorted_events, 13u);  // 12 ring deliveries + timer

  EngineStats twice = net.engine.stats();
  twice.merge(net.engine.stats());
  EXPECT_EQ(twice.scheduler.bucket_sorts, 2u);
  EXPECT_EQ(twice.scheduler.sorted_events, 26u);
}

}  // namespace
}  // namespace klex::sim
