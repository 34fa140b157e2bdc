#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace klex::sim {
namespace {

/// Records deliveries; optionally echoes each message back.
class Recorder : public Process {
 public:
  explicit Recorder(bool echo = false) : echo_(echo) {}

  void on_message(int channel, const Message& msg) override {
    deliveries.push_back({now(), channel, msg});
    if (echo_ && msg.f0 > 0) {
      Message reply = msg;
      --reply.f0;
      send(channel, reply);
    }
  }

  void on_timer(int timer_id) override { timer_fires.push_back(timer_id); }

  struct Delivery {
    SimTime at;
    int channel;
    Message msg;
  };

  std::vector<Delivery> deliveries;
  std::vector<int> timer_fires;

  using Process::cancel_timer;
  using Process::send;
  using Process::set_timer;

 private:
  bool echo_;
};

Message tagged(std::int32_t tag) {
  Message msg;
  msg.type = 1;
  msg.f0 = tag;
  return msg;
}

/// Two nodes connected in both directions on channel 0.
struct Pair {
  explicit Pair(DelayModel delays = {}, std::uint64_t seed = 1)
      : engine(delays, seed) {
    auto p0 = std::make_unique<Recorder>();
    auto p1 = std::make_unique<Recorder>();
    a = p0.get();
    b = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
  }
  Engine engine;
  Recorder* a;
  Recorder* b;
};

TEST(Engine, DeliversMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(7));
  net.engine.run_until(1000);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 7);
  EXPECT_EQ(net.b->deliveries[0].channel, 0);
}

TEST(Engine, FifoOrderPreserved) {
  Pair net(DelayModel{1, 64}, 3);
  net.engine.start();
  for (std::int32_t i = 0; i < 100; ++i) net.a->send(0, tagged(i));
  net.engine.run_until(100000);
  ASSERT_EQ(net.b->deliveries.size(), 100u);
  for (std::int32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(net.b->deliveries[static_cast<std::size_t>(i)].msg.f0, i)
        << "FIFO violated at position " << i;
  }
}

TEST(Engine, DelayWithinBounds) {
  Pair net(DelayModel{5, 9}, 11);
  net.engine.start();
  net.a->send(0, tagged(1));
  net.engine.run_until(100);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_GE(net.b->deliveries[0].at, 5u);
  EXPECT_LE(net.b->deliveries[0].at, 9u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Pair net(DelayModel{1, 16}, seed);
    net.engine.start();
    for (std::int32_t i = 0; i < 50; ++i) net.a->send(0, tagged(i));
    net.engine.run_until(100000);
    std::vector<SimTime> times;
    for (const auto& d : net.b->deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Engine, PingPongTerminates) {
  Pair net;
  net.engine.start();
  // Echo 10 bounces.
  auto echo_pair = Pair(DelayModel{1, 4}, 5);
  // Rebuild with echo processes.
  Engine engine(DelayModel{1, 4}, 5);
  auto p0 = std::make_unique<Recorder>(true);
  auto p1 = std::make_unique<Recorder>(true);
  Recorder* a = p0.get();
  Recorder* b = p1.get();
  engine.add_process(std::move(p0));
  engine.add_process(std::move(p1));
  engine.connect(0, 0, 1, 0);
  engine.connect(1, 0, 0, 0);
  engine.start();
  a->send(0, tagged(9));  // 9 echoes follow
  EXPECT_TRUE(engine.run_until_message_quiescence(10000));
  EXPECT_EQ(engine.messages_delivered(), 10u);
  EXPECT_EQ(a->deliveries.size() + b->deliveries.size(), 10u);
  (void)echo_pair;
}

TEST(Engine, TimerFiresOnce) {
  Pair net;
  net.engine.start();
  net.a->set_timer(2, 50);
  net.engine.run_until(200);
  ASSERT_EQ(net.a->timer_fires.size(), 1u);
  EXPECT_EQ(net.a->timer_fires[0], 2);
}

TEST(Engine, TimerRearmInvalidatesPrevious) {
  Pair net;
  net.engine.start();
  net.a->set_timer(0, 100);
  net.a->set_timer(0, 500);  // rearm before first fire
  net.engine.run_until(300);
  EXPECT_TRUE(net.a->timer_fires.empty());
  net.engine.run_until(600);
  EXPECT_EQ(net.a->timer_fires.size(), 1u);
}

TEST(Engine, TimerCancel) {
  Pair net;
  net.engine.start();
  net.a->set_timer(1, 100);
  net.a->cancel_timer(1);
  net.engine.run_until(1000);
  EXPECT_TRUE(net.a->timer_fires.empty());
}

TEST(Engine, ScheduledCallbacksRun) {
  Pair net;
  net.engine.start();
  int fired = 0;
  net.engine.schedule(10, [&fired] { ++fired; });
  net.engine.schedule(20, [&fired] { ++fired; });
  net.engine.run_until(15);
  EXPECT_EQ(fired, 1);
  net.engine.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, InFlightAccounting) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(1));
  net.a->send(0, tagged(2));
  EXPECT_EQ(net.engine.in_flight_messages(), 2u);
  net.engine.run_until(100000);
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  EXPECT_EQ(net.engine.messages_sent(), 2u);
  EXPECT_EQ(net.engine.messages_delivered(), 2u);
}

TEST(Engine, ForEachInFlightSeesQueuedMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(5));
  int seen = 0;
  net.engine.for_each_in_flight(
      [&seen](const ChannelInfo& info, const Message& msg) {
        ++seen;
        EXPECT_EQ(info.from, 0);
        EXPECT_EQ(info.to, 1);
        EXPECT_EQ(msg.f0, 5);
      });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(net.engine.channel_backlog(0, 0), 1);
  EXPECT_EQ(net.engine.channel_backlog(1, 0), 0);
}

TEST(Engine, ClearChannelsDropsMessages) {
  Pair net;
  net.engine.start();
  net.a->send(0, tagged(1));
  net.a->send(0, tagged(2));
  net.engine.clear_channels();
  EXPECT_EQ(net.engine.in_flight_messages(), 0u);
  net.engine.run_until(100000);
  EXPECT_TRUE(net.b->deliveries.empty());
}

TEST(Engine, InjectMessageBehavesLikeSend) {
  Pair net;
  net.engine.start();
  net.engine.inject_message(0, 0, tagged(33));
  net.engine.run_until(1000);
  ASSERT_EQ(net.b->deliveries.size(), 1u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 33);
  // Injection is not counted as a protocol send.
  EXPECT_EQ(net.engine.messages_sent(), 0u);
  EXPECT_EQ(net.engine.messages_delivered(), 1u);
}

TEST(Engine, InjectionPreservesFifoWithSends) {
  Pair net(DelayModel{1, 32}, 7);
  net.engine.start();
  net.engine.inject_message(0, 0, tagged(100));
  net.a->send(0, tagged(101));
  net.engine.inject_message(0, 0, tagged(102));
  net.engine.run_until(10000);
  ASSERT_EQ(net.b->deliveries.size(), 3u);
  EXPECT_EQ(net.b->deliveries[0].msg.f0, 100);
  EXPECT_EQ(net.b->deliveries[1].msg.f0, 101);
  EXPECT_EQ(net.b->deliveries[2].msg.f0, 102);
}

TEST(Engine, ObserverSeesTraffic) {
  class Counter : public SimObserver {
   public:
    void on_send(SimTime, NodeId, int, const Message&) override { ++sends; }
    void on_deliver(SimTime, NodeId, int, const Message&) override {
      ++delivers;
    }
    int sends = 0;
    int delivers = 0;
  };
  Pair net;
  Counter counter;
  net.engine.add_observer(&counter);
  net.engine.start();
  net.a->send(0, tagged(1));
  net.engine.run_until(1000);
  EXPECT_EQ(counter.sends, 1);
  EXPECT_EQ(counter.delivers, 1);
}

TEST(Engine, RunEventsBudget) {
  Pair net;
  net.engine.start();
  for (int i = 0; i < 10; ++i) net.a->send(0, tagged(i));
  EXPECT_EQ(net.engine.run_events(4), 4u);
  EXPECT_EQ(net.b->deliveries.size(), 4u);
}

TEST(Engine, ConnectValidation) {
  Engine engine;
  engine.add_process(std::make_unique<Recorder>());
  engine.add_process(std::make_unique<Recorder>());
  engine.connect(0, 0, 1, 0);
  EXPECT_THROW(engine.connect(0, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(engine.connect(5, 0, 1, 0), std::invalid_argument);
}

TEST(Engine, ConnectAfterStartRejected) {
  Engine engine;
  engine.add_process(std::make_unique<Recorder>());
  engine.add_process(std::make_unique<Recorder>());
  engine.connect(0, 0, 1, 0);
  engine.start();
  EXPECT_THROW(engine.connect(1, 0, 0, 0), std::invalid_argument);
}

TEST(Engine, ChannelsWiredOutOfNodeOrderResolve) {
  // The channel table is laid out by node; wiring a lower node (or a
  // higher channel) after later nodes must still address each channel.
  Engine engine;
  for (int i = 0; i < 3; ++i) engine.add_process(std::make_unique<Recorder>());
  engine.connect(2, 0, 0, 1);
  engine.connect(0, 1, 2, 0);
  engine.connect(1, 0, 0, 0);
  engine.connect(0, 0, 1, 0);
  engine.connect(2, 2, 1, 1);
  EXPECT_THROW(engine.connect(0, 1, 1, 1), std::invalid_argument);
  engine.start();
  engine.send_from(0, 1, tagged(1));
  engine.send_from(2, 2, tagged(2));
  engine.send_from(2, 2, tagged(3));
  EXPECT_EQ(engine.channel_backlog(0, 0), 0);
  EXPECT_EQ(engine.channel_backlog(0, 1), 1);
  EXPECT_EQ(engine.channel_backlog(1, 0), 0);
  EXPECT_EQ(engine.channel_backlog(2, 0), 0);
  EXPECT_EQ(engine.channel_backlog(2, 2), 2);
  EXPECT_THROW(engine.channel_backlog(2, 1), support::CheckFailure);
  engine.run_until(1000);
  const auto& at0 = dynamic_cast<Recorder&>(engine.process(0)).deliveries;
  const auto& at1 = dynamic_cast<Recorder&>(engine.process(1)).deliveries;
  const auto& at2 = dynamic_cast<Recorder&>(engine.process(2)).deliveries;
  EXPECT_TRUE(at0.empty());
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0].channel, 1);
  EXPECT_EQ(at1[1].msg.f0, 3);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].channel, 0);
}

TEST(Engine, BadDelayModelRejected) {
  EXPECT_THROW(Engine(DelayModel{0, 5}), std::invalid_argument);
  EXPECT_THROW(Engine(DelayModel{6, 5}), std::invalid_argument);
}

TEST(Engine, TimeAdvancesMonotonically) {
  Pair net(DelayModel{1, 8}, 13);
  net.engine.start();
  for (int i = 0; i < 20; ++i) net.a->send(0, tagged(i));
  SimTime last = 0;
  while (net.engine.step()) {
    EXPECT_GE(net.engine.now(), last);
    last = net.engine.now();
  }
}

/// Three nodes, pairwise linked, one per lane of a 3-lane engine. Node
/// channels: 0<->1 on (0,0)/(1,0), 0<->2 on (0,1)/(2,0), 1<->2 on
/// (1,1)/(2,1); every node echoes on the channel it received on.
struct LaneTriangle {
  LaneTriangle() : engine(DelayModel{1, 9}, 7) {
    for (int v = 0; v < 3; ++v) {
      auto node = std::make_unique<Recorder>(/*echo=*/true);
      nodes.push_back(node.get());
      engine.add_process(std::move(node));
    }
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
    engine.connect(0, 1, 2, 0);
    engine.connect(2, 0, 0, 1);
    engine.connect(1, 1, 2, 1);
    engine.connect(2, 1, 1, 1);
    engine.configure_lanes({0, 1, 2}, 3);
  }
  Engine engine;
  std::vector<Recorder*> nodes;
};

TEST(Engine, LaneStreamsSumToTheEngineTotals) {
  // A default engine's streams are its lanes: one each, and the per-
  // stream accessors (each cell may wrap) sum to the engine totals.
  LaneTriangle net;
  ASSERT_EQ(net.engine.stream_count(), 3);
  net.engine.start();
  for (int v = 0; v < 3; ++v) {
    Message msg = tagged(40);
    msg.type = 1 + v % 2;
    net.nodes[static_cast<std::size_t>(v)]->send(0, msg);
    net.nodes[static_cast<std::size_t>(v)]->send(1, msg);
  }
  ASSERT_EQ(net.engine.run_events(90), 90u);
  ASSERT_GT(net.engine.in_flight_messages(), 0u) << "must stop mid-run";
  std::uint64_t events = 0;
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(net.engine.stream_of(s), s);
    events += net.engine.events_executed_in(s);
  }
  EXPECT_EQ(events, net.engine.events_executed());
  for (std::int32_t type : {1, 2}) {
    std::uint64_t sent = 0;
    std::uint64_t in_flight = 0;
    for (int s = 0; s < 3; ++s) {
      sent += net.engine.sent_of_type_in(s, type);
      in_flight += net.engine.in_flight_of_type_in(s, type);
    }
    EXPECT_GT(net.engine.sent_of_type(type), 0u);
    EXPECT_EQ(sent, net.engine.sent_of_type(type)) << "type " << type;
    EXPECT_EQ(in_flight, net.engine.in_flight_of_type(type))
        << "type " << type;
  }
}

TEST(Engine, OutOfEventCallbackRunsOnItsStreamsLane) {
  // A callback scheduled from outside any event queues on its stream's
  // home lane -- for a default engine, the lane of that number.
  LaneTriangle net;
  int lane = -1;
  int stream = -1;
  net.engine.schedule_in_stream(2, 5, [&] {
    lane = Engine::current_lane();
    stream = Engine::current_stream();
  });
  net.engine.run_until(10);
  EXPECT_EQ(lane, 2);
  EXPECT_EQ(stream, 2);
  EXPECT_THROW(net.engine.schedule_in_stream(3, 1, [] {}),
               std::invalid_argument);
}

TEST(Engine, CrossLanePushInsideAWindowFails) {
  // Inside a window another lane's queue belongs to another thread: a
  // callback pushed there must fail loudly, not race. The window runs
  // on its own thread so the thrown-through TLS context dies with it.
  LaneTriangle net;
  bool own_lane_ok = false;
  net.engine.schedule_in_stream(0, 1, [&] {
    net.engine.schedule_in_stream(0, 1, [] {});
    own_lane_ok = true;
    net.engine.schedule_in_stream(1, 1, [] {});
  });
  net.engine.start();
  net.engine.begin_window(1);
  bool threw = false;
  std::thread worker([&] {
    try {
      net.engine.run_lane_window(0, 1, 1);
    } catch (const support::CheckFailure&) {
      threw = true;
    }
  });
  worker.join();
  EXPECT_TRUE(own_lane_ok);
  EXPECT_TRUE(threw);
}

TEST(Engine, CrossLaneSendInsideAWindowFails) {
  // Inside a window a channel's ring and clamp belong to its source
  // lane's thread: a send from a node of another lane must fail loudly,
  // not race. As above, the window runs on its own thread.
  LaneTriangle net;
  bool own_lane_ok = false;
  net.engine.schedule_in_stream(0, 1, [&] {
    net.nodes[0]->send(0, tagged(0));  // lane 0 -> lane 1: the outbox
    own_lane_ok = true;
    net.nodes[1]->send(0, tagged(0));  // node 1 lives on lane 1
  });
  net.engine.start();
  net.engine.begin_window(1);
  bool threw = false;
  std::thread worker([&] {
    try {
      net.engine.run_lane_window(0, 1, 1);
    } catch (const support::CheckFailure&) {
      threw = true;
    }
  });
  worker.join();
  EXPECT_TRUE(own_lane_ok);
  EXPECT_TRUE(threw);
}

/// Two disconnected echo pairs, {0, 1} on lane 0 and {2, 3} on lane 1:
/// no channel crosses lanes.
struct ClosedLanes {
  ClosedLanes() : engine(DelayModel{1, 9}, 11) {
    for (int v = 0; v < 4; ++v) {
      auto node = std::make_unique<Recorder>(/*echo=*/true);
      nodes.push_back(node.get());
      engine.add_process(std::move(node));
    }
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
    engine.connect(2, 0, 3, 0);
    engine.connect(3, 0, 2, 0);
    engine.configure_lanes({0, 0, 1, 1}, 2);
  }
  Engine engine;
  std::vector<Recorder*> nodes;
};

/// Logs the node of every delivery; blocking unless told otherwise.
class DeliveryLog : public SimObserver {
 public:
  explicit DeliveryLog(bool safe) : safe_(safe) {}
  void on_deliver(SimTime, NodeId to, int, const Message&) override {
    nodes.push_back(to);
  }
  bool window_safe() const override { return safe_; }
  std::vector<NodeId> nodes;

 private:
  bool safe_;
};

TEST(Engine, ClosedLanesRunOneAfterAnother) {
  // Lane-major run_until on closed lanes: each lane runs through the
  // whole window before the next starts, yet every node sees exactly the
  // merged-serial trajectory (a blocking observer forces that loop).
  auto run = [](bool blocking, std::vector<NodeId>* order) {
    ClosedLanes net;
    DeliveryLog log(/*safe=*/!blocking);
    net.engine.add_observer(&log);
    net.engine.start();
    EXPECT_TRUE(net.engine.lanes_closed());
    for (Recorder* node : {net.nodes[0], net.nodes[2]}) {
      node->send(0, tagged(400));
    }
    net.engine.run_until(500);
    EXPECT_EQ(net.engine.now(), 500);
    *order = log.nodes;
    std::vector<std::vector<Recorder::Delivery>> out;
    for (Recorder* node : net.nodes) out.push_back(node->deliveries);
    return out;
  };
  std::vector<NodeId> lane_major;
  std::vector<NodeId> merged;
  const auto lane_major_trace = run(false, &lane_major);
  const auto merged_trace = run(true, &merged);
  ASSERT_EQ(lane_major_trace.size(), merged_trace.size());
  for (std::size_t v = 0; v < merged_trace.size(); ++v) {
    ASSERT_EQ(lane_major_trace[v].size(), merged_trace[v].size());
    ASSERT_FALSE(merged_trace[v].empty());
    for (std::size_t i = 0; i < merged_trace[v].size(); ++i) {
      EXPECT_EQ(lane_major_trace[v][i].at, merged_trace[v][i].at);
      EXPECT_EQ(lane_major_trace[v][i].msg.f0, merged_trace[v][i].msg.f0);
    }
  }
  // 500 ticks fit one window: lane 0's deliveries all precede lane 1's,
  // while the merged loop interleaves them by time.
  auto lane_of = [](NodeId v) { return v < 2 ? 0 : 1; };
  ASSERT_EQ(lane_major.size(), merged.size());
  EXPECT_TRUE(std::is_sorted(lane_major.begin(), lane_major.end(),
                             [&](NodeId a, NodeId b) {
                               return lane_of(a) < lane_of(b);
                             }));
  EXPECT_FALSE(std::is_sorted(merged.begin(), merged.end(),
                              [&](NodeId a, NodeId b) {
                                return lane_of(a) < lane_of(b);
                              }));
}

TEST(Engine, ClosedLanesDrainUnderAnInfiniteHorizon) {
  // run_until(kTimeInfinity) ends once the queue empties, lane-major as
  // in the merged loop.
  ClosedLanes net;
  net.engine.start();
  for (Recorder* node : {net.nodes[0], net.nodes[2]}) {
    node->send(0, tagged(3));
  }
  net.engine.run_until(kTimeInfinity);
  EXPECT_EQ(net.engine.events_executed(), 8u);
  EXPECT_EQ(net.engine.next_event_time(), kTimeInfinity);
}

TEST(Engine, CrossingChannelsKeepTheMergedLoop) {
  LaneTriangle net;
  net.engine.start();
  EXPECT_FALSE(net.engine.lanes_closed());
  Pair serial;
  serial.engine.start();
  EXPECT_FALSE(serial.engine.lanes_closed());  // one lane
}

}  // namespace
}  // namespace klex::sim
