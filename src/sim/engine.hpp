// Discrete-event simulation engine for asynchronous message-passing
// systems (the paper's model of computation, Section 2).
//
// The engine owns:
//   * the pending-event set (ordered by (at, seq), so runs are
//     bit-reproducible from the seed);
//   * the directed FIFO channels between process channel endpoints;
//   * the registered processes and their timers.
//
// Model properties implemented here:
//   * Asynchrony   -- every message gets an independent random delay drawn
//     from [min_delay, max_delay]; process steps are triggered by
//     deliveries, so relative process speeds are unbounded but fair.
//   * Reliable FIFO channels -- delivery times per channel are forced to be
//     monotone, and ties preserve send order.
//   * Bounded initial channel content -- fault injection can preload each
//     channel with up to CMAX arbitrary messages (see inject_garbage()).
//
// Lanes. The engine is organized as `lane_count()` partitions ("lanes").
// A lane owns what only its thread touches: an EventQueue, a clock, a seq
// counter, a callback slab, a cross-lane outbox and its message/event
// totals. The default engine has exactly one lane and runs the classic
// serial loop; configure_lanes() splits the node set across lanes
// (sim::ParallelEngine then executes conservative time windows, each
// worker thread running a contiguous block of lanes). Every event's seq
// is striped as `lane_seq * lane_count + lane`, which keeps the (at, seq)
// total order globally unique and independent of which lane queue holds
// the event -- with one lane this reduces to the plain insertion counter.
//
// Closed lanes. When no channel crosses lanes (a fleet's lanes are
// blocks of whole tenants), every lane is causally closed: nothing one
// lane does can reach another. run_until() then runs the lanes one after
// another, each through a window of up to bucket_window() ticks, instead
// of interleaving all of them by time -- each lane's working set stays
// small, and every lane's own (at, seq) order is exactly the one the
// merged-serial loop gives it. Only the interleaving of different lanes
// differs, so observers and listeners see each lane's calls in order but
// the lanes one after another (a blocking observer keeps the merged loop).
//
// Streams. Every node belongs to one stream, the namespace that owns the
// delay rng and the per-type census cells of its traffic: a send draws
// its delay from the channel's source stream and counts in that stream's
// cells, a delivery decrements its destination stream's cell. A default
// engine has one stream per lane, seeded as its lanes (stream 0 on the
// engine seed, stream i >= 1 on a salted split), so its streams are its
// lanes. configure_streams() replaces them with one stream per tenant
// for fleets (api/fleet.hpp), each seeded independently of the engine
// seed. A tenant's delay draws are then byte-identical to a standalone
// engine running that tenant alone with the stream's seed, and since the
// tenant pushes its events in the same relative order as that twin, its
// (at, seq) sub-order is too; only how different tenants interleave
// within one tick depends on the fleet. Streams own no seq counter and
// must nest inside lanes (every node of a stream on one lane). Tenant
// streams never share a channel, so each tenant's cells are exact on
// their own; a default engine's cells are only sum-exact (a lane-
// crossing message counts up in one stream and down in another).
//
// Parallel-safety contract (all of it single-writer, no locks):
//   * a channel's FIFO ring, last_scheduled clamp and source-stream rng
//     draws belong to the channel's source lane; cross-lane deliveries
//     created inside a window park in the source lane's outbox and are
//     merged into the destination queue at the window barrier (single-
//     threaded);
//   * an event only runs on the home lane of its stream, so a stream's
//     cells have one writer; counters may individually wrap but their
//     mod-2^64 sums are exact, and they are only summed between windows;
//   * channel epochs and clear_channels() are barrier-only operations.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/message_ring.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace klex::sim {

using NodeId = std::int32_t;

class Engine;

namespace detail {
// Lane executing on this thread: a parallel-window worker sets it for the
// duration of its window, the merged-serial loop for the duration of one
// event dispatch. 0 everywhere else (the serial lane). Header-visible so
// Engine::current_lane() inlines to a single TLS load.
inline thread_local int t_current_lane = 0;
// Stream of the event executing on this thread. Maintained by every
// engine with more than one stream; 0 outside event dispatch (unless a
// ScopedStream says otherwise). Same inlining rationale as
// t_current_lane: the census routes every participant delta through
// Engine::current_stream().
inline thread_local int t_current_stream = 0;
// Global (at, seq) sequence number of the event executing on this
// thread, 0 outside event dispatch. Window-safe observers stamp their
// per-lane records with it so a barrier-time merge by (at, seq)
// reproduces the exact serial observation order.
inline thread_local std::uint64_t t_current_event_seq = 0;
}  // namespace detail

/// Routes *out-of-event* work to one stream's census cells. Management-
/// plane operations that mutate processes outside event execution --
/// fault injection, epoch-cut drains, client-driven releases -- fire
/// participant deltas that the census attributes to
/// Engine::current_stream(); wrapping the operation in a ScopedStream
/// makes that attribution explicit instead of defaulting to stream 0.
class ScopedStream {
 public:
  explicit ScopedStream(int stream) : saved_(detail::t_current_stream) {
    detail::t_current_stream = stream;
  }
  ~ScopedStream() { detail::t_current_stream = saved_; }
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

 private:
  int saved_;
};

/// Base class for a simulated process (one per tree node).
///
/// Handlers run atomically: all sends performed inside a handler are
/// timestamped with the same "now". Subclasses implement the paper's
/// per-message actions in on_message() and the root's TimeOut() in
/// on_timer().
class Process {
 public:
  virtual ~Process() = default;

  /// A message arrived on local channel `channel`.
  virtual void on_message(int channel, const Message& msg) = 0;

  /// Timer `timer_id` (set via set_timer) fired.
  virtual void on_timer(int timer_id) { (void)timer_id; }

  /// Called once when the simulation starts, before any delivery.
  virtual void on_start() {}

  NodeId id() const { return id_; }

 protected:
  Engine& engine() const { return *engine_; }

  /// Sends `msg` on local channel `channel` (must be connected).
  void send(int channel, const Message& msg);

  /// (Re)arms timer `timer_id` to fire after `delay` ticks; a timer that
  /// was already armed is implicitly cancelled (generation bump).
  void set_timer(int timer_id, SimTime delay);

  /// Disarms timer `timer_id` if armed.
  void cancel_timer(int timer_id);

  /// Current simulated time (the executing lane's clock).
  SimTime now() const;

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  NodeId id_ = -1;
};

/// Uniform-integer message delay model. delays are drawn from
/// [min_delay, max_delay] per message (then clamped for FIFO order).
/// min_delay doubles as the conservative lookahead of the parallel
/// engine: a window of min_delay ticks can never receive a cross-lane
/// delivery scheduled inside itself.
struct DelayModel {
  SimTime min_delay = 1;
  SimTime max_delay = 16;
};

/// Observation points, used by the stats and verification layers.
///
/// By default an observer is *blocking*: it may keep shared mutable
/// state, so the parallel engine falls back to the merged-serial loop
/// while one is attached. An observer that only appends to per-lane
/// buffers during callbacks (keyed by Engine::current_lane() /
/// current_event_seq()) and merges them at the window barrier may
/// declare itself window-safe; it then rides the windowed executor and
/// receives on_window_merge() after every barrier (serial context).
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_send(SimTime at, NodeId from, int channel,
                       const Message& msg) {
    (void)at; (void)from; (void)channel; (void)msg;
  }
  virtual void on_deliver(SimTime at, NodeId to, int channel,
                          const Message& msg) {
    (void)at; (void)to; (void)channel; (void)msg;
  }
  /// True = callbacks are lane-local (no shared mutable state), so the
  /// windowed ParallelEngine need not fall back to merged-serial.
  virtual bool window_safe() const { return false; }
  /// Window barrier (serial context, after the outbox merge): a
  /// window-safe observer merges its per-lane buffers here.
  virtual void on_window_merge() {}
};

/// Identifies a directed channel for census iteration.
struct ChannelInfo {
  NodeId from = -1;
  int from_channel = -1;
  NodeId to = -1;
  int to_channel = -1;
};

/// Event-core counters, exposed for benchmarks: the experiment output
/// records them so perf regressions (per-event heap allocations creeping
/// back in) are visible in the BENCH_*.json trajectory. For multi-lane
/// engines every field is the sum over lanes.
struct EngineStats {
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Callbacks scheduled over the run.
  std::uint64_t callbacks_scheduled = 0;
  /// Slab slots ever constructed; stays flat once the slab warms up
  /// (callback scheduling then does zero slot allocations).
  std::uint64_t callback_slots_created = 0;
  /// High-water mark of the pending-event set (ring + overflow heap),
  /// summed over lanes.
  std::uint64_t max_heap_size = 0;
  /// Full in-flight walks (for_each_in_flight calls). The incremental
  /// census keeps this at zero during run_until_stabilized; the counter is
  /// in the BENCH_*.json trajectory so O(channels) polling cannot silently
  /// creep back into a hot loop.
  std::uint64_t in_flight_walks = 0;
  /// Calendar ring window chosen at boot (satellite of the scheduler
  /// auto-tune): 1024 unless the delay model or a declared timer span
  /// outranged the default window.
  std::uint64_t bucket_window = 0;
  /// Chaos decision counters (zero unless a ChaosModel is attached);
  /// deterministic per (seed, config), so they ride in the BENCH_*.json
  /// trajectory like the scheduler counters.
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_reordered = 0;
  std::uint64_t chaos_jittered = 0;
  /// Deterministic scheduler-op counters (see sim::SchedulerCounters):
  /// calendar-ring inserts, find-min bitmap scans and heap-fallback
  /// traffic. Pinned by tests/sim/event_core_test and carried in the
  /// BENCH_*.json trajectory, so "schedule/pop are O(1) amortized" is a
  /// gated invariant: overflow_pushes growing toward bucket_inserts means
  /// the heap fallback became the hot path again.
  SchedulerCounters scheduler{};

  /// Adds another engine's counters into these (a batch of separate
  /// engines reports one total). The calendar window is a configuration,
  /// not a count, so it keeps the max.
  void merge(const EngineStats& other) {
    events_executed += other.events_executed;
    messages_sent += other.messages_sent;
    messages_delivered += other.messages_delivered;
    callbacks_scheduled += other.callbacks_scheduled;
    callback_slots_created += other.callback_slots_created;
    max_heap_size += other.max_heap_size;
    in_flight_walks += other.in_flight_walks;
    bucket_window = std::max(bucket_window, other.bucket_window);
    chaos_dropped += other.chaos_dropped;
    chaos_duplicated += other.chaos_duplicated;
    chaos_reordered += other.chaos_reordered;
    chaos_jittered += other.chaos_jittered;
    scheduler.bucket_inserts += other.scheduler.bucket_inserts;
    scheduler.bucket_scans += other.scheduler.bucket_scans;
    scheduler.overflow_pushes += other.scheduler.overflow_pushes;
    scheduler.overflow_pops += other.scheduler.overflow_pops;
    scheduler.bucket_sorts += other.scheduler.bucket_sorts;
    scheduler.sorted_events += other.scheduler.sorted_events;
  }
};

class Engine {
 public:
  explicit Engine(DelayModel delays = {},
                  std::uint64_t seed = support::Rng::kDefaultSeed,
                  SchedulerKind scheduler = SchedulerKind::kCalendar);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- topology wiring ------------------------------------------------------

  /// Registers `process` as node `id() == index of registration`.
  /// Returns the id. All processes must be added before connect().
  NodeId add_process(std::unique_ptr<Process> process);

  /// Creates the directed FIFO channel from (`from`, `from_channel`) to
  /// (`to`, `to_channel`). Both directions of a link are two calls.
  /// Wiring is fixed at start(): connecting a started engine throws.
  void connect(NodeId from, int from_channel, NodeId to, int to_channel);

  int process_count() const { return static_cast<int>(processes_.size()); }

  Process& process(NodeId id);
  const Process& process(NodeId id) const;

  // -- lanes (partitioned parallel execution) --------------------------------

  /// Splits the node set into `lane_count` lanes: node v belongs to lane
  /// `node_lane[v]`. Must be called after wiring and before start();
  /// resets all lane-local state (queues must be empty) and rebuilds the
  /// default streams, one per lane: stream 0 keeps the engine's seed, so
  /// a 1-lane configuration is the serial engine. A fleet calls
  /// configure_streams after it.
  void configure_lanes(const std::vector<int>& node_lane, int lane_count);

  int lane_count() const { return static_cast<int>(lanes_.size()); }

  /// Lane of `node` (0 for unconfigured engines).
  int lane_of(NodeId node) const {
    return node_lane_.empty() ? 0
                              : node_lane_[static_cast<std::size_t>(node)];
  }

  /// Lane executing on the calling thread: the worker's lane inside a
  /// parallel window, the dispatching lane in the merged-serial loop, 0
  /// on any other thread. Window-safe observers buffer per lane through
  /// this on every callback, so the read must inline (one TLS load, no
  /// cross-TU call).
  static int current_lane() { return detail::t_current_lane; }

  /// Most lanes any engine supports (sized so the census's padded cells
  /// for a default engine's per-lane streams stay tiny; the partitioners
  /// clamp to it).
  static constexpr int kMaxLanes = 16;

  /// True once a started engine with more than one lane is known to have
  /// no channel crossing lanes (recorded at start()): every lane is then
  /// causally closed, and run_until() runs the lanes one after another.
  bool lanes_closed() const { return lanes_closed_; }

  /// Calendar ring window in ticks: the longest window the closed-lane
  /// loops run a lane through at once, so the per-lane buffers of
  /// window-safe observers stay bounded.
  SimTime bucket_window() const {
    return static_cast<SimTime>(lanes_[0].queue.bucket_window());
  }

  // -- streams (rng and census namespaces; see the file comment) -------------

  /// Replaces the default streams with tenant streams: node v belongs to
  /// stream `node_stream[v]`, and stream s draws its channels' delays from
  /// its own Rng(stream_seeds[s]) and counts their traffic in its own
  /// census cells. Event seqs keep the lane rule. Must be called after
  /// wiring and configure_lanes, and before start(). Every stream must
  /// nest inside one lane and no channel may cross streams -- that is what
  /// keeps stream state single-writer and tenants causally independent.
  void configure_streams(const std::vector<int>& node_stream,
                         const std::vector<std::uint64_t>& stream_seeds);

  /// Number of streams: lane_count() for a default engine, the tenant
  /// count after configure_streams.
  int stream_count() const { return static_cast<int>(streams_.size()); }

  /// Stream of `node` (0 for unconfigured engines).
  int stream_of(NodeId node) const {
    return node_stream_.empty()
               ? 0
               : node_stream_[static_cast<std::size_t>(node)];
  }

  /// Stream of the event executing on the calling thread (0 on a single-
  /// stream engine). The census routes its per-stream accumulators
  /// through this on every participant delta, so the read must inline
  /// (one TLS load, no cross-TU call).
  static int current_stream() { return detail::t_current_stream; }

  /// Stream of the most recently executed merged-serial event (0 before
  /// any, and always 0 on a single-stream engine). Lets a fleet's
  /// stabilization loop re-check only the tenant the last event could
  /// have perturbed instead of scanning all R tenants.
  int last_stream() const { return last_stream_; }

  // -- execution ------------------------------------------------------------

  /// Calls on_start() on every process (once); implicit in the run methods.
  void start() {
    if (!started_) boot();
  }

  /// Executes a single event. Returns false if the queue was empty.
  /// With several lanes this is the merged-serial loop: the global
  /// (at, seq) minimum across lanes, so any-P trajectories match the
  /// windowed parallel execution event for event.
  bool step();

  /// Runs until simulated time exceeds `t` (events at exactly `t` are
  /// still executed) or the queue empties. On closed lanes without a
  /// blocking observer the lanes run one after another (see the file
  /// comment); otherwise this is the merged-serial loop.
  void run_until(SimTime t);

  /// Runs at most `max_events` events; returns the number executed.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Runs until no *message* deliveries are pending (timer events may
  /// remain) or `max_events` have been executed. Returns true if message
  /// quiescence was reached -- how deadlocks (Figure 2) are detected.
  bool run_until_message_quiescence(std::uint64_t max_events);

  SimTime now() const;

  /// Timestamp of the earliest pending event across all lanes, or
  /// kTimeInfinity if the queues are empty. Lets callers prove "nothing
  /// can happen before t" without executing anything (event-driven
  /// stabilization detection), and doubles as the next window start for
  /// the parallel engine.
  SimTime next_event_time() const;

  /// Which scheduler this engine runs on (kCalendar unless the caller
  /// opted into the binary-heap reference for differential testing).
  SchedulerKind scheduler() const { return scheduler_kind_; }

  std::uint64_t messages_sent() const;
  std::uint64_t messages_delivered() const;
  std::uint64_t events_executed() const;

  /// Number of in-flight (sent, not yet delivered) messages.
  std::uint64_t in_flight_messages() const;

  /// Number of scheduled-but-unfired callbacks across all lanes. The
  /// parallel engine refuses to run threaded windows while any are
  /// pending (a callback runs on its stream's lane, but its closure may
  /// share state with other lanes' callbacks, as a workload driver's
  /// totals do) and falls back to Engine::run_until, which is
  /// trajectory-identical.
  std::uint64_t pending_callbacks() const;

  // -- window protocol (driven by sim::ParallelEngine) -----------------------
  //
  // begin_window(W) -> concurrent run_lane_window(first, end, last) over
  // disjoint lane ranges -> end_window() -> repeat; finish with
  // sync_lanes_to(t). Between begin_window and end_window only
  // run_lane_window may touch the engine, each lane index from at most
  // one thread. run_lanes_window is one whole window on one thread.

  /// Opens a window starting at `start` (>= every lane clock): advances
  /// all lane clocks and ring windows, and flips sends into deferred
  /// cross-lane outbox mode.
  void begin_window(SimTime start);

  /// Per-event hook for run_lane_window: called after each event the
  /// lane executes, on that lane's thread, with the event's stream.
  class LaneProbe {
   public:
    virtual void after_event(int lane, int stream, const Event& event) = 0;

   protected:
    ~LaneProbe() = default;
  };

  /// Executes every pending event with at <= `t` (the window end,
  /// exclusive, minus one) of lanes [first, end), one lane after another.
  /// Thread-safe across disjoint lane ranges while a window is open.
  /// `probe`, if any, sees every executed event.
  void run_lane_window(int first, int end, SimTime t,
                       LaneProbe* probe = nullptr);

  /// Closes the window: merges every lane outbox (in lane order) into
  /// the destination queues and channel rings. Single-threaded.
  void end_window();

  /// Advances every lane clock to at least `t` (end of a windowed run).
  void sync_lanes_to(SimTime t);

  /// One whole window on the calling thread: begin_window(start), every
  /// lane through `last` in lane order (probed by `probe`, if any),
  /// end_window(), sync_lanes_to(last). The closed-lane loops' step.
  void run_lanes_window(SimTime start, SimTime last,
                        LaneProbe* probe = nullptr);

  /// True between begin_window and end_window: observer callbacks may be
  /// firing concurrently from several lane threads, so a window-safe
  /// observer must buffer per lane instead of applying directly.
  bool in_window() const { return in_window_; }

  bool has_observers() const { return !observers_.empty(); }

  /// True while any attached observer is NOT window-safe (shared mutable
  /// state): the parallel engine must fall back to merged-serial.
  /// Window-safe observers (lane-local buffers merged at the barrier)
  /// ride the windowed executor.
  bool has_blocking_observers() const {
    for (const SimObserver* observer : observers_) {
      if (!observer->window_safe()) return true;
    }
    return false;
  }

  /// Global (at, seq) sequence number of the event executing on the
  /// calling thread (0 outside event dispatch). Window-safe observers
  /// stamp per-lane records with it; merged by (at, seq) at the barrier,
  /// the records replay in the exact serial observation order.
  static std::uint64_t current_event_seq() {
    return detail::t_current_event_seq;
  }

  DelayModel delay_model() const { return delays_; }

  // -- chaos (adversarial channels; see sim/chaos.hpp) -----------------------

  /// Attaches a ChaosModel over all channels. Must run after wiring
  /// (and configure_lanes/configure_streams, if any) and before start();
  /// runs once. Engines with default streams switch to the chaos
  /// sequencing described in chaos.hpp, which makes the whole trajectory
  /// lane-count-independent; engines that never call this take the stock
  /// code paths bit for bit.
  void configure_chaos(const ChaosConfig& config);

  bool has_chaos() const { return chaos_ != nullptr; }

  /// The steady-state chaos config (requires has_chaos()).
  const ChaosConfig& chaos_config() const { return chaos_->steady(); }

  /// Starts a burst episode: `config` overrides the steady config on
  /// every link until now() + duration (replacing any active burst).
  /// Expiry is lazy -- per-decision deadline checks, no events. Call
  /// between windows only (fault application points).
  void chaos_burst(const ChaosConfig& config, SimTime duration);

  /// Burst scoped to channels_[begin, end) (fleet tenants are
  /// channel-contiguous).
  void chaos_burst_channel_range(int begin, int end,
                                 const ChaosConfig& config,
                                 SimTime duration);

  /// Burst scoped to the directed channels between explicit undirected
  /// endpoint pairs (both directions; pairs without a wired channel are
  /// skipped). The fuzzer's minimizer shrinks bursts to fewer links
  /// this way.
  void chaos_burst_links(const std::vector<std::pair<int, int>>& links,
                         const ChaosConfig& config, SimTime duration);

  /// Chaos decision counters summed over links (zero stats without a
  /// model).
  ChaosStats chaos_stats() const {
    return chaos_ ? chaos_->totals() : ChaosStats{};
  }

  /// Messages currently held back for reordering (they count as
  /// in-flight).
  std::uint64_t chaos_held_messages() const {
    return chaos_ ? chaos_->held_messages() : 0;
  }

  const ChaosModel* chaos_model() const { return chaos_.get(); }

  // -- sends / timers (used by Process) --------------------------------------

  void send_from(NodeId from, int channel, const Message& msg);
  void set_timer_for(NodeId node, int timer_id, SimTime delay);
  void cancel_timer_for(NodeId node, int timer_id);

  /// Declares that timers up to `span` ticks out will be armed; boot()
  /// grows the calendar ring window (up to its cap) so such timers do
  /// not fall through to the overflow heap.
  void declare_timer_span(SimTime span);

  /// Schedules `fn` to run at now() + delay as a standalone event (used by
  /// workloads / applications to model request arrivals and CS completion).
  /// The callback runs in the executing stream (stream 0 outside event
  /// execution) and must touch only that stream's nodes: on closed lanes
  /// it runs inside its lane's window while the other lanes stand at
  /// other times, so a callback that acts for several tenants must be
  /// split into one schedule_in_stream per tenant.
  void schedule(SimTime delay, std::function<void()> fn);

  /// schedule() in an explicit stream, for callers that act for a node
  /// other than the executing one (a workload driver arming a node's
  /// first think timer from the main thread). The callback runs in
  /// `stream` and is queued (and sequenced) on the stream's home lane;
  /// schedule() is this with the executing stream. Inside a window only
  /// the executing lane may be pushed to (CheckFailure otherwise).
  void schedule_in_stream(int stream, SimTime delay,
                          std::function<void()> fn);

  // -- fault injection / census ----------------------------------------------

  /// Appends `msg` to the channel (`from`,`from_channel`) as if it had been
  /// sent now; used to preload channels with arbitrary initial content.
  void inject_message(NodeId from, int from_channel, const Message& msg);

  /// Drops every in-flight message from all channels (part of "transient
  /// fault" injection before re-seeding channels with garbage).
  void clear_channels();

  /// Drops the in-flight content of channels_[begin, end) only -- the
  /// per-tenant half of clear_channels(). The fleet layer keeps each
  /// tenant's channels contiguous, so a single-tenant epoch cut clears
  /// O(tenant) channels and decrements exactly that tenant's per-type
  /// counters; other tenants' traffic, clamps and counters are untouched.
  void clear_channel_range(int begin, int end);

  int channel_count() const { return static_cast<int>(channels_.size()); }

  /// Invokes `fn(info, msg)` for every in-flight message, in channel order
  /// then FIFO order. Statically dispatched (no std::function / virtual
  /// call per message) -- this is the debug-oracle census walk, and it is
  /// counted in EngineStats::in_flight_walks so hot loops can prove they
  /// never take it.
  template <typename Fn>
  void for_each_in_flight(Fn&& fn) const {
    ++in_flight_walks_;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const DirectedChannel& dc = channels_[i];
      dc.in_flight.for_each([&](const Message& msg) { fn(dc.info, msg); });
      if (chaos_) {
        // Held-back messages are in flight (the census counted them at
        // hold time); walk them after the ring so oracle and tracker
        // agree under chaos.
        for (const ChaosModel::Held& held :
             chaos_->link(static_cast<int>(i)).held) {
          fn(dc.info, held.msg);
        }
      }
    }
  }

  /// Number of in-flight messages whose `type` equals `type`, maintained
  /// inline on the send/inject/deliver/clear paths (no walk, no callback).
  /// Exact for 0 <= type < kTrackedMessageTypes (covers every protocol
  /// token type); out-of-range types alias the junk bucket 0. Summed over
  /// streams (each addend may wrap; the sum is exact).
  std::uint64_t in_flight_of_type(std::int32_t type) const {
    std::size_t b = type_bucket(type);
    std::uint64_t total = 0;
    for (const Stream& s : streams_) total += s.in_flight_by_type[b];
    return total;
  }

  /// in_flight_of_type restricted to one stream. Exact for a tenant
  /// stream (its channels start and end in it), so a tenant's census
  /// reads one cell in O(1) without scanning the other tenants; a default
  /// engine's per-lane cells are only sum-exact.
  std::uint64_t in_flight_of_type_in(int stream, std::int32_t type) const {
    return streams_[static_cast<std::size_t>(stream)]
        .in_flight_by_type[type_bucket(type)];
  }

  /// Per-type counters are exact for types in [0, kTrackedMessageTypes).
  static constexpr std::int32_t kTrackedMessageTypes = 8;

  /// Cumulative messages sent whose `type` equals `type` (same bucketing
  /// as in_flight_of_type), maintained inline on the send path.
  /// inject_message is excluded: preloaded fault garbage "was already in
  /// the channel" and is not protocol traffic. Replaces the per-send
  /// observer the message-overhead accounting used to need.
  std::uint64_t sent_of_type(std::int32_t type) const {
    std::size_t b = type_bucket(type);
    std::uint64_t total = 0;
    for (const Stream& s : streams_) total += s.sent_by_type[b];
    return total;
  }

  /// sent_of_type restricted to one stream (per-tenant message-overhead
  /// accounting).
  std::uint64_t sent_of_type_in(int stream, std::int32_t type) const {
    return streams_[static_cast<std::size_t>(stream)]
        .sent_by_type[type_bucket(type)];
  }

  /// Events executed on behalf of one stream (per-tenant recovery-cost
  /// accounting). The serial single-stream loop keeps no per-stream
  /// count, so one stream reads the engine total.
  std::uint64_t events_executed_in(int stream) const {
    return streams_.size() == 1
               ? events_executed()
               : streams_[static_cast<std::size_t>(stream)].events_executed;
  }

  /// Per-channel in-flight count for (from, from_channel).
  int channel_backlog(NodeId from, int from_channel) const;

  void add_observer(SimObserver* observer) { observers_.push_back(observer); }

  /// Event-core counters (see EngineStats).
  EngineStats stats() const;

  /// Timer ids must lie in [0, kMaxTimers).
  static constexpr int kMaxTimers = 16;

 private:
  struct DirectedChannel {
    ChannelInfo info;
    SimTime last_scheduled = 0;
    // Bumped by clear_channels(); delivery events from older epochs are
    // stale and dropped at dispatch.
    std::uint64_t epoch = 0;
    // Owning lanes: the source lane samples delays, clamps FIFO times
    // and pushes the ring; the destination lane pops it at delivery.
    std::int32_t src_lane = 0;
    std::int32_t dst_lane = 0;
    // Streams of the endpoints: a send draws from and counts in the
    // source stream, a delivery uncounts in the destination stream (the
    // same stream for tenant streams, the endpoint lanes by default).
    std::int32_t src_stream = 0;
    std::int32_t dst_stream = 0;
    MessageRing in_flight;
  };

  /// A cross-lane delivery created inside a window: the ring push and
  /// the destination queue push are deferred to the barrier.
  struct Outbound {
    std::int32_t channel = -1;
    Event event;
    Message msg;
  };

  /// One partition: queue, clock, seq counter, totals, callback slab.
  struct Lane {
    explicit Lane(SchedulerKind kind) : queue(kind) {}

    EventQueue queue;
    SimTime now = 0;
    std::uint64_t next_seq = 0;

    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t in_flight = 0;  // may wrap per lane; sums are exact
    std::uint64_t pending_callbacks = 0;
    std::uint64_t callbacks_scheduled = 0;
    std::uint64_t callback_slots_created = 0;

    // Callback slab: slots are recycled through a free list, so
    // steady-state scheduling constructs no new slots (the
    // std::function's own capture allocation, if any, is the caller's).
    std::vector<std::function<void()>> callback_slab;
    std::vector<std::uint32_t> callback_free_slots;

    std::vector<Outbound> outbox;
  };

  /// One stream (a lane's by default, a tenant's in a fleet): its delay
  /// rng and per-type census cells (its events are sequenced by their
  /// lane). Single writer: all of a stream's nodes live on its home lane,
  /// so only that lane's thread ever touches the stream.
  struct Stream {
    Stream(support::Rng stream_rng, std::int32_t lane)
        : rng(stream_rng), home_lane(lane) {}

    support::Rng rng;
    std::uint64_t events_executed = 0;
    std::int32_t home_lane = 0;
    std::array<std::uint64_t, kTrackedMessageTypes> in_flight_by_type{};
    std::array<std::uint64_t, kTrackedMessageTypes> sent_by_type{};
  };

  static std::size_t type_bucket(std::int32_t type) {
    // Types outside [0, kTrackedMessageTypes) alias the junk bucket 0;
    // protocol types live in 1..4, so they are always exact. The cast
    // folds the negative range into one unsigned compare.
    std::uint32_t t = static_cast<std::uint32_t>(type);
    return t < static_cast<std::uint32_t>(kTrackedMessageTypes) ? t : 0u;
  }

  int channel_index_of(NodeId from, int from_channel) const;
  /// Next seq of `lane_index`'s counter: `lane_seq * lane_count + lane`.
  std::uint64_t next_lane_seq(int lane_index) {
    return lanes_[static_cast<std::size_t>(lane_index)].next_seq++ *
               lanes_.size() +
           static_cast<std::uint64_t>(lane_index);
  }
  /// Uniform delay in [min_delay, max_delay] drawn from `rng`.
  SimTime draw_delay(support::Rng& rng) const {
    return delays_.min_delay +
           static_cast<SimTime>(
               rng.next_below(delays_.max_delay - delays_.min_delay + 1));
  }
  Stream& stream(std::int32_t index) {
    return streams_[static_cast<std::size_t>(index)];
  }
  /// Stream an event executes in, always one homed on the lane whose
  /// queue holds the event: the destination's for deliveries, the
  /// source's for chaos flushes, the node's for timers and the one
  /// stored in `target` for callbacks.
  int stream_of_event(const Event& event) const;
  void boot();  // out-of-line once-only part of start()
  void size_ring_windows();
  void dispatch(Lane& lane, const Event& event);
  /// Advances the clocks to `event.at` and dispatches on `lane`.
  void execute(Lane& lane, int lane_index, const Event& event);
  /// Pops the global (at, seq) minimum with at <= t across all lanes.
  bool pop_next(SimTime t, Event* out, int* lane_out);
  /// run_until on closed lanes: windows of up to bucket_window() ticks,
  /// each running every lane through it in turn.
  void run_lanes_until(SimTime t);
  void schedule_delivery(int channel_index, const Message& msg);
  // Chaos send path (schedule_delivery with an attached ChaosModel):
  // decide drop/duplicate/hold/jitter from the link rng, then mature the
  // channel's older holds (the new send is the overtaking traffic).
  void chaos_send(int channel_index, const Message& msg);
  /// Schedules one delivery under chaos sequencing. `fresh` marks a
  /// first-time send (census increment + jitter draw); releases of held
  /// messages pass false (counted at hold time, no second jitter).
  void chaos_schedule_copy(int channel_index, const Message& msg,
                           const ChaosConfig& cfg, bool fresh);
  /// Ages holds with id < `below` by one send; releases the due ones in
  /// hold order.
  void chaos_mature_holds(int channel_index, std::uint64_t below);
  /// kChaosFlush dispatch: force-releases holds with id <= `up_to`.
  void chaos_flush(int channel_index, std::uint64_t up_to);
  /// Removes the holds `is_due(held)` picks and reschedules them in hold
  /// order (the shared tail of the two entry points above).
  template <typename Due>
  void chaos_release(int channel_index, Due is_due);
  // Observer fan-out, out of line: the hot send/deliver paths only test
  // observers_.empty(), so unmonitored runs pay no indirect call (and no
  // loop setup) per event.
  void notify_send(NodeId from, int channel, const Message& msg);
  void notify_deliver(NodeId to, int channel, const Message& msg);

  DelayModel delays_;
  std::uint64_t seed_;
  SchedulerKind scheduler_kind_;
  bool started_ = false;
  bool in_window_ = false;
  bool lanes_closed_ = false;  // set at boot (see lanes_closed())
  SimTime declared_timer_span_ = 0;

  std::vector<Lane> lanes_;        // >= 1; lanes_[0] is the serial lane
  std::vector<std::int32_t> node_lane_;  // empty until configure_lanes
  std::vector<Stream> streams_;    // >= 1; one per lane until configure_streams
  std::vector<std::int32_t> node_stream_;  // empty until configured
  int last_stream_ = 0;
  // The one choice that still tells a fleet from a plain engine: under
  // chaos, default streams take chaos sequencing (chaos.hpp) while tenant
  // streams keep their stream delays and lane seqs. configure_streams
  // clears it; only the chaos paths read it.
  bool chaos_sequencing_ = true;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<DirectedChannel> channels_;
  // CSR channel table: node v's out-channel c is channels_ index
  // channel_slots_[channel_offsets_[v] + c] (-1 when unwired). Offsets
  // cover nodes up to the last wired one; wiring stops at start(), so
  // lane threads only ever read the table.
  std::vector<std::int32_t> channel_offsets_;
  std::vector<std::int32_t> channel_slots_;
  // Flat [node * kMaxTimers + timer_id] -> generation; sized with the
  // processes, so the staleness check in dispatch is one indexed load.
  // Only ever touched by the owning node's lane.
  std::vector<std::uint64_t> timer_generations_;

  mutable std::uint64_t in_flight_walks_ = 0;

  // Adversarial channel model; null (the reliable-FIFO engine) unless
  // configure_chaos attached one.
  std::unique_ptr<ChaosModel> chaos_;

  std::vector<SimObserver*> observers_;
};

}  // namespace klex::sim
