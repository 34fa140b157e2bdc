#include "episode.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>
#include <vector>

#include "api/builder.hpp"
#include "proto/messages.hpp"
#include "proto/workload.hpp"
#include "sim/parallel_engine.hpp"
#include "stree/partition.hpp"
#include "tree/tree.hpp"

#include "probe.hpp"
#include "reference.hpp"

namespace perfbench {

namespace {

using klex::sim::SimTime;
using klex::sim::kTimeInfinity;

void check(bool ok, const Workload& w, const std::string& what) {
  if (!ok) throw CheckFailure(std::string(w.name) + ": " + what);
}

// Why each workload exists, and how its numbers were chosen, is recorded
// in perfbench/NOTES.md.
const Workload kWorkloads[] = {
    // name, arity, height, fleet, k, l, rung, clients, think, cs, need,
    // threads, spread, warmup, horizon, faults, settle, deadlines
    {"serve", 2, 10, 0, 4, 256, klex::proto::Features::full(), true, 64, 32,
     4, 1, false, 200'000, 4'000'000, 0, 0, 2'000'000, 0},
    {"recover", 2, 8, 0, 4, 16, klex::proto::Features::full(), true, 64, 32,
     4, 1, false, 10'000, 0, 10, 10'000, 2'000'000, 2'000'000},
    {"fleet", 2, 3, 1024, 2, 4, klex::proto::Features::full(), true, 96, 24,
     2, 1, false, 1'000, 3'000, 0, 0, 2'000'000, 0},
};

// Token circulation on the windowed ParallelEngine (2 lanes, no
// clients). It is a probe run by traced runs, not a workload: its
// per-tick window barriers make its host time hostage to whichever of
// the two vCPUs the host steals from (NOTES.md). The controller-free
// rung, because the full rung does not reach legitimacy at l = n/8.
const Workload kWindowProbe = {
    "window_probe", 2, 14, 0, 1, 4095, klex::proto::Features::with_priority(),
    false, 0, 0, 1, 2, true, 200, 2'000, 0, 0, 1'000, 0};

// The rng salts SystemBuilder::build_session derives the materialization
// streams with (api/builder.cpp), so the replay sees the same inputs.
constexpr std::uint64_t kClassSalt = 0xC1A55ull;
constexpr std::uint64_t kCrossTenantSalt = 0xC705ull;

klex::proto::WorkloadSpec client_spec(const Workload& w) {
  klex::proto::WorkloadSpec spec;
  spec.base.think = klex::proto::Dist::exponential(w.think_mean);
  spec.base.cs_duration = klex::proto::Dist::exponential(w.cs_mean);
  spec.base.need = klex::proto::Dist::uniform(1, w.need_max);
  return spec;
}

SentByType sent_by_type(const klex::sim::Engine& engine) {
  auto of = [&engine](klex::proto::TokenType type) {
    return engine.sent_of_type(static_cast<std::int32_t>(type));
  };
  return {of(klex::proto::TokenType::kResource),
          of(klex::proto::TokenType::kControl),
          of(klex::proto::TokenType::kPusher),
          of(klex::proto::TokenType::kPriority)};
}

/// A built system at its first legitimate census.
struct Built {
  klex::Session session;
  std::unique_ptr<ProbeListener> probe;
  SimTime stabilized = kTimeInfinity;
};

/// Set-up, from the start of construction to the first legitimate census
/// (service ready). Fills the set-up fields of `ep`.
Built build(const Workload& w, std::uint64_t seed, Tracer& tracer,
            bool traced, Episode& ep) {
  Built built;
  const Clock::time_point start = Clock::now();
  {
    Span setup(tracer, "setup");
    const int tree_span = tracer.open("tree.build");
    const klex::tree::Tree shape = klex::tree::balanced(w.arity, w.height);
    tracer.close(tree_span);
    ep.tree_s = seconds_since(start);

    klex::SystemBuilder builder;
    builder.tree(shape).kl(w.k, w.l).features(w.features).seed(seed).threads(
        w.threads);
    if (w.fleet > 0) builder.fleet(w.fleet);
    if (w.spread_tokens) builder.spread_tokens();
    if (w.clients) builder.workload(client_spec(w));
    if (w.faults > 0) builder.fault(klex::FaultKind::kTransient);
    {
      Span span(tracer, "api.build_session");
      const Clock::time_point t0 = Clock::now();
      built.session = builder.build_session();
      ep.build_s = seconds_since(t0);
    }
    klex::SystemBase& system = *built.session.system;
    built.probe = std::make_unique<ProbeListener>(
        std::max(w.fleet, 1), shape.size(), w.k, w.l, traced);
    system.add_listener(built.probe.get());
    {
      Span span(tracer, "api.run_until_stabilized");
      const Clock::time_point t0 = Clock::now();
      built.stabilized = system.run_until_stabilized(w.stabilize_deadline);
      ep.stabilize_s = seconds_since(t0);
    }
  }
  ep.setup_s = seconds_since(start);
  ep.stabilize_events = built.session.system->engine().events_executed();
  check(built.stabilized != kTimeInfinity, w,
        "no legitimate census within " + std::to_string(w.stabilize_deadline) +
            " ticks of start");
  ep.stabilized_at = built.stabilized;
  return built;
}

/// Grant latencies in integer ticks, kept as counts in log-linear
/// buckets: exact below 2^kSubBits ticks, within 2^-(kSubBits-1) (0.1 %)
/// above. Memory stays a few hundred KiB however many grants a run
/// records, so the benchmark's own bookkeeping does not move
/// peak_rss_mb.
class TickHistogram {
 public:
  void add(double ticks) {
    const auto v =
        static_cast<std::uint64_t>(std::llround(std::max(ticks, 0.0)));
    const std::size_t i = index(v);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    ++counts_[i];
    ++total_;
  }

  std::uint64_t count() const { return total_; }

  /// Nearest-rank q-quantile: the lower bound of the bucket holding the
  /// ceil(q * count)-th smallest sample. Requires samples.
  double quantile(double q) const {
    const double exact_rank = std::ceil(q * static_cast<double>(total_));
    const auto rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(exact_rank));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return static_cast<double>(lower_bound(i));
    }
    return static_cast<double>(lower_bound(counts_.size() - 1));
  }

 private:
  static constexpr int kSubBits = 11;
  static constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kHalf = kExact / 2;

  static std::size_t index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - kSubBits;  // >= 1
    const std::uint64_t mantissa = v >> shift;       // [kHalf, kExact)
    return static_cast<std::size_t>(kExact + (shift - 1) * kHalf +
                                    (mantissa - kHalf));
  }

  static std::uint64_t lower_bound(std::size_t i) {
    if (i < kExact) return i;
    const std::uint64_t offset = i - kExact;
    const int shift = static_cast<int>(offset / kHalf) + 1;
    return (kHalf + offset % kHalf) << shift;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Accumulates the deltas of every counter over measured intervals.
class IntervalRecorder {
 public:
  IntervalRecorder(const Workload& w, Built& built, Tracer& tracer,
                   TickHistogram& latency)
      : w_(w),
        system_(*built.session.system),
        driver_(built.session.driver.get()),
        probe_(*built.probe),
        tracer_(tracer),
        latency_seen_(static_cast<std::size_t>(system_.n()), 0),
        latency_(latency) {}

  void begin() {
    reference_before_ = reference_rate();
    span_ = tracer_.open("measure");
    if (driver_ != nullptr) {
      for (int v = 0; v < system_.n(); ++v) {
        latency_seen_[static_cast<std::size_t>(v)] =
            driver_->grant_latency(v).samples().size();
      }
    }
    start_ = take();
  }

  /// Closes the interval and adds its deltas to `ep`.
  void end(Episode& ep) {
    const Snapshot end = take();
    const Snapshot& s = start_;
    const double wall = seconds_between(s.wall, end.wall);
    ep.phase_s += wall;
    ep.phase_ticks += end.now - s.now;
    ep.events += end.engine.events_executed - s.engine.events_executed;
    ep.sent += end.engine.messages_sent - s.engine.messages_sent;
    ep.delivered +=
        end.engine.messages_delivered - s.engine.messages_delivered;
    ep.callbacks +=
        end.engine.callbacks_scheduled - s.engine.callbacks_scheduled;
    const klex::sim::SchedulerCounters& a = s.engine.scheduler;
    const klex::sim::SchedulerCounters& b = end.engine.scheduler;
    ep.queue.bucket_inserts += b.bucket_inserts - a.bucket_inserts;
    ep.queue.bucket_scans += b.bucket_scans - a.bucket_scans;
    ep.queue.overflow_pushes += b.overflow_pushes - a.overflow_pushes;
    ep.queue.overflow_pops += b.overflow_pops - a.overflow_pops;
    ep.max_pending = end.engine.max_heap_size;
    check(end.engine.in_flight_walks == s.engine.in_flight_walks, w_,
          "in-flight walk during a measured interval");
    ep.windows += end.windows.windows - s.windows.windows;
    ep.merged_fallbacks +=
        end.windows.merged_fallbacks - s.windows.merged_fallbacks;
    ep.sent_type.resource += end.sent.resource - s.sent.resource;
    ep.sent_type.control += end.sent.control - s.sent.control;
    ep.sent_type.pusher += end.sent.pusher - s.sent.pusher;
    ep.sent_type.priority += end.sent.priority - s.sent.priority;
    ep.verify_calls += end.probe.verify_calls - s.probe.verify_calls;
    ep.stats_calls += end.probe.stats_calls - s.probe.stats_calls;
    ep.verify_s +=
        static_cast<double>(end.probe.verify_ns - s.probe.verify_ns) * 1e-9;
    ep.stats_s +=
        static_cast<double>(end.probe.stats_ns - s.probe.stats_ns) * 1e-9;
    ep.circulations += end.probe.circulations - s.probe.circulations;
    ep.tokens_minted += end.probe.tokens_minted - s.probe.tokens_minted;
    ep.acquires += end.acquires - s.acquires;
    ep.grants += end.grants - s.grants;
    for (int r = 0; r < klex::kDenyReasonCount; ++r) {
      ep.denials_by_reason[r] += end.denials[r] - s.denials[r];
      ep.denials += end.denials[r] - s.denials[r];
    }
    if (driver_ != nullptr) {
      for (int v = 0; v < system_.n(); ++v) {
        const std::vector<double>& samples =
            driver_->grant_latency(v).samples();
        for (std::size_t i = latency_seen_[static_cast<std::size_t>(v)];
             i < samples.size(); ++i) {
          latency_.add(samples[i]);
        }
      }
    }
    tracer_.aggregate("verify.SafetyMonitor",
                      end.probe.verify_calls - s.probe.verify_calls,
                      end.probe.verify_ns - s.probe.verify_ns);
    tracer_.aggregate("stats.WaitingTimeTracker",
                      end.probe.stats_calls - s.probe.stats_calls,
                      end.probe.stats_ns - s.probe.stats_ns);
    tracer_.close(span_);
    // The host's speed over the interval: the mean of the reference
    // rates just before and just after it.
    const double reference = 0.5 * (reference_before_ + reference_rate());
    ep.reference_s += wall * reference / kReferenceRate;
  }

 private:
  struct Snapshot {
    Clock::time_point wall;
    SimTime now = 0;
    klex::sim::EngineStats engine;
    SentByType sent;
    ProbeListener::Totals probe;
    klex::sim::ParallelEngine::WindowStats windows;
    std::int64_t acquires = 0, grants = 0;
    std::int64_t denials[klex::kDenyReasonCount] = {};
  };

  Snapshot take() {
    Snapshot s;
    s.wall = Clock::now();
    klex::sim::Engine& engine = system_.engine();
    s.now = engine.now();
    s.engine = engine.stats();
    s.sent = sent_by_type(engine);
    s.probe = probe_.totals();
    if (system_.parallel_engine() != nullptr) {
      s.windows = system_.parallel_engine()->window_stats();
    }
    if (driver_ != nullptr) {
      s.acquires = driver_->total_requests();
      s.grants = driver_->total_grants();
      for (int r = 0; r < klex::kDenyReasonCount; ++r) {
        s.denials[r] = driver_->deny_count(static_cast<klex::DenyReason>(r));
      }
    }
    return s;
  }

  const Workload& w_;
  klex::SystemBase& system_;
  klex::WorkloadDriver* driver_;
  ProbeListener& probe_;
  Tracer& tracer_;
  Snapshot start_;
  double reference_before_ = 0;
  int span_ = -1;
  std::vector<std::size_t> latency_seen_;
  TickHistogram& latency_;  // grant latency, measured intervals
};

template <typename T>
T median_value(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// FNV-1a over every deterministic counter and tick value of an episode.
std::uint64_t digest_of(const Episode& e) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(e.stabilized_at), e.stabilize_events,
        static_cast<std::uint64_t>(e.phase_ticks),
        static_cast<std::uint64_t>(e.recovery_ticks), e.events, e.sent,
        e.delivered, e.callbacks, e.queue.bucket_inserts, e.queue.bucket_scans,
        e.queue.overflow_pushes, e.queue.overflow_pops, e.max_pending,
        e.windows, e.merged_fallbacks, e.sent_type.resource,
        e.sent_type.control, e.sent_type.pusher, e.sent_type.priority,
        e.latency_count, e.verify_calls, e.stats_calls, e.circulations,
        e.tokens_minted}) {
    mix(v);
  }
  for (std::int64_t v : {e.acquires, e.grants, e.denials, e.leases_revoked,
                         e.failed_outside_faults}) {
    mix(static_cast<std::uint64_t>(v));
  }
  for (std::int64_t v : e.denials_by_reason) {
    mix(static_cast<std::uint64_t>(v));
  }
  for (double v : {e.p50, e.p99, e.p999}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return h;
}

}  // namespace

const Workload& window_probe() { return kWindowProbe; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

double setup_only(const Workload& w, std::uint64_t seed) {
  Tracer off(false, "");
  Episode ep;
  build(w, seed, off, false, ep);
  return ep.setup_s;
}

namespace {

/// Runs one system through set-up, warm-up and its measured interval --
/// the steady horizon, or (fault >= 0) one transient fault from
/// injection to re-legitimacy followed by a checked settling stretch --
/// then the end-of-run checks. Adds every measured delta to `ep`.
void run_system(const Workload& w, std::uint64_t seed, int fault,
                Tracer& tracer, bool traced, Episode& ep,
                TickHistogram& latency,
                std::vector<SimTime>& recovery_ticks,
                std::vector<double>& recovery_walls) {
  Episode setup;
  Built built = build(w, seed, tracer, traced, setup);
  if (fault <= 0) {  // the first system of the episode times set-up
    ep.setup_s = setup.setup_s;
    ep.tree_s = setup.tree_s;
    ep.build_s = setup.build_s;
    ep.stabilize_s = setup.stabilize_s;
    ep.stabilized_at = setup.stabilized_at;
    ep.stabilize_events = setup.stabilize_events;
  }
  klex::Session& session = built.session;
  klex::SystemBase& system = *session.system;
  klex::sim::Engine& engine = system.engine();
  klex::WorkloadDriver* driver = session.driver.get();
  ProbeListener& probe = *built.probe;

  if (driver != nullptr) {
    Span span(tracer, "api.begin_workload");
    session.begin_workload();
  }
  {
    Span span(tracer, "api.run_until");
    system.run_until(engine.now() + w.warmup);
  }
  check(probe.violations() == 0, w, "safety violation before measuring");

  IntervalRecorder recorder(w, built, tracer, latency);
  if (fault < 0) {
    recorder.begin();
    {
      Span span(tracer, "api.run_until");
      system.run_until(engine.now() + w.horizon);
    }
    recorder.end(ep);
    check(probe.violations() == 0, w, "safety violation while measuring");
    ep.failed_outside_faults += ep.denials;
    if (driver != nullptr) check(ep.grants > 0, w, "no grant recorded");
  } else {
    const int n = system.n();
    std::vector<char> holding(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      holding[static_cast<std::size_t>(v)] = driver->holding(v) ? 1 : 0;
    }
    klex::support::Rng fault_rng((seed ^ 0xFA17ull) +
                                 static_cast<std::uint64_t>(fault));
    const double phase_before = ep.phase_s;
    recorder.begin();
    const SimTime fault_at = engine.now();
    {
      Span span(tracer, "api.apply_planned_fault");
      const Clock::time_point t0 = Clock::now();
      session.apply_planned_fault(fault_rng);
      ep.fault_s += seconds_since(t0);
    }
    probe.forget();  // the fault invalidated who holds what
    for (int v = 0; v < n; ++v) {
      if (holding[static_cast<std::size_t>(v)] && !driver->holding(v)) {
        ++ep.leases_revoked;
      }
    }
    SimTime recovered = kTimeInfinity;
    {
      Span span(tracer, "api.run_until_stabilized");
      recovered = system.run_until_stabilized(fault_at + w.recovery_deadline);
    }
    recorder.end(ep);
    check(recovered != kTimeInfinity, w,
          "not legitimate again within " +
              std::to_string(w.recovery_deadline) + " ticks of fault " +
              std::to_string(fault));
    recovery_ticks.push_back(recovered - fault_at);
    recovery_walls.push_back(ep.phase_s - phase_before);
    check(probe.violations() == 0 || probe.last_violation_time() < recovered,
          w, "safety violation after re-legitimacy");

    const std::int64_t violations = probe.violations();
    const std::int64_t denials = driver->total_denials();
    {
      Span span(tracer, "api.run_until");
      system.run_until(engine.now() + w.settle);
    }
    check(probe.violations() == violations, w,
          "safety violation after re-legitimacy");
    ep.failed_outside_faults += driver->total_denials() - denials;
  }

  // End-of-run checks; the oracle walk comes after the measured
  // interval, so it cannot trip the in-flight-walk check.
  check(system.token_counts_correct(), w,
        "token population not legitimate at the end");
  const klex::proto::TokenCensus fast = system.census();
  const klex::proto::TokenCensus oracle = system.census_oracle();
  check(fast.free_resource == oracle.free_resource &&
            fast.reserved_resource == oracle.reserved_resource &&
            fast.pusher == oracle.pusher &&
            fast.free_priority == oracle.free_priority &&
            fast.held_priority == oracle.held_priority &&
            fast.control == oracle.control,
        w, "incremental census differs from the oracle walk");
}

}  // namespace

Episode run_episode(const Workload& w, std::uint64_t seed, Tracer& tracer,
                    bool traced) {
  Episode ep;
  TickHistogram latency;
  std::vector<SimTime> recovery_ticks;
  std::vector<double> recovery_walls;
  if (w.faults == 0) {
    run_system(w, seed, -1, tracer, traced, ep, latency, recovery_ticks,
               recovery_walls);
  } else {
    // One fresh system per fault, each with its own draw of garbage: a
    // fault may leave too few tokens (clients stall until the controller
    // re-mints) or too many (service continues while the garbage is
    // flushed), and the two cost 20x apart. Several draws per episode
    // keep a run's figures from hanging on one of them; fresh systems
    // keep the memory high-water mark from growing with the count.
    for (int f = 0; f < w.faults; ++f) {
      run_system(w, seed, f, tracer, traced, ep, latency, recovery_ticks,
                 recovery_walls);
    }
    ep.recovery_ticks = median_value(recovery_ticks);
    ep.recovery_s = median_value(recovery_walls);
  }
  ep.latency_count = latency.count();
  // A percentile is reported only with at least 10 samples beyond it.
  auto tail_ok = [&](double q) {
    return static_cast<double>(ep.latency_count) * (1.0 - q) >= 10.0;
  };
  if (tail_ok(0.5)) ep.p50 = latency.quantile(0.5);
  if (tail_ok(0.99)) ep.p99 = latency.quantile(0.99);
  if (tail_ok(0.999)) ep.p999 = latency.quantile(0.999);
  ep.digest = digest_of(ep);
  return ep;
}

void replay_setup_layers(const Workload& w, std::uint64_t seed,
                         Tracer& tracer, Episode& ep) {
  const klex::tree::Tree shape = klex::tree::balanced(w.arity, w.height);
  if (w.threads > 1) {
    Span span(tracer, "stree.partition_tree");
    const Clock::time_point t0 = Clock::now();
    const std::vector<int> lanes =
        klex::stree::partition_tree(shape, w.threads);
    ep.partition_s = seconds_since(t0);
    check(static_cast<int>(lanes.size()) == shape.size(), w,
          "partition_tree returned a wrong-sized map");
  }
  if (!w.clients) return;
  Span span(tracer, "proto.materialize");
  const klex::proto::WorkloadSpec spec = client_spec(w);
  const Clock::time_point t0 = Clock::now();
  std::size_t expected = static_cast<std::size_t>(shape.size());
  klex::proto::MaterializedWorkload materialized;
  if (w.fleet > 0) {
    std::vector<klex::support::Rng> rngs;
    for (int t = 0; t < w.fleet; ++t) {
      rngs.emplace_back((seed + static_cast<std::uint64_t>(t)) ^ kClassSalt);
    }
    klex::support::Rng cross(seed ^ kClassSalt ^ kCrossTenantSalt);
    materialized = klex::proto::materialize_fleet(spec, w.fleet, shape.size(),
                                                  rngs, cross);
    expected *= static_cast<std::size_t>(w.fleet);
  } else {
    klex::support::Rng rng(seed ^ kClassSalt);
    materialized = klex::proto::materialize(spec, shape.size(), rng);
  }
  ep.materialize_s = seconds_since(t0);
  check(materialized.behaviors.size() == expected, w,
        "materialization returned a wrong-sized workload");
}

}  // namespace perfbench
