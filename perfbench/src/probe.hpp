// Listener timing proxy: the benchmark's window into the verify, stats
// and proto layers without editing them.
//
// ProbeListener is the one proto::Listener the benchmark registers. It
// forwards every request / grant / exit to a verify::SafetyMonitor and a
// stats::WaitingTimeTracker per tenant (a plain system is one tenant),
// counts each forwarded call and -- in traced runs only -- times it, so
// verify.* and stats.* self time is measured where the work happens. It
// also counts the controller's circulation ends and minted tokens
// (proto.circulations / proto.tokens_minted).
//
// Listener callbacks run on the lane executing the event; counters are
// kept per lane (Engine::current_lane()) so a windowed parallel run
// never shares a counter between threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "proto/app.hpp"
#include "sim/engine.hpp"
#include "stats/waiting_time.hpp"
#include "trace.hpp"
#include "verify/safety_monitor.hpp"

namespace perfbench {

class ProbeListener final : public klex::proto::Listener {
 public:
  /// `tenants` tenants of `tenant_n` nodes each; node v belongs to tenant
  /// v / tenant_n with local id v % tenant_n.
  ProbeListener(int tenants, int tenant_n, int k, int l, bool timed)
      : tenant_n_(tenant_n), timed_(timed) {
    for (int t = 0; t < tenants; ++t) {
      monitors_.push_back(
          std::make_unique<klex::verify::SafetyMonitor>(tenant_n, k, l));
      trackers_.push_back(
          std::make_unique<klex::stats::WaitingTimeTracker>(tenant_n));
    }
  }

  void on_request(klex::proto::NodeId node, int need,
                  klex::sim::SimTime at) override {
    const Route r = route(node);
    Counters& c = lane();
    forward(c.verify, [&] { r.monitor->on_request(r.local, need, at); });
    forward(c.stats, [&] { r.tracker->on_request(r.local, need, at); });
  }

  void on_enter_cs(klex::proto::NodeId node, int need,
                   klex::sim::SimTime at) override {
    const Route r = route(node);
    Counters& c = lane();
    forward(c.verify, [&] { r.monitor->on_enter_cs(r.local, need, at); });
    forward(c.stats, [&] { r.tracker->on_enter_cs(r.local, need, at); });
  }

  void on_exit_cs(klex::proto::NodeId node, klex::sim::SimTime at) override {
    const Route r = route(node);
    forward(lane().verify, [&] { r.monitor->on_exit_cs(r.local, at); });
  }

  void on_circulation_end(int, int, int, bool, klex::sim::SimTime) override {
    ++lane().circulations;
  }

  void on_tokens_minted(std::int32_t, int count, klex::sim::SimTime) override {
    lane().tokens_minted += static_cast<std::uint64_t>(count);
  }

  /// Drops every monitor's holdings bookkeeping (after a transient fault
  /// corrupted who-holds-what; the violation history is kept).
  void forget() {
    for (auto& monitor : monitors_) monitor->forget();
  }

  std::int64_t violations() const {
    std::int64_t total = 0;
    for (const auto& monitor : monitors_) total += monitor->violation_count();
    return total;
  }

  /// Latest violation time over all tenants (0 when none occurred).
  klex::sim::SimTime last_violation_time() const {
    klex::sim::SimTime latest = 0;
    for (const auto& monitor : monitors_) {
      if (monitor->last_violation_time() > latest) {
        latest = monitor->last_violation_time();
      }
    }
    return latest;
  }

  struct Totals {
    std::uint64_t verify_calls = 0;
    std::int64_t verify_ns = 0;
    std::uint64_t stats_calls = 0;
    std::int64_t stats_ns = 0;
    std::uint64_t circulations = 0;
    std::uint64_t tokens_minted = 0;
  };

  /// Sums the per-lane counters (call between windows / after a run).
  Totals totals() const {
    Totals t;
    for (const Counters& c : lanes_) {
      t.verify_calls += c.verify.calls;
      t.verify_ns += c.verify.ns;
      t.stats_calls += c.stats.calls;
      t.stats_ns += c.stats.ns;
      t.circulations += c.circulations;
      t.tokens_minted += c.tokens_minted;
    }
    return t;
  }

 private:
  struct Layer {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };
  struct alignas(64) Counters {
    Layer verify;
    Layer stats;
    std::uint64_t circulations = 0;
    std::uint64_t tokens_minted = 0;
  };
  struct Route {
    klex::verify::SafetyMonitor* monitor;
    klex::stats::WaitingTimeTracker* tracker;
    klex::proto::NodeId local;
  };

  Route route(klex::proto::NodeId node) const {
    const auto tenant = static_cast<std::size_t>(node / tenant_n_);
    return {monitors_[tenant].get(), trackers_[tenant].get(),
            node % tenant_n_};
  }

  Counters& lane() {
    return lanes_[static_cast<std::size_t>(klex::sim::Engine::current_lane())];
  }

  template <typename Fn>
  void forward(Layer& layer, Fn&& fn) {
    ++layer.calls;
    if (!timed_) {
      fn();
      return;
    }
    const Clock::time_point start = Clock::now();
    fn();
    layer.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();
  }

  int tenant_n_;
  bool timed_;
  std::vector<std::unique_ptr<klex::verify::SafetyMonitor>> monitors_;
  std::vector<std::unique_ptr<klex::stats::WaitingTimeTracker>> trackers_;
  std::array<Counters, klex::sim::Engine::kMaxLanes> lanes_{};
};

}  // namespace perfbench
