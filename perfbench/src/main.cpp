// The repository benchmark: one workload per invocation, one process,
// driven through the public API
//
//   SystemBuilder::build_session -> run_until_stabilized
//     -> Session::begin_workload -> run_until / apply_planned_fault
//
// and never through exp::ExperimentRunner (whose concurrent grid points
// would measure contention between themselves).
//
//   perfbench --workload serve|recover|fleet --seed N
//             --seconds S --trace 0|1
//
// A run repeats the workload's episode -- set-up, warm-up, measured
// intervals, checks -- until the next one would overrun S seconds, and
// repeats the set-up alone in between (setup_s is the median of those).
// Every episode of a run uses the same seed, so all of them must produce
// the same determinism digest; host-time metrics are the median over
// episodes, and the end-to-end ones (setup_s, events_per_s) are scaled
// to a reference host speed (reference.hpp), because the shared host's
// own speed wanders. Simulated-time and count metrics come from the
// trajectory and are identical in every episode. perfbench/NOTES.md
// documents the workloads and every metric.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced episodes, prints the per-layer metrics (spans around every
// call the benchmark makes into a layer, plus the listener proxy's
// callback aggregates) and the tracing overhead, and writes the spans to
// .bench_build/traces/<workload>-<seed>.json.
//
// The last stdout line is one JSON object:
//   {"correct": true, "attempted": A, "failed": F, "metrics": {...}}
// A failed check prints the reason to stderr, no JSON, and exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "core/params.hpp"
#include "sim/engine.hpp"
#include "tree/tree.hpp"

#include "episode.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// setup_s is the median of set-ups repeated on their own: a few before
// the first episode, then more after every episode until set-ups have
// taken kSetupShare of the run. The samples are many and spread over the
// whole run even when it fits few episodes, and they share one
// condition (a freshly freed heap) instead of mixing set-ups that follow
// a large episode with ones that do not. Each batch of set-ups is
// bracketed by the host-speed reference, like a measured interval, and
// its times are scaled to the reference host speed (reference.hpp).
constexpr int kFirstSetups = 5;
constexpr int kMaxSetupBatch = 100;
constexpr double kSetupShare = 0.1;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename Fn>
double median_of(const std::vector<Episode>& episodes, Fn&& fn) {
  std::vector<double> values;
  for (const Episode& e : episodes) values.push_back(fn(e));
  return median(values);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The workload-level service metrics, which apply to some workloads
/// only (0 where they do not apply). Deterministic per seed; reported in
/// the per-layer list and the human report, not bounded end to end.
void service_metrics(const Episode& e, std::vector<Metric>& out) {
  const double grants = static_cast<double>(e.grants);
  out.push_back({"grants", static_cast<double>(e.latency_count), "count"});
  out.push_back({"grant_p50_ticks", e.p50, "ticks"});
  out.push_back({"grant_p99_ticks", e.p99, "ticks"});
  out.push_back({"grant_p999_ticks", e.p999, "ticks"});
  out.push_back({"grants_per_mtick",
                 e.phase_ticks > 0
                     ? grants * 1e6 / static_cast<double>(e.phase_ticks)
                     : 0.0,
                 "1/Mtick"});
  out.push_back(
      {"msgs_per_grant",
       e.grants > 0 ? static_cast<double>(e.sent_type.total()) / grants : 0.0,
       "count"});
  out.push_back(
      {"recovery_ticks", static_cast<double>(e.recovery_ticks), "ticks"});
  out.push_back({"failed_ratio", e.failed_ratio(), "ratio"});
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setups,
                                       const std::vector<Episode>& episodes) {
  return {
      {"setup_s", median(setups), "s"},
      {"events_per_s", median_of(episodes,
                                 [](const Episode& x) {
                                   return x.normalized_events_per_s();
                                 }),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Episode>& traced,
                                      const std::vector<Episode>& untraced,
                                      const Episode& windows) {
  const Episode& e = traced.front();  // counts: identical in every episode
  std::vector<Metric> m;
  // Host times: median over the traced episodes.
  auto time = [&](const char* name, double Episode::*field) {
    m.push_back({name, median_of(traced, [field](const Episode& x) {
                   return x.*field;
                 }),
                 "s"});
  };
  auto count = [&](std::string name, double value) {
    m.push_back({std::move(name), value, "count"});
  };
  time("api.build_s", &Episode::build_s);
  time("tree.build_s", &Episode::tree_s);
  time("proto.materialize_s", &Episode::materialize_s);
  m.push_back({"stree.partition_s", windows.partition_s, "s"});
  time("api.stabilize_s", &Episode::stabilize_s);
  count("api.stabilize_events", static_cast<double>(e.stabilize_events));
  count("api.driver.acquires", static_cast<double>(e.acquires));
  count("api.driver.grants", static_cast<double>(e.grants));
  count("api.driver.denials", static_cast<double>(e.denials));
  for (int r = 0; r < klex::kDenyReasonCount; ++r) {
    count(std::string("api.driver.denials.") +
              klex::deny_reason_name(static_cast<klex::DenyReason>(r)),
          static_cast<double>(e.denials_by_reason[r]));
  }
  count("api.driver.leases_revoked", static_cast<double>(e.leases_revoked));
  count("sim.callbacks", static_cast<double>(e.callbacks));
  time("api.fault_s", &Episode::fault_s);
  count("proto.circulations", static_cast<double>(e.circulations));
  count("proto.tokens_minted", static_cast<double>(e.tokens_minted));
  count("sim.events", static_cast<double>(e.events));
  m.push_back({"host.reference_rate", median_of(traced, [](const Episode& x) {
                 return x.reference_mean_rate();
               }),
               "1/s"});
  m.push_back({"sim.ns_per_event", median_of(traced, [](const Episode& x) {
                 return 1e9 / x.events_per_s();
               }),
               "ns"});
  count("sim.messages_sent", static_cast<double>(e.sent));
  count("sim.messages_delivered", static_cast<double>(e.delivered));
  count("core.timer_events",
        static_cast<double>(e.events - e.delivered - e.callbacks));
  count("sim.queue.bucket_inserts",
        static_cast<double>(e.queue.bucket_inserts));
  count("sim.queue.bucket_scans", static_cast<double>(e.queue.bucket_scans));
  count("sim.queue.overflow_pushes",
        static_cast<double>(e.queue.overflow_pushes));
  count("sim.queue.overflow_pops", static_cast<double>(e.queue.overflow_pops));
  count("sim.queue.max_pending", static_cast<double>(e.max_pending));
  // The window layer, from the windowed-engine probe (every workload
  // runs the serial engine).
  count("sim.window.windows", static_cast<double>(windows.windows));
  count("sim.window.merged_fallbacks",
        static_cast<double>(windows.merged_fallbacks));
  count("sim.window.events_per_window",
        static_cast<double>(windows.events) /
            static_cast<double>(windows.windows));
  m.push_back({"sim.window.ns_per_window",
               windows.phase_s * 1e9 / static_cast<double>(windows.windows),
               "ns"});
  count("proto.sent.resource", static_cast<double>(e.sent_type.resource));
  count("proto.sent.control", static_cast<double>(e.sent_type.control));
  count("proto.sent.pusher", static_cast<double>(e.sent_type.pusher));
  count("proto.sent.priority", static_cast<double>(e.sent_type.priority));
  count("verify.calls", static_cast<double>(e.verify_calls));
  time("verify.self_s", &Episode::verify_s);
  count("stats.calls", static_cast<double>(e.stats_calls));
  time("stats.self_s", &Episode::stats_s);
  time("phase_s", &Episode::phase_s);
  // Measured-interval wall not covered by a child span or aggregate:
  // engine dispatch, core handlers, census and driver callbacks.
  m.push_back({"unattributed_s", median_of(traced, [](const Episode& x) {
                 return x.phase_s - x.fault_s - x.verify_s - x.stats_s;
               }),
               "s"});
  time("recovery_s", &Episode::recovery_s);
  service_metrics(e, m);
  const double plain =
      median_of(untraced, [](const Episode& x) { return x.events_per_s(); });
  const double with_trace =
      median_of(traced, [](const Episode& x) { return x.events_per_s(); });
  m.push_back({"trace.events_per_s_untraced", plain, "1/s"});
  m.push_back({"trace.events_per_s_traced", with_trace, "1/s"});
  m.push_back(
      {"trace.overhead_pct", 100.0 * (plain - with_trace) / plain, "%"});
  return m;
}

/// Queue replay at the workload's measured pending-set size and event mix.
Metric replay_metric(const Workload& w, const Episode& e, std::uint64_t seed,
                     Tracer& tracer) {
  ReplayModel model;
  model.pending = e.max_pending;
  model.delivery_share =
      static_cast<double>(e.delivered) / static_cast<double>(e.events);
  model.callback_share =
      static_cast<double>(e.callbacks) / static_cast<double>(e.events);
  model.callback_mean = 0.5 * (w.think_mean + w.cs_mean);
  model.timer_delay = klex::core::default_timeout(
      klex::tree::balanced(w.arity, w.height).size(),
      klex::sim::DelayModel{}.max_delay);
  model.streams = std::max(w.fleet, 1);
  Span span(tracer, "sim.EventQueue.replay");
  const ReplayResult replay = replay_queue(model, 2'000'000, seed);
  return {"sim.queue.replay_ns_per_event", replay.ns_per_event, "ns"};
}

std::string format_number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(36) << m.name << " "
              << std::setw(24) << format_number(m.value) << " " << m.unit
              << "\n";
  }
}

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << format_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// -- entry point --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args.workload.empty() &&
         args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const bool trace = args.trace == 1;
  Tracer tracer(trace, std::string(w->name) + "-" + std::to_string(args.seed));
  Tracer off(false, "");
  reference_rate();  // allocates its buffers before anything is timed
  const Clock::time_point start = Clock::now();

  std::vector<double> setups;  // normalized to the reference host speed
  double setup_wall = 0;  // host time spent in set-up-only repetitions
  auto below_share = [&]() {
    return setup_wall < kSetupShare * seconds_since(start);
  };
  // Up to `count` set-ups; with `fill`, only while below the share.
  auto set_up_batch = [&](int count, bool fill) {
    if (fill && !below_share()) return;
    std::vector<double> batch;
    const double before = reference_rate();
    while (static_cast<int>(batch.size()) < count &&
           (!fill || below_share())) {
      const Clock::time_point t0 = Clock::now();
      batch.push_back(setup_only(*w, args.seed));
      setup_wall += seconds_since(t0);
    }
    const double scale = 0.5 * (before + reference_rate()) / kReferenceRate;
    for (double seconds : batch) setups.push_back(seconds * scale);
  };
  set_up_batch(kFirstSetups, false);

  // Episodes until the next one would overrun --seconds (at least one).
  std::vector<Episode> untraced, traced;
  for (;;) {
    const Clock::time_point episode_start = Clock::now();
    // Free pages left by earlier episodes and set-ups go back to the
    // system first, so peak_rss_mb does not creep up with the number of
    // episodes a run fits (which depends on the host's speed).
    malloc_trim(0);
    untraced.push_back(run_episode(*w, args.seed, off, false));
    if (trace) {
      Span episode(tracer, "episode");
      traced.push_back(run_episode(*w, args.seed, tracer, true));
      Span replays(tracer, "replay");
      replay_setup_layers(*w, args.seed, tracer, traced.back());
    }
    const double episode_s = seconds_since(episode_start);
    set_up_batch(kMaxSetupBatch, true);
    if (seconds_since(start) + episode_s > args.seconds) break;
  }

  std::vector<const Episode*> all;
  for (const Episode& e : untraced) all.push_back(&e);
  for (const Episode& e : traced) all.push_back(&e);
  std::int64_t attempted = 0, failed = 0;
  for (const Episode* e : all) {
    if (e->digest != all.front()->digest) {
      throw CheckFailure(std::string(w->name) +
                         ": episodes of one seed diverged (digest " +
                         hex(e->digest) + " vs " + hex(all.front()->digest) +
                         ")");
    }
    // Every measured interval is one operation (it must end legitimate),
    // every acquisition another. Acquisitions denied or leases revoked by
    // an injected fault are that fault's designed effect (failed_ratio
    // reports them); any other denial is a failure.
    attempted += std::max(w->faults, 1) + e->acquires;
    failed += e->failed_outside_faults;
  }

  const Episode& first = trace ? traced.front() : untraced.front();
  std::cout << "perfbench workload=" << w->name << " seed=" << args.seed
            << " episodes=" << untraced.size() << " setups=" << setups.size()
            << " events=" << first.events << " phase_ticks="
            << first.phase_ticks << " stabilized_at=" << first.stabilized_at
            << "\n";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::cout << "  episode " << i << ": setup_s " << untraced[i].setup_s
              << " phase_s " << untraced[i].phase_s << " events_per_s "
              << untraced[i].events_per_s() << " reference_rate "
              << untraced[i].reference_mean_rate() << " normalized "
              << untraced[i].normalized_events_per_s() << "\n";
  }
  std::vector<Metric> metrics;
  if (trace) {
    Episode windows;
    {
      Span span(tracer, "sim.ParallelEngine.probe");
      windows = run_episode(window_probe(), args.seed, off, false);
      replay_setup_layers(window_probe(), args.seed, tracer, windows);
    }
    // A second probe run pins the windowed trajectory at its lane count.
    if (run_episode(window_probe(), args.seed, off, false).digest !=
            windows.digest ||
        windows.windows == 0 || windows.merged_fallbacks != 0) {
      throw CheckFailure("window probe: runs diverged or fell back to "
                         "merged-serial execution");
    }
    metrics = per_layer_metrics(traced, untraced, windows);
    metrics.push_back(replay_metric(*w, first, args.seed, tracer));
    const std::filesystem::path dir = ".bench_build/traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (std::string(w->name) + "-" + std::to_string(args.seed) +
                ".json"))
            .string();
    if (!tracer.write_json(path)) {
      throw CheckFailure("cannot write the trace to " + path);
    }
    print_metrics(metrics);
    std::cout << "trace " << path << "\n";
  } else {
    metrics = end_to_end_metrics(setups, untraced);
    std::vector<Metric> service = metrics;
    service.push_back({"recovery_s", median_of(untraced, [](const Episode& x) {
                         return x.recovery_s;
                       }),
                       "s"});
    service_metrics(first, service);
    print_metrics(service);
  }
  std::cout << "digest " << hex(first.digest) << "\n";
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload serve|recover|fleet "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const perfbench::CheckFailure& failure) {
    std::cerr << "CHECK FAILED: " << failure.what() << "\n";
  } catch (const std::exception& error) {
    std::cerr << "ERROR: " << error.what() << "\n";
  }
  return 1;
}
