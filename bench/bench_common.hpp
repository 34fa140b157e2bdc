// Shared helpers for the experiment benchmarks.
//
// Every bench binary regenerates one artifact of the paper (a figure, a
// theorem, or a design-ablation table listed in DESIGN.md §4): it prints
// the experiment table to stdout, runs its google-benchmark timing
// section, and -- for the benches ported to exp::ExperimentRunner --
// writes the machine-readable BENCH_<scenario>.json artifact that tracks
// the perf trajectory across PRs. Absolute numbers are
// simulator-dependent; the tables are about the paper's *shape* claims
// (who wins, by what factor, where the crossovers are).
//
// Measurement goes through exp::ExperimentRunner::run_point: the benches
// declare scenarios, and every grid point runs the runner's one phase
// sequence -- stabilize from the arbitrary initial state, warm up,
// measure the closed-loop service, inject the planned fault, time
// re-legitimacy. A plain point runs it once. A shared fleet runs it once
// over the FleetSystem, with per-tenant slices and a fault scoped to
// tenant 0 alone. A separate-engines fleet runs it once per standalone
// system (seeds s .. s+R-1, only system 0 faulted) and sums the results.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/builder.hpp"
#include "api/system.hpp"
#include "api/system_base.hpp"
#include "api/workload_driver.hpp"
#include "exp/runner.hpp"
#include "proto/trace.hpp"
#include "proto/workload.hpp"
#include "stats/throughput.hpp"
#include "stats/waiting_time.hpp"
#include "support/table.hpp"
#include "verify/fairness_monitor.hpp"
#include "verify/safety_monitor.hpp"

namespace klex::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n################################################\n"
            << "# " << id << "\n"
            << "# " << claim << "\n"
            << "################################################\n";
}

/// Per-run results plus the cross-seed aggregates, computed once.
struct ScenarioOutput {
  std::vector<exp::RunResult> results;
  std::vector<exp::Aggregate> aggregates;
};

/// Prints the aggregate table for `output` under the scenario's name.
inline void print_aggregate_table(const exp::ScenarioSpec& spec,
                                  const ScenarioOutput& output,
                                  int threads) {
  support::Table table({"topology", "rung", "k", "l", "runs", "stabilized",
                        "mean stab time", "grants/Mtick", "mean wait",
                        "msgs/grant", "safe", "sum events/s"});
  for (const exp::Aggregate& cell : output.aggregates) {
    table.add_row({cell.topology, cell.features, support::Table::cell(cell.k),
                   support::Table::cell(cell.l),
                   support::Table::cell(cell.runs),
                   support::Table::cell(cell.stabilized_runs),
                   support::Table::cell(cell.mean_stabilization_time, 0),
                   support::Table::cell(cell.mean_grants_per_mtick, 1),
                   support::Table::cell(cell.mean_wait_entries, 2),
                   support::Table::cell(cell.mean_messages_per_grant, 1),
                   support::Table::cell(cell.safe_runs),
                   support::Table::cell(cell.total_events_per_sec, 0)});
  }
  table.print(std::cout,
              "scenario '" + spec.name + "' (" + std::to_string(threads) +
                  " threads)");
}

/// Runs `spec` across all cores and prints the per-cell aggregate table;
/// when `emit_json` is set, also writes BENCH_<spec.name>.json into the
/// current working directory (mirroring exactly the aggregates that were
/// printed).
inline ScenarioOutput run_scenario(const exp::ScenarioSpec& spec,
                                   bool emit_json = true) {
  exp::ExperimentRunner runner;
  ScenarioOutput output;
  output.results = runner.run(spec);
  output.aggregates = exp::ExperimentRunner::aggregate(output.results);
  print_aggregate_table(spec, output, runner.threads());
  if (emit_json) {
    std::string path =
        exp::write_json_file(spec, output.results, output.aggregates);
    std::cout << "wrote " << path << "\n";
  }
  return output;
}

/// The shared n-sweep of the scale-facing benches (bench_scale,
/// bench_recovery): {128 .. 32768} capped by `hard_cap` and by the
/// KLEX_SCALE_MAX_N environment variable (CI smoke runs use 2048).
inline std::vector<int> scale_sweep_sizes(int hard_cap = 32768) {
  std::vector<int> sizes = {128, 512, 2048, 8192, 32768};
  int max_n = hard_cap;
  if (const char* cap = std::getenv("KLEX_SCALE_MAX_N")) {
    max_n = std::min(max_n, std::atoi(cap));
  }
  std::erase_if(sizes, [max_n](int n) { return n > max_n; });
  return sizes;
}

}  // namespace klex::bench
