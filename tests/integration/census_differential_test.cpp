// Differential test for the incremental token census: after every event
// batch, the O(1) CensusTracker (engine per-type counters + participant
// deltas) must agree field-for-field with the full-walk take_census
// oracle -- on all three topology families, through workload churn,
// transient-fault injection (corrupt + clear_channels + garbage preload)
// and bare clear_channels() epochs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/builder.hpp"
#include "proto/census.hpp"
#include "api/workload_driver.hpp"
#include "proto/workload.hpp"

namespace klex {
namespace {

void expect_census_equal(const proto::TokenCensus& tracked,
                         const proto::TokenCensus& oracle,
                         const std::string& where) {
  EXPECT_EQ(tracked.free_resource, oracle.free_resource) << where;
  EXPECT_EQ(tracked.reserved_resource, oracle.reserved_resource) << where;
  EXPECT_EQ(tracked.pusher, oracle.pusher) << where;
  EXPECT_EQ(tracked.free_priority, oracle.free_priority) << where;
  EXPECT_EQ(tracked.held_priority, oracle.held_priority) << where;
  EXPECT_EQ(tracked.control, oracle.control) << where;
}

struct DifferentialParam {
  const char* name;
  TopologySpec topology;
};

class CensusDifferentialTest
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(CensusDifferentialTest, TrackerMatchesOracleAfterEveryBatch) {
  const DifferentialParam& param = GetParam();
  const int k = 2;
  const int l = 4;
  std::unique_ptr<SystemBase> system = SystemBuilder()
                                           .topology(param.topology)
                                           .kl(k, l)
                                           .cmax(3)
                                           .seed(42)
                                           .build();

  // Workload churn so RSet / Prio deltas actually fire.
  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::exponential(48);
  behavior.cs_duration = proto::Dist::exponential(24);
  behavior.need = proto::Dist::uniform(1, k);
  WorkloadDriver driver(system->engine(), system->clients(),
                               proto::uniform_behaviors(system->n(), behavior),
                               support::Rng(7));
  driver.begin();

  support::Rng fault_rng(0xD1FFu);
  const int batches = 400;
  for (int batch = 0; batch < batches; ++batch) {
    system->engine().run_events(257);
    std::string where = std::string(param.name) + " batch " +
                        std::to_string(batch);
    expect_census_equal(system->census(), system->census_oracle(), where);
    EXPECT_EQ(system->token_counts_correct(),
              system->census_oracle().correct(l))
        << where;

    // Perturbations between batches: full transient faults (corrupt +
    // clear + garbage), bare channel-clear epochs, and surplus tokens.
    if (batch % 37 == 13) {
      system->inject_transient_fault(fault_rng);
      driver.resync();
    } else if (batch % 53 == 29) {
      system->engine().clear_channels();
    } else if (batch % 41 == 11) {
      system->engine().inject_message(0, 0, proto::make_resource());
    } else if (batch % 61 == 31) {
      sim::Message junk;
      junk.type = 999;  // not a protocol message: both sides must ignore it
      system->engine().inject_message(0, 0, junk);
    }
  }

  // The perturbation schedule must leave time to re-stabilize; the final
  // confirmed state has to be ledger-exact too.
  ASSERT_NE(system->run_until_stabilized(
                system->engine().now() + 80'000'000),
            sim::kTimeInfinity)
      << param.name;
  expect_census_equal(system->census(), system->census_oracle(), "final");
  EXPECT_TRUE(system->token_counts_correct());
}

std::string differential_param_name(
    const ::testing::TestParamInfo<DifferentialParam>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, CensusDifferentialTest,
    ::testing::Values(
        DifferentialParam{"tree", TopologySpec::tree_random(24, 3)},
        DifferentialParam{"ring", TopologySpec::ring(16)},
        DifferentialParam{"graph",
                          TopologySpec::graph_random(16, 6, 5)}),
    differential_param_name);

}  // namespace
}  // namespace klex
