// The "random", "layered" and "fm_kway" engines through the registry;
// FM is read with its `passes`, `initial_cut` and `final_cut` counters.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"

namespace sfqpart {
namespace {

EngineRun run_engine(const char* name, const Netlist& netlist, int num_planes,
                     std::uint64_t seed = 1) {
  const auto engine = EngineRegistry::create(name);
  EXPECT_TRUE(engine.is_ok()) << name;
  if (!engine.is_ok()) return {};
  EngineContext context;
  context.num_planes = num_planes;
  context.seed = seed;
  auto run = (*engine)->run(netlist, context);
  EXPECT_TRUE(run.is_ok()) << name << ": " << run.status().message();
  if (!run.is_ok()) return {};
  return *std::move(run);
}

void expect_complete(const Netlist& netlist, const Partition& partition, int k) {
  EXPECT_EQ(partition.num_planes, k);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      EXPECT_GE(partition.plane(g), 0);
      EXPECT_LT(partition.plane(g), k);
    } else {
      EXPECT_EQ(partition.plane(g), kUnassignedPlane);
    }
  }
}

TEST(RandomPartition, CompleteAndCountBalanced) {
  const Netlist netlist = build_mapped("ksa8");
  const Partition partition = run_engine("random", netlist, 5).partition;
  expect_complete(netlist, partition, 5);
  const PartitionMetrics metrics = compute_metrics(netlist, partition);
  // Round-robin: plane gate counts differ by at most 1.
  int lo = netlist.num_gates();
  int hi = 0;
  for (const int count : metrics.plane_gates) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(RandomPartition, SeedControlsResult) {
  const Netlist netlist = build_mapped("ksa4");
  EXPECT_EQ(run_engine("random", netlist, 4, 7).partition.plane_of,
            run_engine("random", netlist, 4, 7).partition.plane_of);
  EXPECT_NE(run_engine("random", netlist, 4, 7).partition.plane_of,
            run_engine("random", netlist, 4, 8).partition.plane_of);
}

TEST(LayeredPartition, BiasBalancedWithinOneGate) {
  const Netlist netlist = build_mapped("ksa8");
  const Partition partition = run_engine("layered", netlist, 5).partition;
  expect_complete(netlist, partition, 5);
  const PartitionMetrics metrics = compute_metrics(netlist, partition);
  const double ideal = metrics.total_bias_ma / 5;
  for (const double bias : metrics.plane_bias_ma) {
    EXPECT_NEAR(bias, ideal, 2.0);  // max gate bias ~1.35 mA, slack 2
  }
}

TEST(LayeredPartition, ExploitsPipelineLocality) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionMetrics layered =
      compute_metrics(netlist, run_engine("layered", netlist, 5).partition);
  const PartitionMetrics random =
      compute_metrics(netlist, run_engine("random", netlist, 5).partition);
  EXPECT_GT(layered.frac_within(1), random.frac_within(1) + 0.2);
}

TEST(FmKway, ReducesCutWithinBalance) {
  const Netlist netlist = build_mapped("ksa8");
  const EngineRun result = run_engine("fm_kway", netlist, 5);
  expect_complete(netlist, result.partition, 5);
  EXPECT_LT(result.counter("final_cut"), result.counter("initial_cut"));
  EXPECT_EQ(cut_count(netlist, result.partition), result.counter("final_cut"));

  const PartitionMetrics metrics = compute_metrics(netlist, result.partition);
  const double ideal = metrics.total_bias_ma / 5;
  for (const double bias : metrics.plane_bias_ma) {
    EXPECT_LE(bias, ideal * 1.10 + 1.5);
    EXPECT_GE(bias, ideal * 0.90 - 1.5);
  }
}

TEST(FmKway, CutObjectiveIgnoresDistance) {
  // The classic objective can beat the optimizer on raw cut count while
  // being worse on the distance-weighted metrics -- the paper's argument
  // for a new formulation. At minimum, FM must not produce a *better*
  // distance profile than its own cut profile implies: check consistency,
  // d<=0 share == 1 - cut/|E|.
  const Netlist netlist = build_mapped("mult4");
  const EngineRun result = run_engine("fm_kway", netlist, 5);
  const PartitionMetrics metrics = compute_metrics(netlist, result.partition);
  EXPECT_NEAR(metrics.frac_within(0),
              1.0 - result.counter("final_cut") / metrics.num_connections,
              1e-9);
}

TEST(CutCount, HandComputed) {
  Netlist netlist(&default_sfq_library(), "cut");
  const GateId a = netlist.add_gate_of_kind("a", CellKind::kDff);
  const GateId b = netlist.add_gate_of_kind("b", CellKind::kDff);
  const GateId c = netlist.add_gate_of_kind("c", CellKind::kDff);
  netlist.connect(a, 0, b, 0);
  netlist.connect(b, 0, c, 0);
  Partition partition;
  partition.num_planes = 2;
  partition.plane_of = {0, 0, 1};
  EXPECT_EQ(cut_count(netlist, partition), 1);
  partition.plane_of = {0, 1, 0};
  EXPECT_EQ(cut_count(netlist, partition), 2);
}

}  // namespace
}  // namespace sfqpart
