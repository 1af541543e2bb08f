
// Contract tests of the gradient-descent partitioning flow. These used to
// exercise the deprecated free functions (partition_netlist and friends);
// since their removal (DESIGN.md section 8.4) the same contracts are
// pinned through the Solver facade, which the wrappers were documented to
// be bit-identical to.
#include <set>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/solver.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"

namespace sfqpart {
namespace {

// The historical partition_netlist(netlist, options) call, expressed on
// the facade: a single-threaded Solver with the same options.
SolverResult run_solver(const Netlist& netlist,
                        const SolverConfig& options = {}) {
  auto result = Solver(options).run(netlist);
  EXPECT_TRUE(result.is_ok()) << result.status().message();
  return std::move(result).value();
}

TEST(PartitionProblem, FromNetlistCompactsIoAway) {
  const Netlist netlist = build_mapped("ksa4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  EXPECT_EQ(problem.num_gates, netlist.num_partitionable_gates());
  EXPECT_EQ(problem.edges.size(), netlist.unique_edges().size());
  for (const GateId g : problem.gate_ids) {
    EXPECT_TRUE(netlist.is_partitionable(g));
  }
  for (const auto& [a, b] : problem.edges) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, problem.num_gates);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, problem.num_gates);
  }
}

TEST(Partitioner, AssignsEveryPartitionableGate) {
  const Netlist netlist = build_mapped("ksa4");
  const SolverResult result = run_solver(netlist);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      EXPECT_NE(result.partition.plane(g), kUnassignedPlane);
      EXPECT_LT(result.partition.plane(g), 5);
    } else {
      EXPECT_EQ(result.partition.plane(g), kUnassignedPlane);
    }
  }
}

TEST(Partitioner, UsesAllPlanes) {
  const Netlist netlist = build_mapped("ksa8");
  const SolverResult result = run_solver(netlist);
  std::set<int> used;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (result.partition.assigned(g)) used.insert(result.partition.plane(g));
  }
  EXPECT_EQ(used.size(), 5u);
}

TEST(Partitioner, DeterministicForSeed) {
  const Netlist netlist = build_mapped("ksa4");
  SolverConfig options;
  options.seed = 42;
  const SolverResult a = run_solver(netlist, options);
  const SolverResult b = run_solver(netlist, options);
  EXPECT_EQ(a.partition.plane_of, b.partition.plane_of);
  EXPECT_EQ(a.discrete_total, b.discrete_total);
}

TEST(Partitioner, BeatsRandomBaselineOnLocalityAndBalance) {
  const Netlist netlist = build_mapped("ksa8");
  const SolverResult result = run_solver(netlist);
  const PartitionMetrics ours = compute_metrics(netlist, result.partition);
  EngineContext context;
  context.num_planes = 5;
  const auto random = (*EngineRegistry::create("random"))->run(netlist, context);
  ASSERT_TRUE(random.is_ok()) << random.status().message();
  const PartitionMetrics rand = compute_metrics(netlist, random->partition);
  // Random round-robin: ~52% of connections within distance 1 at K=5; the
  // optimizer should be far above, with comparable or better balance.
  EXPECT_GT(ours.frac_within(1), rand.frac_within(1) + 0.15);
  EXPECT_LT(ours.icomp_frac(), 0.25);
  EXPECT_LT(ours.afs_frac(), 0.25);
}

class PartitionerSweep : public ::testing::TestWithParam<int> {};

// Property sweep over K: structural invariants that must hold for any K.
TEST_P(PartitionerSweep, InvariantsHoldForEveryK) {
  const int k = GetParam();
  const Netlist netlist = build_mapped("mult4");
  SolverConfig options;
  options.num_planes = k;
  options.restarts = 2;
  const SolverResult result = run_solver(netlist, options);
  const PartitionMetrics metrics = compute_metrics(netlist, result.partition);

  EXPECT_EQ(metrics.num_planes, k);
  EXPECT_EQ(metrics.num_gates, netlist.num_partitionable_gates());
  // I_comp identity: sum(Bmax - Bk) == K*Bmax - Bcir.
  EXPECT_NEAR(metrics.icomp_ma, k * metrics.bmax_ma - metrics.total_bias_ma, 1e-6);
  // Distance CDF is monotone and ends at 1.
  double prev = 0.0;
  for (int d = 0; d < k; ++d) {
    const double cdf = metrics.frac_within(d);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_NEAR(metrics.frac_within(k - 1), 1.0, 1e-12);
  // B_max cannot be below the ideal.
  EXPECT_GE(metrics.bmax_ma, metrics.total_bias_ma / k - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(K, PartitionerSweep, ::testing::Values(2, 3, 5, 7, 10),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(Partitioner, MoreRestartsNeverWorse) {
  const Netlist netlist = build_mapped("ksa4");
  SolverConfig one;
  one.restarts = 1;
  one.seed = 9;
  SolverConfig five;
  five.restarts = 5;
  five.seed = 9;
  const double cost1 = run_solver(netlist, one).discrete_total;
  const double cost5 = run_solver(netlist, five).discrete_total;
  // Restart 0 is identical for both (same split sequence), so the 5-way
  // minimum cannot be worse.
  EXPECT_LE(cost5, cost1 + 1e-12);
}

TEST(Partitioner, RefineOptionNeverHurtsDiscreteCost) {
  const Netlist netlist = build_mapped("ksa8");
  SolverConfig plain;
  plain.seed = 3;
  SolverConfig refined = plain;
  refined.refine = true;
  const double cost_plain = run_solver(netlist, plain).discrete_total;
  const double cost_refined = run_solver(netlist, refined).discrete_total;
  EXPECT_LE(cost_refined, cost_plain + 1e-12);
}

TEST(Partitioner, PaperGradientStyleProducesComparableQuality) {
  const Netlist netlist = build_mapped("ksa8");
  SolverConfig paper;
  paper.gradient_style = GradientStyle::kPaperEq10;
  const SolverResult result = run_solver(netlist, paper);
  const PartitionMetrics metrics = compute_metrics(netlist, result.partition);
  EXPECT_GT(metrics.frac_within(1), 0.45);
  EXPECT_LT(metrics.icomp_frac(), 0.35);
}

}  // namespace
}  // namespace sfqpart
