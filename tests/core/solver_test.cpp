#include "core/solver.h"

#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/suite.h"
#include "obs/observer.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

TEST(Solver, RunPartitionsEveryPartitionableGate) {
  const Netlist netlist = build_mapped("ksa4");
  const auto result = Solver().run(netlist);
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      EXPECT_NE(result->partition.plane(g), kUnassignedPlane);
      EXPECT_LT(result->partition.plane(g), 5);
    } else {
      EXPECT_EQ(result->partition.plane(g), kUnassignedPlane);
    }
  }
}

TEST(Solver, RejectsInvalidConfigWithStatusInsteadOfAsserting) {
  const Netlist netlist = build_mapped("ksa4");

  SolverConfig too_few_planes;
  too_few_planes.num_planes = 1;
  EXPECT_FALSE(Solver(too_few_planes).run(netlist).is_ok());

  SolverConfig no_restarts;
  no_restarts.restarts = 0;
  EXPECT_FALSE(Solver(no_restarts).run(netlist).is_ok());

  SolverConfig negative_threads;
  negative_threads.threads = -2;
  EXPECT_FALSE(Solver(negative_threads).run(netlist).is_ok());

  SolverConfig bad_rate;
  bad_rate.optimizer.learning_rate = 0.0;
  const auto status = Solver(bad_rate).run(netlist);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.status().message().find("learning_rate"), std::string::npos);

  SolverConfig bad_exponent;
  bad_exponent.weights.distance_exponent = 0;
  EXPECT_FALSE(Solver(bad_exponent).run(netlist).is_ok());
}

// Edge weights index by edge and scale N1, so a short array or a
// non-positive weight is rejected before any CostModel reads them.
TEST(Solver, RejectsMalformedEdgeWeights) {
  PartitionProblem problem =
      PartitionProblem::from_netlist(build_mapped("ksa4"), 3);
  ASSERT_GE(problem.edges.size(), 2u);
  SolverConfig config;
  config.num_planes = 3;

  problem.edge_weights.assign(problem.edges.size() - 1, 1);
  const auto short_status = Solver(config).solve(problem);
  ASSERT_FALSE(short_status.is_ok());
  EXPECT_NE(short_status.status().message().find("edge_weights"),
            std::string::npos);

  problem.edge_weights.assign(problem.edges.size(), 1);
  problem.edge_weights[1] = 0;
  EXPECT_FALSE(Solver(config).solve(problem).is_ok());

  problem.edge_weights[1] = 2;
  EXPECT_TRUE(Solver(config).solve(problem).is_ok());
}

// inf passes a "> 0" check and nan passes nothing loudly; both used to
// slip through validate() and poison every cost. parse_double accepts the
// "inf"/"nan" spellings, so config plumbing can realistically produce
// these values.
TEST(Solver, RejectsNonFiniteConfigValues) {
  const Netlist netlist = build_mapped("ksa4");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  for (const double bad : {inf, -inf, nan}) {
    SolverConfig rate;
    rate.optimizer.learning_rate = bad;
    const auto rate_status = Solver(rate).run(netlist);
    ASSERT_FALSE(rate_status.is_ok());
    EXPECT_NE(rate_status.status().message().find("finite"), std::string::npos);

    SolverConfig margin;
    margin.optimizer.margin = bad;
    EXPECT_FALSE(Solver(margin).run(netlist).is_ok());
  }

  SolverConfig c1;
  c1.weights.c1 = nan;
  const auto c1_status = Solver(c1).run(netlist);
  ASSERT_FALSE(c1_status.is_ok());
  EXPECT_NE(c1_status.status().message().find("weights.c1"), std::string::npos);

  SolverConfig c4;
  c4.weights.c4 = inf;
  EXPECT_FALSE(Solver(c4).run(netlist).is_ok());
}

TEST(Solver, RejectsProblemWithoutPartitionableGates) {
  PartitionProblem empty;
  empty.num_planes = 4;
  const auto solved = Solver().solve(empty);
  ASSERT_FALSE(solved.is_ok());
  EXPECT_NE(solved.status().message().find("partitionable"), std::string::npos);
}

TEST(Solver, EffectiveThreadsResolvesZeroToHardware) {
  SolverConfig hardware;
  hardware.threads = 0;
  EXPECT_EQ(Solver(hardware).effective_threads(),
            ThreadPool::hardware_concurrency());
  SolverConfig four;
  four.threads = 4;
  EXPECT_EQ(Solver(four).effective_threads(), 4);
  EXPECT_EQ(Solver().effective_threads(), 1);
}

TEST(Solver, ConfigRoundTripsThroughConstructor) {
  SolverConfig options;
  options.num_planes = 7;
  options.restarts = 9;
  options.seed = 1234;
  options.threads = 3;
  options.refine = true;
  options.weights.c2 = 0.5;
  options.optimizer.max_iterations = 123;
  const Solver solver(options);
  const SolverConfig& config = solver.config();
  EXPECT_EQ(config.num_planes, 7);
  EXPECT_EQ(config.restarts, 9);
  EXPECT_EQ(config.seed, 1234u);
  EXPECT_EQ(config.threads, 3);
  EXPECT_TRUE(config.refine);
  EXPECT_EQ(config.weights.c2, 0.5);
  EXPECT_EQ(config.optimizer.max_iterations, 123);
}

// Replaces the retired SolverConfig::progress callback test: the observer
// event stream is now the only live-progress surface, and it must see
// every restart even with concurrent workers.
TEST(Solver, ObserverSeesEveryRestart) {
  struct IterationRecorder final : obs::SolverObserver {
    // Serialized by the Solver's TraceSink lock.
    std::vector<obs::IterationEvent> events;
    void on_iteration(const obs::IterationEvent& e) override {
      events.push_back(e);
    }
  };

  const Netlist netlist = build_mapped("ksa4");
  IterationRecorder recorder;
  SolverConfig config;
  config.restarts = 3;
  config.threads = 4;
  config.observer = &recorder;
  const auto result = Solver(std::move(config)).run(netlist);
  ASSERT_TRUE(result.is_ok()) << result.status().message();

  ASSERT_FALSE(recorder.events.empty());
  std::vector<bool> seen(3, false);
  int cost_ok = 0;
  for (const obs::IterationEvent& e : recorder.events) {
    ASSERT_GE(e.restart, 0);
    ASSERT_LT(e.restart, 3);
    seen[static_cast<std::size_t>(e.restart)] = true;
    EXPECT_GE(e.iteration, 0);
    if (e.cost >= 0.0) ++cost_ok;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
  EXPECT_GT(cost_ok, 0);
}

TEST(Solver, RunOnPrebuiltProblemMatchesNetlistRun) {
  const Netlist netlist = build_mapped("ksa4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const auto via_netlist = Solver().run(netlist);
  const auto via_problem = Solver().run(problem, netlist.num_gates());
  ASSERT_TRUE(via_netlist.is_ok());
  ASSERT_TRUE(via_problem.is_ok());
  EXPECT_EQ(via_netlist->partition.plane_of, via_problem->partition.plane_of);
  EXPECT_EQ(via_netlist->discrete_total, via_problem->discrete_total);
}

}  // namespace
}  // namespace sfqpart
