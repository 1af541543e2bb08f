// The "annealing" engine through the registry, read with its `steps`,
// `moves_tried` and `moves_accepted` counters.
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "obs/observer.h"

namespace sfqpart {
namespace {

EngineRun run_engine(const char* name, const Netlist& netlist, int num_planes,
                     std::uint64_t seed = 1,
                     obs::SolverObserver* observer = nullptr) {
  const auto engine = EngineRegistry::create(name);
  EXPECT_TRUE(engine.is_ok()) << name;
  if (!engine.is_ok()) return {};
  EngineContext context;
  context.num_planes = num_planes;
  context.seed = seed;
  context.observer = observer;
  auto run = (*engine)->run(netlist, context);
  EXPECT_TRUE(run.is_ok()) << name << ": " << run.status().message();
  if (!run.is_ok()) return {};
  return *std::move(run);
}

// Annealing starts from the random engine's labels at the same seed.
TEST(Annealing, ImprovesTheRandomStart) {
  const Netlist netlist = build_mapped("ksa8");
  const EngineRun start = run_engine("random", netlist, 5);
  const EngineRun result = run_engine("annealing", netlist, 5);
  EXPECT_LT(result.discrete_total, 0.5 * start.discrete_total);
  EXPECT_GT(result.counter("moves_accepted"), 0);
  EXPECT_GE(result.counter("moves_tried"), result.counter("moves_accepted"));
}

TEST(Annealing, ProducesCompleteValidPartition) {
  const Netlist netlist = build_mapped("mult4");
  const EngineRun result = run_engine("annealing", netlist, 4);
  std::set<int> used;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      ASSERT_GE(result.partition.plane(g), 0);
      ASSERT_LT(result.partition.plane(g), 4);
      used.insert(result.partition.plane(g));
    }
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Annealing, DeterministicForSeed) {
  const Netlist netlist = build_mapped("ksa4");
  const EngineRun a = run_engine("annealing", netlist, 3, 11);
  const EngineRun b = run_engine("annealing", netlist, 3, 11);
  EXPECT_EQ(a.partition.plane_of, b.partition.plane_of);
  EXPECT_DOUBLE_EQ(a.discrete_total, b.discrete_total);
}

TEST(Annealing, CompetitiveQualityMetrics) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionMetrics m =
      compute_metrics(netlist, run_engine("annealing", netlist, 5).partition);
  const PartitionMetrics random =
      compute_metrics(netlist, run_engine("random", netlist, 5).partition);
  EXPECT_GT(m.frac_within(1), random.frac_within(1));
  EXPECT_LT(m.icomp_frac(), 0.2);
}

// A warm start replaces the random start: at the same seed the anneal
// leaves from other labels, and its best is never worse than the seed.
TEST(Annealing, WarmStartReplacesTheRandomStart) {
  const Netlist netlist = build_mapped("ksa8");
  const EngineRun layered = run_engine("layered", netlist, 5);
  InitialPartition warm;
  warm.plane_of = layered.partition.plane_of;
  const auto engine = EngineRegistry::create("annealing");
  ASSERT_TRUE(engine.is_ok());
  EngineContext context;
  context.warm_start = &warm;
  const auto warm_run = (*engine)->run(netlist, context);
  ASSERT_TRUE(warm_run.is_ok()) << warm_run.status().message();
  EXPECT_NE(warm_run->partition.plane_of,
            run_engine("annealing", netlist, 5).partition.plane_of);
  EXPECT_LE(warm_run->discrete_total, layered.discrete_total + 1e-9);
  EXPECT_EQ(warm_run->counter("warm_start_kept"), 0.0);
}

// On ksa4 at K = 2 the schedule runs out of patience after 17 of its 40
// temperature steps.
TEST(Annealing, PatienceStopsEarly) {
  const Netlist netlist = build_mapped("ksa4");
  const EngineRun result = run_engine("annealing", netlist, 2);
  EXPECT_LT(result.counter("steps"), 40);
}

// The exact re-score annealing reports in its run_end event.
class RunEndRecorder final : public obs::SolverObserver {
 public:
  void on_run_end(const obs::RunEndEvent& e) override {
    discrete_total = e.discrete_total;
  }
  double discrete_total = -1.0;
};

TEST(Annealing, FinalCostMatchesReturnedPartition) {
  const Netlist netlist = build_mapped("mult4");
  RunEndRecorder recorder;
  const EngineRun result = run_engine("annealing", netlist, 5, 1, &recorder);
  EXPECT_NEAR(recorder.discrete_total, result.discrete_total, 1e-9);
}

}  // namespace
}  // namespace sfqpart
