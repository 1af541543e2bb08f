#include "core/vcycle.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/partition.h"

#include <gtest/gtest.h>

#include "gen/scaled.h"
#include "gen/suite.h"
#include "obs/run_report.h"
#include "util/hash.h"

namespace sfqpart {
namespace {

// A circuit large enough for several coarsening levels but fast to solve.
Netlist scaled_20k() {
  ScaledParams params;
  params.name = "scaled20k";
  params.num_gates = 20000;
  params.seed = 3;
  return build_scaled(params);
}

TEST(Vcycle, AssignsEveryGateToAValidPlane) {
  const Netlist netlist = scaled_20k();
  const VcycleResult result = vcycle_partition(netlist, 5);
  std::set<int> used;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      ASSERT_GE(result.partition.plane(g), 0);
      ASSERT_LT(result.partition.plane(g), 5);
      used.insert(result.partition.plane(g));
    } else {
      EXPECT_EQ(result.partition.plane(g), kUnassignedPlane);
    }
  }
  EXPECT_EQ(used.size(), 5u);
  EXPECT_GE(result.levels, 2);
  EXPECT_LT(result.coarse_gates, netlist.num_partitionable_gates());
}

constexpr VcycleRefineStyle kStyles[] = {VcycleRefineStyle::kBanded,
                                         VcycleRefineStyle::kBuckets,
                                         VcycleRefineStyle::kGreedy};

// The V-cycle invariant: every refiner only ever commits strictly
// improving moves, so every level's refined cost is at most its
// projected cost.
TEST(Vcycle, RefinementNeverWorsensALevel) {
  const Netlist netlist = scaled_20k();
  for (const VcycleRefineStyle style : kStyles) {
    obs::RunReport report;
    VcycleOptions options;
    options.refine_style = style;
    options.observer = &report;
    const VcycleResult result = vcycle_partition(netlist, 5, options);
    ASSERT_GE(result.levels, 2);

    int refined_levels = 0;
    for (const obs::LevelEvent& level : report.levels()) {
      if (level.level >= result.levels) continue;  // coarsest: no refinement
      EXPECT_LE(level.refined_cost, level.projected_cost + 1e-9)
          << "style " << static_cast<int>(style) << " level " << level.level;
      ++refined_levels;
    }
    EXPECT_EQ(refined_levels, result.levels);
  }
}

// Determinism contract (DESIGN.md section 7): labels are bit-identical
// at any thread count. The banded proposal sweep parallelizes over
// frozen pass-start labels, its commit is serial in ascending gate
// order, and the greedy refiner is serial in its seeded order.
TEST(Vcycle, LabelsIdenticalAcrossThreadCounts) {
  const Netlist netlist = scaled_20k();
  for (const VcycleRefineStyle style :
       {VcycleRefineStyle::kBanded, VcycleRefineStyle::kGreedy}) {
    std::vector<std::vector<int>> runs;
    for (const int threads : {1, 2, 8}) {
      VcycleOptions options;
      options.refine_style = style;
      options.threads = threads;
      runs.push_back(vcycle_partition(netlist, 5, options).partition.plane_of);
    }
    EXPECT_EQ(runs[0], runs[1]) << "style " << static_cast<int>(style);
    EXPECT_EQ(runs[0], runs[2]) << "style " << static_cast<int>(style);
  }
}

TEST(Vcycle, DeterministicInSeed) {
  const Netlist netlist = scaled_20k();
  VcycleOptions options;
  options.seed = 11;
  const VcycleResult a = vcycle_partition(netlist, 4, options);
  const VcycleResult b = vcycle_partition(netlist, 4, options);
  EXPECT_EQ(a.partition.plane_of, b.partition.plane_of);
  EXPECT_EQ(a.discrete_total, b.discrete_total);
}

// The structured report: one merged entry per level carrying both the
// way-down shape facts and the way-up refinement facts.
TEST(Vcycle, ReportCarriesMergedLevels) {
  const Netlist netlist = scaled_20k();
  obs::RunReport report;
  VcycleOptions options;
  options.observer = &report;
  const VcycleResult result = vcycle_partition(netlist, 5, options);

  // Levels 0..result.levels, each exactly once after merging.
  ASSERT_EQ(report.levels().size(), static_cast<std::size_t>(result.levels + 1));
  std::set<int> seen;
  for (const obs::LevelEvent& level : report.levels()) {
    EXPECT_TRUE(seen.insert(level.level).second);
    EXPECT_GT(level.num_vertices, 0);
    if (level.level > 0) {
      EXPECT_GT(level.coarsen_ms, 0.0);
    }
  }
  EXPECT_GT(report.stage_ms("coarsen"), 0.0);
  EXPECT_GT(report.stage_ms("coarse_solve"), 0.0);
  EXPECT_GT(report.stage_ms("uncoarsen"), 0.0);
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("sfqpart.run_report.v2"), std::string::npos);
  EXPECT_NE(json.find("\"levels\""), std::string::npos);
}

// FNV-1a over one byte per gate label (-1 for I/O gates): a portable
// fingerprint of a whole partition.
std::uint64_t label_hash(const Partition& partition) {
  std::string bytes;
  bytes.reserve(partition.plane_of.size());
  for (const int label : partition.plane_of) {
    bytes.push_back(static_cast<char>(label));
  }
  return Fnv1a64::of(bytes);
}

// Every 61st compact gate pinned to plane (index mod K).
std::vector<int> every_61st_pinned(const Netlist& netlist, int num_planes) {
  const int n = PartitionProblem::from_netlist(netlist, num_planes).num_gates;
  std::vector<int> fixed(static_cast<std::size_t>(n), kUnassignedPlane);
  for (int i = 0; i < n; i += 61) {
    fixed[static_cast<std::size_t>(i)] = i % num_planes;
  }
  return fixed;
}

struct LabelPin {
  const char* name;
  int num_planes;
  int band;
  bool pinned;
  VcycleRefineStyle style;
  std::uint64_t hash;
};

void PrintTo(const LabelPin& pin, std::ostream* os) { *os << pin.name; }

// Golden labels of scaled_20k: the refinement may get faster, never
// different. The banded hashes were recorded from the uncached
// propose/commit sweep (one full delta() walk per gate and target), so
// they also pin that the gain cache reproduces it bit for bit. The greedy
// rows pin the refiner of the multilevel preset.
class VcycleLabelPin : public ::testing::TestWithParam<LabelPin> {};

TEST_P(VcycleLabelPin, ReproducesPinnedLabels) {
  const LabelPin& pin = GetParam();
  const Netlist netlist = scaled_20k();
  const std::vector<int> fixed = every_61st_pinned(netlist, pin.num_planes);
  VcycleOptions options;
  options.band = pin.band;
  options.refine_style = pin.style;
  if (pin.pinned) options.fixed = &fixed;
  const VcycleResult result =
      vcycle_partition(netlist, pin.num_planes, options);
  EXPECT_EQ(label_hash(result.partition), pin.hash)
      << std::hex << label_hash(result.partition);
}

INSTANTIATE_TEST_SUITE_P(
    Scaled20k, VcycleLabelPin,
    ::testing::Values(
        LabelPin{"band1", 5, 1, false, VcycleRefineStyle::kBanded,
                 0xadf11ea416e5de0eull},
        LabelPin{"band2", 5, 2, false, VcycleRefineStyle::kBanded,
                 0xd894f924e1322363ull},
        LabelPin{"k8_band7", 8, 7, false, VcycleRefineStyle::kBanded,
                 0x8528a6243d8df0adull},
        LabelPin{"pinned", 5, 1, true, VcycleRefineStyle::kBanded,
                 0x914d67573d3ca50bull},
        LabelPin{"buckets", 5, 1, false, VcycleRefineStyle::kBuckets,
                 0xe0bdabd874466d66ull},
        LabelPin{"greedy", 5, 1, false, VcycleRefineStyle::kGreedy,
                 0xb3770d5baa40cf3cull},
        LabelPin{"greedy_pinned", 5, 1, true, VcycleRefineStyle::kGreedy,
                 0x89f5bdb306c3107eull}),
    [](const ::testing::TestParamInfo<LabelPin>& info) {
      return std::string(info.param.name);
    });

// Attaching an observer adds level scoring (DESIGN.md section 8.3) but
// must not change the answer or its reported cost.
TEST(Vcycle, ObservedRunMatchesUnobservedRun) {
  const Netlist netlist = scaled_20k();
  for (const VcycleRefineStyle style : kStyles) {
    VcycleOptions options;
    options.refine_style = style;
    const VcycleResult plain = vcycle_partition(netlist, 5, options);
    obs::RunReport report;
    options.observer = &report;
    const VcycleResult observed = vcycle_partition(netlist, 5, options);
    EXPECT_EQ(plain.partition.plane_of, observed.partition.plane_of);
    EXPECT_EQ(plain.discrete_total, observed.discrete_total);
    EXPECT_EQ(plain.refine_moves, observed.refine_moves);
  }
}

// Regression for the refined-cost drift bug: the per-level refined cost
// used to be cost_before plus the sum of committed move deltas, which
// drifts from the true cost in floating point over many passes. The
// level report must agree exactly with a fresh evaluation of the final
// labels — that is what run_report consumers compare against.
TEST(Vcycle, RefinedCostMatchesFreshEvaluation) {
  const Netlist netlist = scaled_20k();
  obs::RunReport report;
  VcycleOptions options;
  options.observer = &report;
  const VcycleResult result = vcycle_partition(netlist, 5, options);
  ASSERT_GT(result.refine_moves, 0);

  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  std::vector<int> labels(static_cast<std::size_t>(problem.num_gates));
  for (int i = 0; i < problem.num_gates; ++i) {
    labels[static_cast<std::size_t>(i)] =
        result.partition.plane(problem.gate_ids[static_cast<std::size_t>(i)]);
  }
  const CostModel model(problem, options.coarse.weights);
  const double fresh =
      model.evaluate_discrete(labels).total(options.coarse.weights);

  bool saw_finest = false;
  for (const obs::LevelEvent& level : report.levels()) {
    if (level.level != 0) continue;
    saw_finest = true;
    EXPECT_DOUBLE_EQ(level.refined_cost, fresh);
  }
  EXPECT_TRUE(saw_finest);
  EXPECT_DOUBLE_EQ(result.discrete_total, fresh);

  // Unobserved, no level is scored; the one evaluation of the finest
  // labels must still be the fresh cost.
  options.observer = nullptr;
  const VcycleResult plain = vcycle_partition(netlist, 5, options);
  EXPECT_EQ(plain.partition.plane_of, result.partition.plane_of);
  EXPECT_DOUBLE_EQ(plain.discrete_total, fresh);
}

// On the paper-suite circuits (small; the V-cycle bottoms out quickly)
// the engine must still produce a sane partition.
TEST(Vcycle, HandlesSmallCircuits) {
  const Netlist netlist = build_mapped("ksa4");  // 62 gates < coarse_target
  const VcycleResult result = vcycle_partition(netlist, 3);
  EXPECT_EQ(result.levels, 0);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    ASSERT_GE(result.partition.plane(g), 0);
    ASSERT_LT(result.partition.plane(g), 3);
  }
  // No uncoarsening level: the cost is scored on the finest problem.
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 3);
  std::vector<int> labels;
  for (const GateId gate : problem.gate_ids) {
    labels.push_back(result.partition.plane(gate));
  }
  EXPECT_DOUBLE_EQ(result.discrete_total, CostModel(problem, CostWeights{})
                                              .evaluate_discrete(labels)
                                              .total(CostWeights{}));
}

}  // namespace
}  // namespace sfqpart
