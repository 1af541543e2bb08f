#include "core/move_eval.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/coarsen.h"
#include "core/problem_view.h"
#include "gen/scaled.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

PartitionProblem random_problem(int num_gates, int num_planes, std::uint64_t seed) {
  PartitionProblem problem;
  problem.num_gates = num_gates;
  problem.num_planes = num_planes;
  Rng rng(seed);
  for (int i = 0; i < num_gates; ++i) {
    problem.gate_ids.push_back(i);
    problem.bias.push_back(rng.uniform(0.3, 1.5));
    problem.area.push_back(rng.uniform(1500.0, 7000.0));
  }
  for (int e = 0; e < num_gates * 2; ++e) {
    const int a = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(num_gates)));
    int b = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(num_gates)));
    if (a == b) b = (b + 1) % num_gates;
    problem.edges.emplace_back(a, b);
  }
  return problem;
}

std::vector<int> random_labels(int num_gates, int num_planes, Rng& rng) {
  std::vector<int> labels;
  for (int i = 0; i < num_gates; ++i) {
    labels.push_back(static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(num_planes))));
  }
  return labels;
}

// The incremental delta must equal the exact cost difference of the move.
class MoveDeltaExact : public ::testing::TestWithParam<int> {};

TEST_P(MoveDeltaExact, MatchesFullRecompute) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int num_gates = 30;
  const int num_planes = 2 + GetParam() % 4;
  const PartitionProblem problem = random_problem(num_gates, num_planes, seed);
  const CostModel model(problem, CostWeights{});
  Rng rng(seed + 100);
  MoveEvaluator eval(model, random_labels(num_gates, num_planes, rng));

  for (int trial = 0; trial < 40; ++trial) {
    const int gate = static_cast<int>(rng.uniform_index(num_gates));
    const int target = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(num_planes)));
    const double before = eval.current_cost();
    const double predicted = eval.delta(gate, target);
    eval.apply(gate, target);
    const double after = eval.current_cost();
    ASSERT_NEAR(after - before, predicted, 1e-9)
        << "gate " << gate << " -> " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveDeltaExact, ::testing::Range(1, 6));

// The CSR-flattened adjacency must replay the reference vector-of-vectors
// neighbor order exactly: delta() sums the F1 contributions of a gate's
// neighbors in a fixed order, so any reordering would perturb the bits.
// An F1-only model isolates the adjacency-dependent part (the F2/F3 terms
// are zero-weighted and leave the accumulated sum untouched), so the
// comparison is exact equality, not a tolerance.
TEST(MoveEvaluator, CsrDeltaMatchesReferenceAdjacencyBitExact) {
  const int num_gates = 40;
  const int num_planes = 5;
  const PartitionProblem problem = random_problem(num_gates, num_planes, 17);
  CostWeights f1_only;
  f1_only.c2 = 0.0;
  f1_only.c3 = 0.0;
  const CostModel model(problem, f1_only);
  Rng rng(18);
  const std::vector<int> labels = random_labels(num_gates, num_planes, rng);
  MoveEvaluator eval(model, labels);

  // Reference adjacency built the way the evaluator used to store it:
  // per-gate push_back over the edge list in ascending edge order.
  std::vector<std::vector<int>> reference(
      static_cast<std::size_t>(num_gates));
  for (const auto& [a, b] : problem.edges) {
    reference[static_cast<std::size_t>(a)].push_back(b);
    reference[static_cast<std::size_t>(b)].push_back(a);
  }
  const double f1_coef = model.weights().c1 / model.n1();
  const int p = model.weights().distance_exponent;
  const auto ipow = [](double base, int exponent) {
    double result = 1.0;
    for (int i = 0; i < exponent; ++i) result *= base;
    return result;
  };

  for (int gate = 0; gate < num_gates; ++gate) {
    for (int target = 0; target < num_planes; ++target) {
      const int source = labels[static_cast<std::size_t>(gate)];
      if (source == target) continue;
      double f1_reference = 0.0;
      for (const int j : reference[static_cast<std::size_t>(gate)]) {
        const int lj = labels[static_cast<std::size_t>(j)];
        f1_reference +=
            f1_coef * (ipow(std::abs(target - lj), p) -
                       ipow(std::abs(source - lj), p));
      }
      EXPECT_EQ(eval.delta(gate, target), f1_reference)
          << "gate " << gate << " -> " << target;
    }
  }
}

TEST(MoveEvaluator, NoOpMoveIsFree) {
  const PartitionProblem problem = random_problem(10, 3, 2);
  const CostModel model(problem, CostWeights{});
  Rng rng(3);
  MoveEvaluator eval(model, random_labels(10, 3, rng));
  const int gate = 4;
  EXPECT_DOUBLE_EQ(eval.delta(gate, eval.label(gate)), 0.0);
  const double before = eval.current_cost();
  eval.apply(gate, eval.label(gate));
  EXPECT_DOUBLE_EQ(eval.current_cost(), before);
}

TEST(MoveEvaluator, ApplyUpdatesLabels) {
  const PartitionProblem problem = random_problem(10, 4, 5);
  const CostModel model(problem, CostWeights{});
  MoveEvaluator eval(model, std::vector<int>(10, 0));
  eval.apply(7, 3);
  EXPECT_EQ(eval.label(7), 3);
  EXPECT_EQ(eval.labels()[7], 3);
  EXPECT_EQ(eval.label(6), 0);
}

TEST(MoveEvaluator, DeltaRespectsDistanceExponent) {
  PartitionProblem problem;
  problem.num_gates = 2;
  problem.num_planes = 4;
  problem.bias = {1.0, 1.0};
  problem.area = {1.0, 1.0};
  problem.gate_ids = {0, 1};
  problem.edges = {{0, 1}};
  CostWeights f1_only;
  f1_only.c2 = 0.0;
  f1_only.c3 = 0.0;
  const CostModel model(problem, f1_only);
  MoveEvaluator eval(model, {0, 0});
  // Moving gate 1 to plane 3: distance 0 -> 3, cost (3/3)^4 / 1 = 1.
  EXPECT_NEAR(eval.delta(1, 3), 1.0, 1e-12);
  EXPECT_NEAR(eval.delta(1, 1), 1.0 / 81.0, 1e-12);
}

// The split evaluation the banded refiner's gain cache relies on: one
// neighbor walk's F1 partials plus delta_from_f1()'s F2/F3 terms must
// reproduce delta() bit for bit, for every gate and in-band target. Run
// on a netlist problem (unit weights) and a weighted coarse level, after
// a few moves so the plane totals are not the initial ones.
struct SplitCase {
  int num_planes;
  int band;  // 0 = K - 1
  bool coarse;
};

std::string split_case_name(const SplitCase& c) {
  return "K" + std::to_string(c.num_planes) + "_band" +
         (c.band == 0 ? std::string("Kminus1") : std::to_string(c.band)) +
         (c.coarse ? "_coarse" : "_netlist");
}

void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << split_case_name(c);
}

class MoveEvalSplit : public ::testing::TestWithParam<SplitCase> {};

TEST_P(MoveEvalSplit, F1PartialsPlusPlaneTermsEqualDeltaBitwise) {
  const SplitCase& c = GetParam();
  const int k = c.num_planes;
  const int band = c.band == 0 ? k - 1 : c.band;
  ScaledParams params;
  params.num_gates = 3000;
  params.seed = 9;
  const PartitionProblem netlist_problem =
      PartitionProblem::from_netlist(build_scaled(params), k);
  const ProblemView netlist_view(netlist_problem);
  const CoarseLevel coarse =
      coarsen_once(netlist_view);
  const PartitionProblem& problem = c.coarse ? coarse.problem : netlist_problem;
  if (c.coarse) {
    ASSERT_FALSE(problem.edge_weights.empty());
    ASSERT_GT(*std::max_element(problem.edge_weights.begin(),
                                problem.edge_weights.end()),
              1);
  }
  const CostModel model(problem, CostWeights{});
  Rng rng(static_cast<std::uint64_t>(31 * k + band));
  MoveEvaluator eval(model, random_labels(problem.num_gates, k, rng));
  for (int move = 0; move < 50; ++move) {
    eval.apply(static_cast<int>(rng.uniform_index(
                   static_cast<std::uint64_t>(problem.num_gates))),
               static_cast<int>(rng.uniform_index(
                   static_cast<std::uint64_t>(k))));
  }

  std::vector<double> f1(static_cast<std::size_t>(k));
  long long checked = 0;
  for (int gate = 0; gate < problem.num_gates; ++gate) {
    const int source = eval.label(gate);
    const TargetBand targets = target_band(source, band, k);
    eval.f1_deltas(gate, band, f1.data());
    int j = 0;
    for (int target = targets.first; target <= targets.last; ++target) {
      if (target == source) continue;
      ASSERT_EQ(targets.slot(source, target), j);
      const double split =
          eval.delta_from_f1(gate, target, f1[static_cast<std::size_t>(j++)]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(split),
                std::bit_cast<std::uint64_t>(eval.delta(gate, target)))
          << "gate " << gate << " -> " << target;
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<long long>(problem.num_gates));
}

INSTANTIATE_TEST_SUITE_P(
    Bands, MoveEvalSplit,
    ::testing::Values(SplitCase{2, 1, false}, SplitCase{2, 1, true},
                      SplitCase{5, 1, false}, SplitCase{5, 2, false},
                      SplitCase{5, 0, false}, SplitCase{5, 1, true},
                      SplitCase{5, 2, true}, SplitCase{5, 0, true},
                      SplitCase{8, 1, false}, SplitCase{8, 2, false},
                      SplitCase{8, 0, false}, SplitCase{8, 1, true},
                      SplitCase{8, 2, true}, SplitCase{8, 0, true}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
      return split_case_name(info.param);
    });

// band <= 0 lifts the limit: every other plane is a target.
TEST(MoveEvaluator, TargetBandClipsToThePlaneRange) {
  EXPECT_EQ(target_band(0, 1, 5).first, 0);
  EXPECT_EQ(target_band(0, 1, 5).last, 1);
  EXPECT_EQ(target_band(0, 1, 5).count(), 1);
  EXPECT_EQ(target_band(2, 1, 5).count(), 2);
  EXPECT_EQ(target_band(4, 2, 5).first, 2);
  EXPECT_EQ(target_band(4, 2, 5).count(), 2);
  EXPECT_EQ(target_band(3, 0, 5).first, 0);
  EXPECT_EQ(target_band(3, 0, 5).last, 4);
  EXPECT_EQ(target_band(3, 0, 5).count(), 4);
  EXPECT_EQ(target_band(3, 0, 5).slot(3, 4), 3);
  EXPECT_EQ(target_band(3, 0, 5).slot(3, 2), 2);
}

}  // namespace
}  // namespace sfqpart
