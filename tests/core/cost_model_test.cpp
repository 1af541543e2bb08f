// Cost model checks, including finite-difference validation of the
// analytic gradients (DESIGN.md section 1 documents why the paper's
// printed eq. 10 is kept as a separate style).
#include "core/cost_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarsen.h"
#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "gen/suite.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

PartitionProblem tiny_problem(int num_gates, int num_planes, std::uint64_t seed,
                              int num_edges) {
  PartitionProblem problem;
  problem.num_gates = num_gates;
  problem.num_planes = num_planes;
  Rng rng(seed);
  for (int i = 0; i < num_gates; ++i) {
    problem.gate_ids.push_back(i);
    problem.bias.push_back(rng.uniform(0.5, 1.5));
    problem.area.push_back(rng.uniform(2000.0, 7000.0));
  }
  for (int e = 0; e < num_edges; ++e) {
    const int a = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(num_gates)));
    int b = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(num_gates)));
    if (b == a) b = (b + 1) % num_gates;
    problem.edges.emplace_back(a, b);
  }
  return problem;
}

TEST(CostModel, F1HandComputed) {
  // Two gates, one edge, K=3. One-hot planes 0 and 2 -> distance 2.
  PartitionProblem problem;
  problem.num_gates = 2;
  problem.num_planes = 3;
  problem.bias = {1.0, 1.0};
  problem.area = {1.0, 1.0};
  problem.gate_ids = {0, 1};
  problem.edges = {{0, 1}};
  const CostModel model(problem, CostWeights{});
  const CostTerms terms = model.evaluate_discrete({0, 2});
  // N1 = |E| (K-1)^4 = 16; |l0-l1|^4 = 16 -> F1 = 1 (the worst case).
  EXPECT_NEAR(terms.f1, 1.0, 1e-12);
  const CostTerms near_terms = model.evaluate_discrete({0, 1});
  EXPECT_NEAR(near_terms.f1, 1.0 / 16.0, 1e-12);
  const CostTerms same = model.evaluate_discrete({1, 1});
  EXPECT_NEAR(same.f1, 0.0, 1e-12);
}

TEST(CostModel, WeightedF1HandComputed) {
  // Three gates, K=3: edge 0-1 of weight 3, edge 1-2 of weight 1.
  PartitionProblem problem;
  problem.num_gates = 3;
  problem.num_planes = 3;
  problem.bias = {1.0, 1.0, 1.0};
  problem.area = {1.0, 1.0, 1.0};
  problem.gate_ids = {0, 1, 2};
  problem.edges = {{0, 1}, {1, 2}};
  problem.edge_weights = {3, 1};
  const CostModel model(problem, CostWeights{});
  // N1 = (3 + 1) (K-1)^4 = 64.
  EXPECT_EQ(model.n1(), 64.0);
  // Only the weight-3 edge spans distance 2: F1 = 3 * 16 / 64.
  EXPECT_NEAR(model.evaluate_discrete({0, 2, 2}).f1, 0.75, 1e-12);
  // Only the weight-1 edge spans distance 2: F1 = 16 / 64.
  EXPECT_NEAR(model.evaluate_discrete({0, 0, 2}).f1, 0.25, 1e-12);
}

TEST(CostModel, F2VarianceHandComputed) {
  // Three unit-bias gates on K=2 planes, split 2/1.
  PartitionProblem problem;
  problem.num_gates = 3;
  problem.num_planes = 2;
  problem.bias = {1.0, 1.0, 1.0};
  problem.area = {1.0, 1.0, 1.0};
  problem.gate_ids = {0, 1, 2};
  const CostModel model(problem, CostWeights{});
  const CostTerms terms = model.evaluate_discrete({0, 0, 1});
  // Bbar = 1.5, deviations +-0.5 -> sum 0.5; /K=0.25.
  // N2 = (K-1)*(3/2)^2 = 2.25 -> F2 = 0.25/2.25.
  EXPECT_NEAR(terms.f2, 0.25 / 2.25, 1e-12);
  EXPECT_NEAR(terms.f3, 0.25 / 2.25, 1e-12);  // same weights for area
}

TEST(CostModel, PerfectBalanceZeroF2F3) {
  PartitionProblem problem = tiny_problem(4, 2, 3, 0);
  problem.bias = {1.0, 1.0, 1.0, 1.0};
  problem.area = {2.0, 2.0, 2.0, 2.0};
  const CostModel model(problem, CostWeights{});
  const CostTerms terms = model.evaluate_discrete({0, 1, 0, 1});
  EXPECT_NEAR(terms.f2, 0.0, 1e-12);
  EXPECT_NEAR(terms.f3, 0.0, 1e-12);
}

TEST(CostModel, DiscreteF4IsTheOneHotConstant) {
  const PartitionProblem problem = tiny_problem(10, 4, 5, 12);
  const CostModel model(problem, CostWeights{});
  const CostTerms terms = model.evaluate_discrete({0, 1, 2, 3, 0, 1, 2, 3, 0, 1});
  // F4(one-hot) = -G (K-1)/K^2 / N4 = -1/(K^2 (K-1)).
  const double expected = -1.0 / (16.0 * 3.0);
  EXPECT_NEAR(terms.f4, expected, 1e-12);
}

// evaluate_discrete scores labels without the one-hot matrix; its terms
// must be the dense evaluation's bit for bit, on every kernel tier, for
// unit-weight and weighted problems, any K and any exponent.
TEST(CostModel, EvaluateDiscreteMatchesOneHotEvaluate) {
  std::vector<std::pair<std::string, PartitionProblem>> problems;
  problems.emplace_back("tiny", tiny_problem(20, 5, 7, 30));
  for (const SuiteEntry& entry : benchmark_suite()) {
    problems.emplace_back(
        entry.name, PartitionProblem::from_netlist(build_mapped(entry), 5));
  }
  // A weighted coarse level of the largest circuit.
  const PartitionProblem& largest = problems.back().second;
  problems.emplace_back(
      "coarse", coarsen_once(ProblemView(largest))
                    .problem);
  ASSERT_FALSE(problems.back().second.edge_weights.empty());

  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  int cases = 0;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (!simd::tier_available(tier)) continue;
    simd::force_tier_for_testing(tier);
    for (auto& [name, problem] : problems) {
      for (const int k : {2, 3, 5, 8}) {
        problem.num_planes = k;
        Rng rng(static_cast<std::uint64_t>(problem.num_gates * 8 + k));
        std::vector<int> labels(static_cast<std::size_t>(problem.num_gates));
        for (int& label : labels) {
          label = static_cast<int>(
              rng.uniform_index(static_cast<std::uint64_t>(k)));
        }
        for (int exponent = 1; exponent <= 4; ++exponent) {
          CostWeights weights;
          weights.distance_exponent = exponent;
          const CostModel model(problem, weights);
          const CostTerms a = model.evaluate_discrete(labels);
          const CostTerms b = model.evaluate(one_hot(labels, k));
          const std::string where = name + " K=" + std::to_string(k) +
                                    " p=" + std::to_string(exponent) +
                                    " tier=" + simd::tier_name(tier);
          EXPECT_EQ(bits(a.f1), bits(b.f1)) << where;
          EXPECT_EQ(bits(a.f2), bits(b.f2)) << where;
          EXPECT_EQ(bits(a.f3), bits(b.f3)) << where;
          EXPECT_EQ(bits(a.f4), bits(b.f4)) << where;
          ++cases;
        }
      }
    }
  }
  simd::reset_dispatch_for_testing();
  EXPECT_GE(cases, 15 * 4 * 4);
}

// Central-difference validation of the analytic gradient of the weighted
// total, over random soft assignments.
class GradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradientCheck, AnalyticMatchesFiniteDifference) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int num_gates = 8;
  const int num_planes = 2 + GetParam() % 4;
  PartitionProblem problem = tiny_problem(num_gates, num_planes, seed, 14);
  CostWeights weights;
  weights.c1 = 0.8;
  weights.c2 = 0.6;
  weights.c3 = 0.4;
  weights.c4 = 1.2;
  const CostModel model(problem, weights, GradientStyle::kAnalytic);

  Rng rng(seed * 13 + 1);
  Matrix w = random_soft_assignment(num_gates, num_planes, rng);
  // Move off row-sum-1 so all F4 behaviour is exercised.
  w(0, 0) = std::min(1.0, w(0, 0) + 0.2);

  Matrix grad;
  model.evaluate_with_gradient(w, grad);

  const double h = 1e-6;
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t k = 0; k < w.cols(); ++k) {
      Matrix wp = w;
      Matrix wm = w;
      wp(i, k) += h;
      wm(i, k) -= h;
      const double fp = model.evaluate(wp).total(weights);
      const double fm = model.evaluate(wm).total(weights);
      const double numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(grad(i, k), numeric, 1e-5 + 1e-3 * std::abs(numeric))
          << "entry (" << i << "," << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheck, ::testing::Range(1, 7));

TEST(CostModel, PaperGradientStyleDiffersOnF4) {
  const PartitionProblem problem = tiny_problem(6, 3, 11, 8);
  CostWeights f4_only;
  f4_only.c1 = 0.0;
  f4_only.c2 = 0.0;
  f4_only.c3 = 0.0;
  f4_only.c4 = 1.0;
  const CostModel analytic(problem, f4_only, GradientStyle::kAnalytic);
  const CostModel paper(problem, f4_only, GradientStyle::kPaperEq10);
  Rng rng(3);
  const Matrix w = random_soft_assignment(6, 3, rng);
  Matrix ga;
  Matrix gp;
  analytic.evaluate_with_gradient(w, ga);
  paper.evaluate_with_gradient(w, gp);
  EXPECT_NE(ga, gp);  // eq. 10 as printed is not the exact derivative
}

TEST(CostModel, GradientStylesAgreeOnF2F3) {
  const PartitionProblem problem = tiny_problem(6, 3, 11, 8);
  CostWeights balance_only;
  balance_only.c1 = 0.0;
  balance_only.c2 = 1.0;
  balance_only.c3 = 1.0;
  balance_only.c4 = 0.0;
  const CostModel analytic(problem, balance_only, GradientStyle::kAnalytic);
  const CostModel paper(problem, balance_only, GradientStyle::kPaperEq10);
  Rng rng(4);
  const Matrix w = random_soft_assignment(6, 3, rng);
  Matrix ga;
  Matrix gp;
  analytic.evaluate_with_gradient(w, ga);
  paper.evaluate_with_gradient(w, gp);
  EXPECT_EQ(ga, gp);
}

TEST(CostModel, DistanceExponentAblation) {
  PartitionProblem problem;
  problem.num_gates = 2;
  problem.num_planes = 4;
  problem.bias = {1.0, 1.0};
  problem.area = {1.0, 1.0};
  problem.gate_ids = {0, 1};
  problem.edges = {{0, 1}};
  CostWeights quartic;  // default exponent 4
  CostWeights quadratic;
  quadratic.distance_exponent = 2;
  const CostModel model4(problem, quartic);
  const CostModel model2(problem, quadratic);
  // Distance 2 of max 3: relative cost is (2/3)^4 vs (2/3)^2.
  EXPECT_NEAR(model4.evaluate_discrete({0, 2}).f1, std::pow(2.0 / 3.0, 4), 1e-12);
  EXPECT_NEAR(model2.evaluate_discrete({0, 2}).f1, std::pow(2.0 / 3.0, 2), 1e-12);
}

// The workspace overloads are pure plumbing: routing scratch through a
// caller-owned Workspace must not change a single bit relative to the
// transient-scratch overloads, and the terms reported with a gradient
// must be the terms reported without one.
TEST(CostModel, WorkspaceOverloadsMatchTransientOverloads) {
  const PartitionProblem problem = tiny_problem(24, 4, 17, 40);
  const CostModel model(problem, CostWeights{});
  Rng rng(8);
  const Matrix w = random_soft_assignment(24, 4, rng);

  CostModel::Workspace ws;
  const CostTerms plain = model.evaluate(w);
  const CostTerms via_ws = model.evaluate(w, ws);
  EXPECT_EQ(plain.f1, via_ws.f1);
  EXPECT_EQ(plain.f2, via_ws.f2);
  EXPECT_EQ(plain.f3, via_ws.f3);
  EXPECT_EQ(plain.f4, via_ws.f4);

  Matrix grad_plain;
  Matrix grad_ws;
  const CostTerms with_grad = model.evaluate_with_gradient(w, grad_plain);
  const CostTerms with_grad_ws = model.evaluate_with_gradient(w, grad_ws, ws);
  EXPECT_EQ(grad_plain, grad_ws);
  EXPECT_EQ(with_grad.f1, with_grad_ws.f1);
  EXPECT_EQ(with_grad.f4, with_grad_ws.f4);
  // evaluate() and evaluate_with_gradient() must agree exactly on the
  // terms even though the fused pass computes F4 alongside the gradient.
  EXPECT_EQ(plain.f1, with_grad.f1);
  EXPECT_EQ(plain.f2, with_grad.f2);
  EXPECT_EQ(plain.f3, with_grad.f3);
  EXPECT_EQ(plain.f4, with_grad.f4);
}

TEST(CostModel, GatherAndScatterEnginesAgreeOnGradients) {
  const PartitionProblem problem = tiny_problem(30, 5, 23, 55);
  CostModel model(problem, CostWeights{});
  Rng rng(12);
  const Matrix w = random_soft_assignment(30, 5, rng);

  Matrix gather;
  model.set_gradient_engine(GradientEngine::kCsrGather);
  const CostTerms gather_terms = model.evaluate_with_gradient(w, gather);
  Matrix scatter;
  model.set_gradient_engine(GradientEngine::kSerialScatter);
  const CostTerms scatter_terms = model.evaluate_with_gradient(w, scatter);
  EXPECT_EQ(gather, scatter);
  EXPECT_EQ(gather_terms.f1, scatter_terms.f1);
  EXPECT_EQ(gather_terms.f4, scatter_terms.f4);
}

// The scatter reference applies the edge weight the way the gather's
// edge kernel does, so the two engines stay bit-identical on weighted
// problems too.
TEST(CostModel, GatherAndScatterEnginesAgreeOnWeightedProblems) {
  PartitionProblem problem = tiny_problem(30, 5, 29, 55);
  for (std::size_t e = 0; e < problem.edges.size(); ++e) {
    problem.edge_weights.push_back(static_cast<int>(1 + e % 4));
  }
  CostModel model(problem, CostWeights{});
  Rng rng(13);
  const Matrix w = random_soft_assignment(30, 5, rng);

  Matrix gather;
  model.set_gradient_engine(GradientEngine::kCsrGather);
  const CostTerms gather_terms = model.evaluate_with_gradient(w, gather);
  Matrix scatter;
  model.set_gradient_engine(GradientEngine::kSerialScatter);
  const CostTerms scatter_terms = model.evaluate_with_gradient(w, scatter);
  EXPECT_EQ(gather, scatter);
  EXPECT_EQ(gather_terms.f1, scatter_terms.f1);
  EXPECT_EQ(gather_terms.f4, scatter_terms.f4);
}

TEST(CostModel, DegenerateProblemsStayFinite) {
  PartitionProblem problem;  // no gates, no edges
  problem.num_planes = 3;
  const CostModel model(problem, CostWeights{});
  const CostTerms terms = model.evaluate(Matrix(0, 3));
  EXPECT_TRUE(std::isfinite(terms.total(CostWeights{})));
}

}  // namespace
}  // namespace sfqpart
