// The kernel-tier dispatch and bit-identity suite (DESIGN.md section 15).
//
// Default-mode contract: every vector tier produces BIT-identical results
// to the scalar tier — per kernel (the dispatch probe's synthetic shapes,
// covering vector-block tails, partial plane groups and CSR tails) and
// end-to-end (whole gradient-descent solves compared label-for-label and
// bit-for-bit on every cost term). fast_math is the opt-in exception and
// is bounded by an explicit relative-error tolerance instead.
#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarsen.h"
#include "core/cost_model.h"
#include "core/move_eval.h"
#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "core/solver.h"
#include "core/vcycle.h"
#include "gen/scaled.h"
#include "gen/suite.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

using simd::Tier;

// Restores the ambient dispatch decision after each test, whatever a
// test did with force/reset/env.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("SFQPART_KERNELS");
    simd::reset_dispatch_for_testing();
  }
};

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (simd::tier_available(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (simd::tier_available(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

TEST_F(SimdDispatchTest, InfoIsConsistent) {
  const simd::DispatchInfo& info = simd::dispatch_info();
  EXPECT_TRUE(simd::tier_available(info.detected));
  EXPECT_LE(static_cast<int>(info.requested), static_cast<int>(info.detected));
  EXPECT_LE(static_cast<int>(info.active), static_cast<int>(info.requested));
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(info.active));
}

// The per-kernel identity suite: the probe runs every kernel of the tier
// (aggregate with and without F4, f1_term, edge_grad, fused_gate,
// step_aggregate, step_clamp, max_abs) over shapes with vector-block
// tails and partial plane groups and compares every output bit for bit
// against the scalar tier.
TEST_F(SimdDispatchTest, AllAvailableTiersPassBitIdentityProbe) {
  for (const Tier tier : available_tiers()) {
    EXPECT_TRUE(simd::probe_tier(tier)) << simd::tier_name(tier);
  }
}

TEST_F(SimdDispatchTest, EnvOverrideClampsDown) {
  setenv("SFQPART_KERNELS", "scalar", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_TRUE(simd::dispatch_info().env_override);
  EXPECT_EQ(simd::dispatch_info().active, Tier::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");

  // An up-request can never enable an ISA beyond what was detected.
  setenv("SFQPART_KERNELS", "avx512", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_LE(static_cast<int>(simd::dispatch_info().requested),
            static_cast<int>(simd::dispatch_info().detected));

  // Unknown values are ignored (no override, full-width detection).
  setenv("SFQPART_KERNELS", "sse9", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_FALSE(simd::dispatch_info().env_override);
  EXPECT_EQ(simd::dispatch_info().requested, simd::dispatch_info().detected);
}

TEST_F(SimdDispatchTest, ForceTierClampsToAvailable) {
  const Tier got = simd::force_tier_for_testing(Tier::kAvx512);
  EXPECT_TRUE(simd::tier_available(got));
  EXPECT_TRUE(simd::dispatch_info().forced);
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(got));
  simd::reset_dispatch_for_testing();
  EXPECT_FALSE(simd::dispatch_info().forced);
}

LabelResult solve_small(const PartitionProblem& problem) {
  SolverConfig config;
  config.num_planes = problem.num_planes;
  config.restarts = 3;
  config.seed = 7;
  const auto solved = Solver(std::move(config)).solve(problem);
  EXPECT_TRUE(solved.is_ok()) << solved.status().message();
  return *solved;
}

// End-to-end: a whole multi-restart descent (aggregate, edge pass, fused
// fill, step_and_aggregate, max-abs, hardening) per tier, compared
// bitwise. This is the pin that keeps golden labels tier-independent.
TEST_F(SimdDispatchTest, EndToEndDescentBitIdenticalAcrossTiers) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);

  simd::force_tier_for_testing(Tier::kScalar);
  const LabelResult reference = solve_small(problem);

  for (const Tier tier : available_tiers()) {
    if (tier == Tier::kScalar) continue;
    simd::force_tier_for_testing(tier);
    const LabelResult got = solve_small(problem);
    EXPECT_EQ(got.labels, reference.labels) << simd::tier_name(tier);
    EXPECT_EQ(got.soft_terms.f1, reference.soft_terms.f1);
    EXPECT_EQ(got.soft_terms.f2, reference.soft_terms.f2);
    EXPECT_EQ(got.soft_terms.f3, reference.soft_terms.f3);
    EXPECT_EQ(got.soft_terms.f4, reference.soft_terms.f4);
    EXPECT_EQ(got.discrete_total, reference.discrete_total);
    EXPECT_EQ(got.iterations, reference.iterations);
    EXPECT_EQ(got.winning_restart, reference.winning_restart);
  }
}

// The fused evaluate/gradient entry points agree with each other and the
// optimizer's step fusion is bit-identical to the unfused step + eval on
// every tier (including scalar — the fusion itself must not drift).
TEST_F(SimdDispatchTest, StepFusionMatchesUnfusedStep) {
  const Netlist netlist = build_mapped("id4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(11);
    const Matrix w0 = random_soft_assignment(problem.num_gates,
                                             problem.num_planes, rng);

    // Unfused: evaluate gradient, clamp-step by hand, evaluate again.
    CostModel::Workspace ws_a;
    Matrix w_a = w0;
    Matrix grad_a;
    model.evaluate_with_gradient(w_a, grad_a, ws_a);
    const double scale = 0.19;
    for (std::size_t i = 0; i < w_a.rows(); ++i) {
      auto row = w_a.row(i);
      const auto grow = grad_a.row(i);
      for (std::size_t kk = 0; kk < w_a.cols(); ++kk) {
        row[kk] = std::clamp(row[kk] - scale * grow[kk], 0.0, 1.0);
      }
    }
    Matrix grad_unfused;
    const CostTerms unfused =
        model.evaluate_with_gradient(w_a, grad_unfused, ws_a);

    // Fused: same W0, step_and_aggregate + aggregated gradient.
    CostModel::Workspace ws_b;
    Matrix w_b = w0;
    Matrix grad_b;
    model.evaluate_with_gradient(w_b, grad_b, ws_b);
    model.step_and_aggregate(w_b, grad_b, scale, ws_b);
    Matrix grad_fused;
    const CostTerms fused =
        model.evaluate_with_gradient_aggregated(w_b, grad_fused, ws_b);

    EXPECT_EQ(w_a, w_b) << simd::tier_name(tier);
    EXPECT_EQ(unfused.f1, fused.f1);
    EXPECT_EQ(unfused.f2, fused.f2);
    EXPECT_EQ(unfused.f3, fused.f3);
    EXPECT_EQ(unfused.f4, fused.f4);
    EXPECT_EQ(grad_unfused, grad_fused);
  }
}

// Gradient padding lanes must stay exactly zero (the optimizer's flat
// max-abs and step passes scan them).
TEST_F(SimdDispatchTest, GradientPaddingStaysZero) {
  const Netlist netlist = build_mapped("id4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(3);
    const Matrix w = random_soft_assignment(problem.num_gates,
                                            problem.num_planes, rng);
    Matrix grad;
    CostModel::Workspace ws;
    model.evaluate_with_gradient(w, grad, ws);
    const auto flat = grad.flat();
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      for (std::size_t c = grad.cols(); c < grad.stride(); ++c) {
        ASSERT_EQ(flat[r * grad.stride() + c], 0.0)
            << simd::tier_name(tier) << " row " << r << " lane " << c;
      }
    }
  }
}

// fast_math A/B: reassociated reductions must stay within an explicit
// relative-error bound of the exact kernels — and must change nothing at
// all on tiers without fast variants (scalar).
TEST_F(SimdDispatchTest, FastMathStaysWithinTolerance) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);

  CostModel exact(problem, CostWeights{});
  CostModel fast(problem, CostWeights{});
  fast.set_fast_math(true);
  EXPECT_TRUE(fast.fast_math());

  // The reassociation only changes the order of ~degree/~lane-count long
  // sums of O(1) doubles; 1e-12 relative slack is orders of magnitude
  // above the worst case while still catching any real kernel bug.
  constexpr double kRelTol = 1e-12;
  const auto rel_close = [](double a, double b) {
    const double scale = std::max({std::abs(a), std::abs(b), 1e-30});
    return std::abs(a - b) / scale <= kRelTol;
  };

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(23);
    const Matrix w = random_soft_assignment(problem.num_gates,
                                            problem.num_planes, rng);
    Matrix grad_exact, grad_fast;
    CostModel::Workspace ws_a, ws_b;
    const CostTerms te = exact.evaluate_with_gradient(w, grad_exact, ws_a);
    const CostTerms tf = fast.evaluate_with_gradient(w, grad_fast, ws_b);

    const bool has_fast_variants =
        simd::kernels().edge_grad_fast != nullptr;
    if (!has_fast_variants) {
      // No fast kernels on this tier: fast_math must be a strict no-op.
      EXPECT_EQ(te.f1, tf.f1) << simd::tier_name(tier);
      EXPECT_EQ(grad_exact, grad_fast);
      continue;
    }
    EXPECT_TRUE(rel_close(te.f1, tf.f1))
        << simd::tier_name(tier) << " f1 " << te.f1 << " vs " << tf.f1;
    EXPECT_EQ(te.f2, tf.f2);  // F2/F3 never reassociate
    EXPECT_EQ(te.f3, tf.f3);
    EXPECT_TRUE(rel_close(te.f4, tf.f4))
        << simd::tier_name(tier) << " f4 " << te.f4 << " vs " << tf.f4;
    ASSERT_EQ(grad_exact.rows(), grad_fast.rows());
    for (std::size_t i = 0; i < grad_exact.rows(); ++i) {
      const auto re = grad_exact.row(i);
      const auto rf = grad_fast.row(i);
      for (std::size_t kk = 0; kk < grad_exact.cols(); ++kk) {
        ASSERT_TRUE(rel_close(re[kk], rf[kk]))
            << simd::tier_name(tier) << " gate " << i << " plane " << kk;
      }
    }
  }
}

// evaluate() and evaluate_with_gradient() report bit-identical terms on
// every tier (the F4 fusion rides different passes in the two paths).
TEST_F(SimdDispatchTest, EvaluateAndGradientTermsAgree) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(5);
    const Matrix w = random_soft_assignment(problem.num_gates,
                                            problem.num_planes, rng);
    CostModel::Workspace ws;
    const CostTerms eval = model.evaluate(w, ws);
    Matrix grad;
    const CostTerms with_grad = model.evaluate_with_gradient(w, grad, ws);
    EXPECT_EQ(eval.f1, with_grad.f1) << simd::tier_name(tier);
    EXPECT_EQ(eval.f2, with_grad.f2);
    EXPECT_EQ(eval.f3, with_grad.f3);
    EXPECT_EQ(eval.f4, with_grad.f4);
  }
}

// A coarse level of a real circuit — parallel fine edges collapsed into
// weighted edges — and its twin with every edge of weight w repeated w
// times at unit weight. The two describe the same objective.
struct WeightedPair {
  PartitionProblem weighted;
  PartitionProblem twin;
};

WeightedPair weighted_and_twin() {
  const PartitionProblem fine =
      PartitionProblem::from_netlist(build_mapped("c1355"), 5);
  CoarsenOptions options;
  options.coarse_target = 100;
  options.max_levels = 2;
  options.order = MatchOrder::kDegreeSorted;
  const LevelStack stack = build_level_stack(fine, options);
  WeightedPair pair;
  pair.weighted = stack.coarsest(fine);
  pair.twin = pair.weighted;
  pair.twin.edges.clear();
  pair.twin.edge_weights.clear();
  for (std::size_t e = 0; e < pair.weighted.edges.size(); ++e) {
    for (int copy = 0; copy < pair.weighted.edge_weight(e); ++copy) {
      pair.twin.edges.push_back(pair.weighted.edges[e]);
    }
  }
  return pair;
}

// Normwise relative error: the largest entrywise gap against the largest
// entry, so entries that cancel to near zero do not inflate it.
double normwise_gap(const std::vector<double>& a, const std::vector<double>& b) {
  double gap = 0.0;
  double scale = 1e-300;
  for (std::size_t i = 0; i < a.size(); ++i) {
    gap = std::max(gap, std::abs(a[i] - b[i]));
    scale = std::max({scale, std::abs(a[i]), std::abs(b[i])});
  }
  return gap / scale;
}

// One weighted path everywhere: on every tier, a weighted problem's
// terms, gradient and move deltas match its multiplicity-expanded twin
// to 1e-12 relative (only the summation order of the F1 pieces differs).
TEST_F(SimdDispatchTest, WeightedProblemMatchesExpandedTwin) {
  const WeightedPair pair = weighted_and_twin();
  ASSERT_LT(pair.weighted.edges.size(), pair.twin.edges.size());
  const CostModel weighted(pair.weighted, CostWeights{});
  const CostModel twin(pair.twin, CostWeights{});
  EXPECT_EQ(weighted.n1(), twin.n1());
  constexpr double kRelTol = 1e-12;

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(31);
    const Matrix w = random_soft_assignment(pair.weighted.num_gates,
                                            pair.weighted.num_planes, rng);
    const CostTerms ew = weighted.evaluate(w);
    const CostTerms et = twin.evaluate(w);
    EXPECT_LE(std::abs(ew.f1 - et.f1), kRelTol * std::abs(et.f1))
        << simd::tier_name(tier);
    EXPECT_EQ(ew.f2, et.f2);
    EXPECT_EQ(ew.f3, et.f3);
    EXPECT_EQ(ew.f4, et.f4);

    Matrix gw, gt;
    const CostTerms tw = weighted.evaluate_with_gradient(w, gw);
    const CostTerms tt = twin.evaluate_with_gradient(w, gt);
    EXPECT_LE(std::abs(tw.f1 - tt.f1), kRelTol * std::abs(tt.f1));
    EXPECT_EQ(tw.f1, ew.f1);  // evaluate and the gradient path agree
    const auto flat_w = gw.flat();
    const auto flat_t = gt.flat();
    EXPECT_LE(normwise_gap({flat_w.begin(), flat_w.end()},
                           {flat_t.begin(), flat_t.end()}),
              kRelTol)
        << simd::tier_name(tier);

    const std::vector<int> labels = harden(w);
    const MoveEvaluator mw(weighted, labels);
    const MoveEvaluator mt(twin, labels);
    std::vector<double> dw, dt;
    for (int gate = 0; gate < pair.weighted.num_gates; ++gate) {
      for (int target = 0; target < pair.weighted.num_planes; ++target) {
        dw.push_back(mw.delta(gate, target));
        dt.push_back(mt.delta(gate, target));
      }
    }
    EXPECT_LE(normwise_gap(dw, dt), kRelTol) << simd::tier_name(tier);
  }
}

// The V-cycle's labels do not depend on the kernel tier: its coarse
// descent runs on weighted coarse graphs, so this pins the weighted edge
// kernels end to end.
TEST_F(SimdDispatchTest, VcycleLabelsBitIdenticalAcrossTiers) {
  ScaledParams params;
  params.name = "scaled20k";
  params.num_gates = 20000;
  params.seed = 3;
  const Netlist netlist = build_scaled(params);

  simd::force_tier_for_testing(Tier::kScalar);
  const VcycleResult reference = vcycle_partition(netlist, 5);
  for (const Tier tier : available_tiers()) {
    if (tier == Tier::kScalar) continue;
    simd::force_tier_for_testing(tier);
    const VcycleResult got = vcycle_partition(netlist, 5);
    EXPECT_EQ(got.partition.plane_of, reference.partition.plane_of)
        << simd::tier_name(tier);
    EXPECT_EQ(got.discrete_total, reference.discrete_total);
  }
}

}  // namespace
}  // namespace sfqpart
