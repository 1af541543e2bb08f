// The kernel-tier dispatch and bit-identity suite (DESIGN.md section 15).
//
// Default-mode contract: every vector tier produces BIT-identical results
// to the scalar tier — per kernel (the dispatch probe's synthetic shapes,
// covering vector-block tails, partial plane groups and CSR tails) and
// end-to-end (whole gradient-descent solves compared label-for-label and
// bit-for-bit on every cost term).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarsen.h"
#include "core/cost_model.h"
#include "core/move_eval.h"
#include "core/optimizer.h"
#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "core/solver.h"
#include "core/vcycle.h"
#include "gen/scaled.h"
#include "gen/suite.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// Also logs the dispatch decision, so a run under SFQPART_KERNELS shows
// which tier it actually exercised (a runner without the requested ISA
// falls back to a narrower one).
TEST_F(SimdDispatchTest, InfoIsConsistent) {
  const simd::DispatchInfo& info = simd::dispatch_info();
  std::printf("kernel dispatch: detected %s, requested %s, active %s%s%s\n",
              simd::tier_name(info.detected), simd::tier_name(info.requested),
              simd::tier_name(info.active),
              info.env_override ? " (SFQPART_KERNELS)" : "",
              info.probe_demoted ? " (probe demoted)" : "");
  EXPECT_TRUE(simd::tier_available(info.detected));
  EXPECT_LE(static_cast<int>(info.requested), static_cast<int>(info.detected));
  EXPECT_LE(static_cast<int>(info.active), static_cast<int>(info.requested));
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(info.active));
}

// The per-kernel identity suite: the probe runs every kernel of the tier
// (aggregate with and without F4, f1_term, edge_grad, fused_gate with its
// max|grad|, step_aggregate) over shapes with vector-block tails, partial
// plane groups, sparse and hub-dense weighted edges and every edge-block
// tail, and compares every output bit for bit against the scalar tier.
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
// fill and its max|grad|, step_and_aggregate, hardening) per tier,
// compared bitwise. This is the pin that keeps golden labels
// tier-independent.
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

// Gradient padding lanes must stay exactly zero: the fused descent step
// reads grad over the full padded stride, and a nonzero padding lane
// would step W's padding away from zero.
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

// The old optimizer pass's fold: std::max(acc, |g|) from 0.0 over the
// padded storage; std::max keeps acc when |g| is NaN.
double reference_max_abs(const Matrix& grad) {
  double max_abs = 0.0;
  for (const double g : grad.flat()) max_abs = std::max(max_abs, std::abs(g));
  return max_abs;
}

// The max|grad| the gradient fill folds equals the reference fold on
// every tier, at 1, 2 and 8 threads, through both gradient entry points
// the descent uses and through the scatter reference engine. id8 spans
// five reduction chunks, so the chunk maxima really combine.
TEST_F(SimdDispatchTest, FillReportsMaxAbsGradOnEveryTierAndThreadCount) {
  const Netlist netlist = build_mapped("id8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  ASSERT_GT(problem.num_gates, 4096);
  Rng rng(17);
  const Matrix w = random_soft_assignment(problem.num_gates,
                                          problem.num_planes, rng);

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      CostModel model(problem, CostWeights{});
      if (threads > 1) model.set_thread_pool(&pool);
      CostModel::Workspace ws;
      Matrix grad;
      model.evaluate_with_gradient(w, grad, ws);
      const double max_abs = reference_max_abs(grad);
      EXPECT_GT(max_abs, 0.0);
      EXPECT_EQ(ws.grad_max_abs(), max_abs)
          << simd::tier_name(tier) << " threads " << threads;

      Matrix stepped = w;
      model.step_and_aggregate(stepped, grad, 0.05 / max_abs, ws);
      model.evaluate_with_gradient_aggregated(stepped, grad, ws);
      EXPECT_EQ(ws.grad_max_abs(), reference_max_abs(grad))
          << simd::tier_name(tier) << " threads " << threads;

      model.set_gradient_engine(GradientEngine::kSerialScatter);
      Matrix scatter_grad;
      model.evaluate_with_gradient(w, scatter_grad, ws);
      EXPECT_EQ(ws.grad_max_abs(), max_abs)
          << simd::tier_name(tier) << " threads " << threads;
    }
  }
}

// A W with one NaN entry: the fill writes NaN into that gradient entry
// only, and the max it returns is the old pass's fold, which skips the
// NaN — on every tier, for a NaN in a vector block and in the tail. The
// NaN sits in the last plane of the gate whose row holds the max, so a
// fold that let the NaN replace its accumulator would lose that max.
TEST_F(SimdDispatchTest, FusedGateMaxSkipsNaN) {
  constexpr std::size_t kGates = 13;  // one 8-gate block + a 5-gate tail
  constexpr std::size_t kPlanes = 5;
  Matrix w(kGates, kPlanes);
  Rng rng(29);
  for (std::size_t i = 0; i < kGates; ++i) {
    for (std::size_t kk = 0; kk < kPlanes; ++kk) w(i, kk) = rng.uniform();
  }
  std::vector<double> row_mean(kGates, 0.2);
  std::vector<double> bias(kGates, 1.0);
  std::vector<double> area(kGates, 2.0);
  std::vector<double> plane_diff(2 * w.stride(), 0.0);
  for (std::size_t kk = 0; kk < kPlanes; ++kk) {
    plane_diff[kk] = 0.1 * static_cast<double>(kk) - 0.2;
    plane_diff[w.stride() + kk] = 0.3 - 0.1 * static_cast<double>(kk);
  }
  // One slot per gate, so dF1/dl_i is slot i.
  std::vector<double> slot_grad(kGates);
  std::vector<std::uint32_t> offsets(kGates + 1);
  for (std::size_t i = 0; i < kGates; ++i) {
    slot_grad[i] = 0.5 - 0.08 * static_cast<double>(i);
    offsets[i + 1] = static_cast<std::uint32_t>(i + 1);
  }

  for (const std::size_t nan_gate : {std::size_t{3}, std::size_t{12}}) {
    Matrix w_nan = w;
    w_nan(nan_gate, kPlanes - 1) = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> slots = slot_grad;
    slots[nan_gate] = 3.0;  // this gate's row holds the max
    double scalar_max = -1.0;
    for (const Tier tier : available_tiers()) {
      Matrix grad(kGates, kPlanes);
      const simd::FusedGateArgs args{w_nan.flat().data(),
                                     grad.flat().data(),
                                     w_nan.stride(),
                                     kPlanes,
                                     row_mean.data(),
                                     bias.data(),
                                     area.data(),
                                     plane_diff.data(),
                                     plane_diff.data() + w_nan.stride(),
                                     slots.data(),
                                     offsets.data(),
                                     0.9,
                                     0.07,
                                     0.05,
                                     0.8,
                                     true};
      double f4 = 0.0;
      const double max_abs =
          simd::tier_kernels(tier)->fused_gate(args, 0, kGates, &f4);
      EXPECT_TRUE(std::isnan(grad(nan_gate, kPlanes - 1)))
          << simd::tier_name(tier);
      EXPECT_EQ(max_abs, std::abs(grad(nan_gate, kPlanes - 2)))
          << simd::tier_name(tier) << " NaN at gate " << nan_gate;
      EXPECT_EQ(max_abs, reference_max_abs(grad))
          << simd::tier_name(tier) << " NaN at gate " << nan_gate;
      if (tier == Tier::kScalar) scalar_max = max_abs;
      EXPECT_EQ(max_abs, scalar_max) << simd::tier_name(tier);
    }
  }
}

// With c1..c4 = 0 every gradient entry is zero: the descent sees a
// stationary point and stops at iteration 0 with converged = true, on
// every tier.
TEST_F(SimdDispatchTest, ZeroGradientStopsAtStationaryPoint) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  CostWeights zero;
  zero.c1 = 0.0;
  zero.c2 = 0.0;
  zero.c3 = 0.0;
  zero.c4 = 0.0;
  const CostModel model(problem, zero);

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(41);
    const Matrix w0 = random_soft_assignment(problem.num_gates,
                                             problem.num_planes, rng);
    CostModel::Workspace ws;
    Matrix grad;
    model.evaluate_with_gradient(w0, grad, ws);
    EXPECT_EQ(ws.grad_max_abs(), 0.0) << simd::tier_name(tier);

    const OptimizerResult result = run_gradient_descent(model, w0);
    EXPECT_EQ(result.iterations, 0) << simd::tier_name(tier);
    EXPECT_TRUE(result.converged) << simd::tier_name(tier);
    EXPECT_EQ(result.w, w0) << simd::tier_name(tier);
  }
}

}  // namespace
}  // namespace sfqpart
