// The parallel engine's determinism contract (DESIGN.md section 7): for a
// fixed seed, the Solver's output is bit-identical at every thread count,
// and identical through the EngineRegistry's gradient wrapper.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/optimizer.h"
#include "core/soft_assign.h"
#include "core/solver.h"
#include "gen/suite.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

void expect_terms_eq(const CostTerms& a, const CostTerms& b) {
  // Bit-identical, not approximately equal: the chunked reductions fix
  // the summation order independently of the thread count.
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.f2, b.f2);
  EXPECT_EQ(a.f3, b.f3);
  EXPECT_EQ(a.f4, b.f4);
}

void expect_results_eq(const LabelResult& a, const LabelResult& b) {
  EXPECT_EQ(a.labels, b.labels);
  expect_terms_eq(a.soft_terms, b.soft_terms);
  expect_terms_eq(a.discrete_terms, b.discrete_terms);
  EXPECT_EQ(a.discrete_total, b.discrete_total);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.winning_restart, b.winning_restart);
  EXPECT_EQ(a.converged, b.converged);
}

LabelResult solve_with_threads(const PartitionProblem& problem,
                               std::uint64_t seed, int threads,
                               int restarts = 4, bool refine = false) {
  SolverConfig config;
  config.num_planes = problem.num_planes;
  config.restarts = restarts;
  config.seed = seed;
  config.threads = threads;
  config.refine = refine;
  const auto solved = Solver(std::move(config)).solve(problem);
  EXPECT_TRUE(solved.is_ok()) << solved.status().message();
  return *solved;
}

TEST(ParallelDeterminism, SerialTwoAndEightThreadsAgreeAcrossSeeds) {
  for (const char* circuit : {"ksa8", "mult4"}) {
    const Netlist netlist = build_mapped(circuit);
    const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const LabelResult serial = solve_with_threads(problem, seed, 1);
      expect_results_eq(serial, solve_with_threads(problem, seed, 2));
      expect_results_eq(serial, solve_with_threads(problem, seed, 8));
    }
  }
}

TEST(ParallelDeterminism, RefinementPathAgreesAcrossThreadCounts) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 4);
  const LabelResult serial =
      solve_with_threads(problem, 5, /*threads=*/1, /*restarts=*/3, true);
  expect_results_eq(
      serial, solve_with_threads(problem, 5, /*threads=*/8, /*restarts=*/3, true));
}

// The registry's gradient engine is the Solver facade, wrapped: same
// labels, same costs, same winning restart — at any thread count.
TEST(ParallelDeterminism, RegistryGradientMatchesFacade) {
  const Netlist netlist = build_mapped("ksa8");
  SolverConfig options;
  options.seed = 11;
  options.restarts = 3;
  SolverConfig threaded = options;
  threaded.threads = 8;
  const auto facade = Solver(threaded).run(netlist);
  ASSERT_TRUE(facade.is_ok()) << facade.status().message();

  auto engine = EngineRegistry::create("gradient");
  ASSERT_TRUE(engine.is_ok()) << engine.status().message();
  EngineContext context;
  context.num_planes = options.num_planes;
  context.seed = options.seed;
  context.restarts = options.restarts;
  context.threads = 1;
  const auto run = (*engine)->run(netlist, context);
  ASSERT_TRUE(run.is_ok()) << run.status().message();

  EXPECT_EQ(run->partition.plane_of, facade->partition.plane_of);
  EXPECT_EQ(run->discrete_total, facade->discrete_total);
  EXPECT_EQ(run->counter("winning_restart"), facade->winning_restart);
  expect_terms_eq(run->discrete_terms, facade->discrete_terms);
}

// Regression for winning_restart under concurrency: every restart of a
// one-gate, two-plane problem has the exact same discrete cost (no edges,
// and both labels yield the same two |B_k - Bbar| values, so even the
// floating-point sums are identical), so the tie MUST resolve to restart 0
// no matter which restart finishes first.
TEST(ParallelDeterminism, DiscreteCostTiesBreakToLowestRestartIndex) {
  PartitionProblem problem;
  problem.num_planes = 2;
  problem.num_gates = 1;
  problem.bias = {0.1};
  problem.area = {16.0};
  problem.gate_ids = {0};

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
    const LabelResult serial = solve_with_threads(problem, seed, 1, 8);
    EXPECT_EQ(serial.winning_restart, 0);
    for (const int threads : {2, 8}) {
      // Repeat the parallel runs: with a racy selection the winner would
      // follow completion order and flap between equal-cost restarts.
      for (int repeat = 0; repeat < 5; ++repeat) {
        expect_results_eq(serial, solve_with_threads(problem, seed, threads, 8));
      }
    }
  }
}

// The chunked reductions themselves: attaching a pool to a CostModel must
// not change any term or gradient entry, even on problems big enough to
// span several reduction chunks (ksa32 has ~1.5k gates / ~1.9k edges).
TEST(ParallelDeterminism, CostModelReductionsAreSchedulingInvariant) {
  const Netlist netlist = build_mapped("ksa32");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  CostModel serial_model(problem, CostWeights{});
  CostModel pooled_model(problem, CostWeights{});
  ThreadPool pool(8);
  pooled_model.set_thread_pool(&pool);

  Rng rng(3);
  const Matrix w = random_soft_assignment(problem.num_gates, 5, rng);
  expect_terms_eq(serial_model.evaluate(w), pooled_model.evaluate(w));

  Matrix serial_grad;
  Matrix pooled_grad;
  expect_terms_eq(serial_model.evaluate_with_gradient(w, serial_grad),
                  pooled_model.evaluate_with_gradient(w, pooled_grad));
  EXPECT_EQ(serial_grad, pooled_grad);
}

// The CSR gather engine must be bit-identical to the serial-scatter
// reference — it replays the exact per-accumulator addition sequence — in
// both gradient styles and regardless of any attached pool.
TEST(ParallelDeterminism, GatherEngineMatchesScatterReferenceBitExact) {
  const Netlist netlist = build_mapped("ksa32");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  ThreadPool pool(8);
  Rng rng(9);
  const Matrix w = random_soft_assignment(problem.num_gates, 5, rng);

  for (const GradientStyle style :
       {GradientStyle::kAnalytic, GradientStyle::kPaperEq10}) {
    CostModel model(problem, CostWeights{}, style);
    model.set_thread_pool(&pool);
    Matrix gather_grad;
    Matrix scatter_grad;
    model.set_gradient_engine(GradientEngine::kCsrGather);
    const CostTerms gather = model.evaluate_with_gradient(w, gather_grad);
    model.set_gradient_engine(GradientEngine::kSerialScatter);
    const CostTerms scatter = model.evaluate_with_gradient(w, scatter_grad);
    expect_terms_eq(gather, scatter);
    EXPECT_EQ(gather_grad, scatter_grad);
  }
}

// The gradient path at 1, 2 and 8 pool threads: multi-chunk problems must
// produce the same bits at every thread count, and evaluate() must report
// the same terms as evaluate_with_gradient() (the F4 sum rides the fused
// pass but keeps the chunk-ordered combine).
TEST(ParallelDeterminism, GradientBitIdenticalAcrossThreadCounts) {
  const Netlist netlist = build_mapped("mult8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  Rng rng(21);
  const Matrix w = random_soft_assignment(problem.num_gates, 5, rng);

  CostModel serial_model(problem, CostWeights{});
  Matrix serial_grad;
  const CostTerms serial = serial_model.evaluate_with_gradient(w, serial_grad);
  expect_terms_eq(serial, serial_model.evaluate(w));

  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    CostModel model(problem, CostWeights{});
    model.set_thread_pool(&pool);
    Matrix grad;
    expect_terms_eq(serial, model.evaluate_with_gradient(w, grad));
    EXPECT_EQ(serial_grad, grad);
  }
}

// The std::max(acc, |g|) fold from 0.0 over the padded storage — the
// max|grad| pass the optimizer ran before the fill folded it in.
double reference_max_abs(const Matrix& grad) {
  double max_abs = 0.0;
  for (const double g : grad.flat()) max_abs = std::max(max_abs, std::abs(g));
  return max_abs;
}

// The whole descent loop — gradient reductions, the max|grad| the fill
// folds per chunk, and the fused step — through the fork-join executor:
// a pooled descent must reproduce the serial descent bit for bit,
// iteration count included, and the max the cost model reports must be
// the reference fold at 1, 2 and 8 threads.
TEST(ParallelDeterminism, GradientDescentBitIdenticalWithAndWithoutPool) {
  const Netlist netlist = build_mapped("mult8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  Rng rng(13);
  const Matrix w0 = random_soft_assignment(problem.num_gates, 5, rng);

  OptimizerOptions options;
  options.max_iterations = 40;

  CostModel serial_model(problem, CostWeights{});
  const OptimizerResult serial =
      run_gradient_descent(serial_model, w0, options);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    CostModel model(problem, CostWeights{});
    if (threads > 1) model.set_thread_pool(&pool);
    const OptimizerResult pooled = run_gradient_descent(model, w0, options);
    EXPECT_EQ(pooled.w, serial.w);
    expect_terms_eq(pooled.final_terms, serial.final_terms);
    EXPECT_EQ(pooled.iterations, serial.iterations);
    EXPECT_EQ(pooled.converged, serial.converged);

    for (const Matrix* w : {&w0, &pooled.w}) {
      CostModel::Workspace ws;
      Matrix grad;
      model.evaluate_with_gradient(*w, grad, ws);
      EXPECT_GT(ws.grad_max_abs(), 0.0);
      EXPECT_EQ(ws.grad_max_abs(), reference_max_abs(grad))
          << threads << " threads";
    }
  }
}

// Workspace reuse is stateless: evaluating different matrices through one
// warm workspace gives exactly the fresh-workspace bits, in any order.
TEST(ParallelDeterminism, WorkspaceReuseDoesNotLeakStateAcrossIterations) {
  const Netlist netlist = build_mapped("ksa16");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 4);
  const CostModel model(problem, CostWeights{});
  Rng rng(5);
  const Matrix w1 = random_soft_assignment(problem.num_gates, 4, rng);
  const Matrix w2 = random_soft_assignment(problem.num_gates, 4, rng);

  CostModel::Workspace reused;
  Matrix grad_reused;
  Matrix grad_fresh;
  for (const Matrix* w : {&w1, &w2, &w1}) {
    const CostTerms warm = model.evaluate_with_gradient(*w, grad_reused, reused);
    CostModel::Workspace fresh;
    const CostTerms cold = model.evaluate_with_gradient(*w, grad_fresh, fresh);
    expect_terms_eq(warm, cold);
    EXPECT_EQ(grad_reused, grad_fresh);
    expect_terms_eq(model.evaluate(*w, reused), model.evaluate(*w));
  }
}

}  // namespace
}  // namespace sfqpart
