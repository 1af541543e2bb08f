// Solver — the library's single partitioning entry point.
//
// One SolverConfig aggregates every knob of the gradient-descent flow
// (netlist + K -> PartitionProblem -> random soft init -> gradient descent
// (Algorithm 1) -> argmax hardening (-> optional greedy refinement) ->
// Partition), one StatusOr-returning run() replaces asserts at the API
// boundary, and the independent random restarts of the search execute on a
// thread pool. The pre-facade option/result structs that used to live in
// core/partitioner.h were removed with
// the DESIGN.md section 8.4 deprecation; SolverConfig / SolverResult /
// LabelResult below are their only successors, and the EngineRegistry
// (core/engine.h) is the uniform surface over every engine.
//
// Determinism contract (DESIGN.md section 7): for a fixed seed the output
// — labels, cost terms, winning restart — is bit-identical at every
// `threads` value. Restart r always consumes the r-th split() of the root
// Rng, restart results are selected by (cost, lowest restart index), and
// every floating-point reduction uses a fixed chunk order.
//
//   Solver solver({.num_planes = 5, .seed = 1, .threads = 0});
//   auto result = solver.run(netlist);
//   if (!result) { /* result.status().message() */ }
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/partition.h"
#include "core/problem_view.h"
#include "core/refine.h"
#include "util/status.h"

namespace sfqpart {

class ThreadPool;

namespace obs {
class SolverObserver;
}  // namespace obs

struct SolverConfig {
  int num_planes = 5;  // K (Table I uses 5)
  // Independent random restarts; the best discrete-cost result wins, ties
  // broken toward the lowest restart index.
  int restarts = 3;
  std::uint64_t seed = 1;
  // Worker threads for restarts and cost-model reductions. 1 = serial
  // (no pool is created); 0 = hardware concurrency.
  int threads = 1;
  // Post-hardening greedy improvement (not part of the published
  // algorithm; see DESIGN.md section 6 and ablation A2).
  bool refine = false;

  CostWeights weights;
  GradientStyle gradient_style = GradientStyle::kAnalytic;
  OptimizerOptions optimizer;
  RefineOptions refine_options;

  // Per-gate fixed planes (compact problem indices, -1 = free; not owned,
  // must outlive the run). Fixed gates start every restart as an exact
  // one-hot row, are re-clamped after hardening, and are skipped by the
  // refinement pass. Null = unconstrained, byte-identical to the
  // pre-constraint solver.
  const std::vector<int>* fixed_labels = nullptr;

  // Optional warm-start labels (compact problem indices, -1 = unassigned;
  // not owned, must outlive the run). Restart 0 overrides its random soft
  // assignment with exact one-hot rows for every assigned label (fixed
  // rows still win); restarts 1..R-1 stay fully random so the search keeps
  // its diversity. Null = cold, byte-identical to the pre-warm-start
  // solver.
  const std::vector<int>* warm_labels = nullptr;

  // Structured observability hook (not owned; may be null). Receives the
  // full event stream of every run: run/restart lifecycles, per-iteration
  // CostTerms, hardening, refine passes, named stage timers and counters
  // — serialized by the Solver's TraceSink, so implementations need no
  // locking of their own. Attach an obs::RunReport to capture a
  // machine-readable report, an obs::StreamTracer for live logs, or an
  // obs::MulticastObserver for both. With no observer attached the
  // instrumented paths cost one branch (DESIGN.md section 8).
  obs::SolverObserver* observer = nullptr;
};

// One Solver::run outcome: the hardened netlist-level partition plus the
// soft/discrete costs and convergence facts of the winning restart.
struct SolverResult {
  Partition partition;
  CostTerms soft_terms;        // relaxed cost at the winning restart's W
  CostTerms discrete_terms;    // cost of the hardened assignment
  double discrete_total = 0.0; // weighted discrete cost used for selection
  int iterations = 0;          // optimizer iterations of the winning restart
  int winning_restart = 0;
  bool converged = false;
};

// Core-solve result as compact labels (0-based planes indexed like the
// problem), for callers that manage their own problems (e.g. the
// V-cycle driver, whose coarse problems do not map to netlist gates).
// Produced by Solver::solve.
struct LabelResult {
  std::vector<int> labels;
  CostTerms soft_terms;
  CostTerms discrete_terms;
  double discrete_total = 0.0;
  int iterations = 0;
  int winning_restart = 0;
  bool converged = false;
};

class Solver {
 public:
  explicit Solver(SolverConfig config = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  const SolverConfig& config() const { return config_; }
  // Threads actually used (resolves threads == 0 to the hardware count).
  int effective_threads() const;

  // Partition a netlist end to end. Errors (K < 2, no partitionable
  // gates, non-positive learning rate, ...) come back as Status instead
  // of tripping asserts.
  StatusOr<SolverResult> run(const Netlist& netlist) const;

  // Same flow on a prebuilt view (the gradient engine's adapter), whose
  // CSR the cost model borrows instead of building its own.
  // `netlist_num_gates` sizes the expanded Partition. The problem's
  // num_planes takes precedence over config().num_planes.
  StatusOr<SolverResult> run(const ProblemView& view,
                             int netlist_num_gates) const;

  // Core solve returning compact labels for callers that manage their own
  // problems (e.g. the V-cycle driver).
  StatusOr<LabelResult> solve(const PartitionProblem& problem) const;

 private:
  // The descent on a view of a problem that validate() accepted.
  LabelResult solve_view(const ProblemView& view) const;

  SolverConfig config_;
  // Created once when effective_threads() > 1; restarts and reductions
  // of every run() share it.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sfqpart
