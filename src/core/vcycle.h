// V-cycle partitioning — the million-gate engine.
//
// The paper's soft-assignment descent materializes a dense W in [0,1]^{G x K}
// and pays O(G*K) per iteration, which caps it at ~10^4-gate circuits.
// The classic escape hatch (Karypis/Kumar, the paper's reference [18]) is
// multilevel: this engine runs a true coarsen -> optimize -> uncoarsen
// V-cycle on the shared level builder (core/coarsen.h):
//
//  1. Coarsen by heavy-edge matching in the pinned kDegreeSorted visit
//     order until the graph is small (<= coarse_target vertices),
//     recording the explicit LevelStack.
//  2. Run the paper's gradient descent only on the coarsest problem,
//     where G*K is small and the relaxation is cheap — the PR 3 CSR
//     gather kernels run there unchanged.
//  3. Walk the stack back up: project labels onto each finer level and
//     polish, by default, with banded parallel refinement — single-gate
//     moves restricted to a gain band of +/-`band` planes around the
//     gate's current plane (moves across many planes were already
//     decided at coarse levels; the fine levels only smooth the boundary).
//
// Each banded pass is a deterministic propose/commit round: a
// parallel proposal sweep evaluates every gate's best in-band move
// against the frozen pass-start labels (pure reads of the shared
// MoveEvaluator, element-wise writes — bit-identical at any thread
// count), then a serial commit in ascending gate order re-checks each
// proposal against the evolving labels and applies the still-improving
// ones. Labels are therefore bit-identical at 1, 2 or 64 threads,
// honoring the repo's determinism contract (DESIGN.md section 7). Each
// gate caches the F1 part of its in-band move gains, and only gates whose
// neighborhood moved walk their neighbors again (DESIGN.md section 12.3).
//
// The `multilevel` engine is this driver preset to the paper's scale: a
// 160-vertex coarse target, 20 levels and the greedy random-order
// refiner of core/refine.h (VcycleRefineStyle::kGreedy).
#pragma once

#include "core/problem_view.h"
#include "core/solver.h"

namespace sfqpart {

namespace obs {
class SolverObserver;
}  // namespace obs

// Uncoarsening refinement flavor: banded parallel propose/commit sweeps
// (the default), serial FM-style best-gain bucket moves (core/refine.h
// bucket_refine) — better final cost on boundary-heavy graphs, serial
// wall-clock, A/B'd in bench/capacity_bench — or serial greedy sweeps in
// a seeded random gate order over all K planes (core/refine.h
// refine_partition), the refiner of the `multilevel` preset.
enum class VcycleRefineStyle {
  kBanded,
  kBuckets,
  kGreedy,
};

struct VcycleOptions {
  // Coarsen until at most this many vertices (never below 4*K); the
  // dense coarse solve costs O(coarse_target * K) per iteration.
  int coarse_target = 1024;
  // Safety cap on coarsening levels (2^64 vertices coarsen to anything
  // long before this).
  int max_levels = 64;
  // Options for the coarse-level gradient-descent solve; num_planes,
  // seed, threads and the observer are overwritten by the driver.
  SolverConfig coarse;
  // Gain band of the banded and bucket refinement: a gate may move at
  // most this many planes away from its current plane per accepted move.
  // The greedy refiner ignores it.
  int band = 1;
  // Pass caps of the per-level refinement (max_passes rounds; a level
  // stops early when a round commits fewer than min_moves_per_pass
  // moves).
  RefineOptions refine;
  // Seeds the coarse solve and the greedy refiner's gate order.
  std::uint64_t seed = 1;
  // Worker threads for the coarse solve and the proposal sweeps
  // (0 = all hardware threads, 1 = serial). Results are identical at
  // every value.
  int threads = 1;
  // Structured observability hook (not owned; may be null). Receives
  // run_start/run_end, the "coarsen" / "coarse_solve" / "uncoarsen"
  // stage timers, the coarse Solver's full event stream, and two
  // LevelEvents per level: shape + coarsen_ms on the way down,
  // projected/refined cost + refine_ms + moves on the way up.
  obs::SolverObserver* observer = nullptr;
  // Finest-level fixed planes (compact problem indices, -1 = free; not
  // owned). Pins propagate through coarsening, constrain the coarse solve
  // and are never moved by the refinement. Null = unconstrained
  // (bit-identical to the pre-constraint driver).
  const std::vector<int>* fixed = nullptr;
  // Finest-level warm-start labels (compact indices, -1 = unassigned; not
  // owned). Restricted down the level stack (first assigned fine label
  // per coarse parent wins) and handed to the coarse Solver as its warm
  // seed, so an ECO-style rerun descends from the prior solution instead
  // of a random draw. Null = cold, bit-identical to the pre-warm driver.
  const std::vector<int>* warm = nullptr;
  // Uncoarsening refinement flavor (see VcycleRefineStyle).
  VcycleRefineStyle refine_style = VcycleRefineStyle::kBanded;
};

struct VcycleResult {
  Partition partition;
  int levels = 0;            // coarsening levels actually used
  int coarse_gates = 0;      // vertex count of the coarsest graph
  long long refine_moves = 0;  // moves committed across all levels
  double discrete_total = 0.0;
};

VcycleResult vcycle_partition(const Netlist& netlist, int num_planes,
                              const VcycleOptions& options = {});

// Same, on an already-built finest problem's view (K = its num_planes):
// the registry adapter passes the problem and view it builds once per
// run, and the level stack coarsens level 0 on that view.
// `netlist_num_gates` sizes the returned Partition.
VcycleResult vcycle_partition(const ProblemView& finest,
                              int netlist_num_gates,
                              const VcycleOptions& options = {});

}  // namespace sfqpart
