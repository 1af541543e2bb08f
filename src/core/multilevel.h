// Multilevel ground-plane partitioning (extension).
//
// The paper's conclusion leaves scaling beyond ~4k gates open; the classic
// answer (Karypis/Kumar, the paper's reference [18]) is multilevel:
// coarsen the connection graph by heavy-edge and two-hop matching until it
// is small, run the gradient-descent partitioner on the coarse graph
// (where the relaxation is cheap and the landscape smooth), then project
// the labels back level by level with greedy refinement at each step.
// Bias and area weights accumulate through the merges, so the coarse
// problem optimizes the same F1..F3 objective; contracted parallel edges
// collapse into one edge carrying their summed weight, preserving F1's
// edge weighting.
#pragma once

#include "core/solver.h"

namespace sfqpart {

namespace obs {
class SolverObserver;
}  // namespace obs

struct MultilevelOptions {
  // Coarsen until at most this many vertices (never below 4*K).
  int coarse_target = 160;
  // Safety cap on coarsening levels.
  int max_levels = 20;
  // Options for the coarse-level gradient-descent solve; num_planes is
  // overwritten by the multilevel driver.
  SolverConfig coarse;
  // Refinement applied after each projection.
  RefineOptions refine;
  std::uint64_t seed = 1;
  // Worker threads for the coarse-level solve's restart fan-out (0 = all
  // hardware threads, 1 = serial). Projection refinement is inherently
  // sequential and ignores this.
  int threads = 1;
  // Structured observability hook (not owned; may be null). Receives
  // LevelEvents for each coarsening level, stage timers ("coarsen",
  // "coarse_solve", "uncoarsen"), projection RefinePassEvents (tagged
  // restart = -1), and — forwarded to the coarse Solver — the full event
  // stream of the coarse-level solve.
  obs::SolverObserver* observer = nullptr;
  // Finest-level fixed planes (compact problem indices, -1 = free; not
  // owned). Pins propagate through coarsening, constrain the coarse solve
  // and are skipped by every projection refinement. Null = unconstrained
  // (bit-identical to the pre-constraint driver).
  const std::vector<int>* fixed = nullptr;
  // Finest-level warm-start labels (compact indices, -1 = unassigned; not
  // owned). Restricted down the level stack and handed to the coarse
  // Solver as its warm seed. Null = cold, bit-identical to the pre-warm
  // driver.
  const std::vector<int>* warm = nullptr;
};

struct MultilevelResult {
  Partition partition;
  int levels = 0;            // coarsening levels actually used
  int coarse_gates = 0;      // vertex count of the coarsest graph
  double discrete_total = 0.0;
};

MultilevelResult multilevel_partition(const Netlist& netlist, int num_planes,
                                      const MultilevelOptions& options = {});

}  // namespace sfqpart
