// Greedy discrete refinement of a hardened partition.
//
// The paper stops at the argmax of the converged soft assignment. This
// optional pass (off by default for paper fidelity, see SolverConfig)
// sweeps gates in random order and applies single-gate moves that reduce
// the *discrete* weighted cost, using incremental delta evaluation. It is
// the ablation point A2 of DESIGN.md.
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "core/move_eval.h"
#include "util/rng.h"

namespace sfqpart {

namespace obs {
class TraceSink;
}  // namespace obs

struct RefineOptions {
  int max_passes = 8;
  // Stop a pass early once fewer than this many moves were applied.
  int min_moves_per_pass = 1;
};

struct RefineResult {
  int passes = 0;
  int moves = 0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
};

// Improves `labels` in place (compact indices, 0-based planes). When a
// TraceSink is supplied, one RefinePassEvent per pass is emitted, tagged
// with `restart` (restart < 0 marks refits outside the restart loop, e.g.
// the multilevel projection polish). `fixed` (compact-indexed, -1 = free;
// null = unconstrained) marks gates the pass must not move — the null
// path is byte-identical to the pre-constraint code.
RefineResult refine_partition(const CostModel& model, std::vector<int>& labels,
                              Rng& rng, const RefineOptions& options = {},
                              obs::TraceSink* sink = nullptr, int restart = -1,
                              const std::vector<int>* fixed = nullptr);

struct BucketRefineStats {
  long long moves = 0;
  long long stale_pops = 0;  // lazy-queue entries discarded as outdated
};

// FM-style best-gain refinement: a lazy priority queue pops the single
// most-improving move in the whole (restricted) graph, re-validates it
// against the evolving labels, applies it and requeues the moved gate and
// its neighbors. Serial by construction and fully deterministic: the pop
// order is (gain, gate, target) lexicographic, independent of insertion
// order. `band` limits targets to +-band planes around a gate's current
// plane (band <= 0 lifts the limit); `fixed` (compact, -1 = free) marks
// immovable gates; `active` (optional) restricts the movable set to the
// listed compact indices — the eco engine's dirty region. Applied moves
// are capped at options.max_passes * movable-gate-count so a pathological
// gain surface cannot spin forever; each applied move strictly improves
// the cost, so the labels never regress. The final labels are not
// re-scored: callers that need the cost ask eval.current_cost().
BucketRefineStats bucket_refine(MoveEvaluator& eval, int band,
                                const RefineOptions& options,
                                const std::vector<int>* fixed = nullptr,
                                const std::vector<int>* active = nullptr);

}  // namespace sfqpart
