// Discrete move-based refinement of a hardened partition.
//
// refine_partition sweeps gates in random order and applies single-gate
// moves that reduce the *discrete* weighted cost, using incremental delta
// evaluation. The gradient engine runs it after hardening (optional, off
// by default for paper fidelity; the ablation point A2 of DESIGN.md), and
// the multilevel preset of the V-cycle runs it after each projection
// (core/vcycle.h). bucket_refine is the FM-style best-gain alternative.
#pragma once

#include <vector>

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
};

// Improves the evaluator's labels in place: each pass shuffles the gate
// order with `rng`, then moves every gate to its best strictly improving
// plane (any of the K). `fixed` (compact-indexed, -1 = free; null =
// unconstrained) marks gates the pass must not move. When a TraceSink is
// supplied, one RefinePassEvent per pass is emitted, tagged with
// `restart`. The final labels are not re-scored: callers that need the
// cost ask eval.current_cost().
RefineResult refine_partition(MoveEvaluator& eval, Rng& rng,
                              const RefineOptions& options = {},
                              const std::vector<int>* fixed = nullptr,
                              obs::TraceSink* sink = nullptr, int restart = 0);

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
