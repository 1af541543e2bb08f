// Constrained-K search (Table III of the paper).
//
// A bias pad sustains at most B_limit (100 mA in the paper, after [23]);
// the externally supplied current equals B_max of the partition, so K must
// be raised until B_max <= B_limit. The search starts from the lower bound
// K_LB = ceil(B_cir / B_limit) and increases K until the partitioner
// produces a feasible stack.
//
// Every attempt is a run of the registry's "gradient" engine, so the
// base context is validated like any engine run. A failed attempt (bad
// base context, degenerate problem) aborts the search with that Status
// instead of silently skipping the K — a skipped failure used to
// masquerade as "infeasible at this K", which inflated K_res. Parameter
// sweeps beyond K live in core/sweep.h, which generalizes this search to
// arbitrary engine-option axes.
#pragma once

#include "core/engine.h"
#include "util/status.h"

namespace sfqpart {

struct KresOptions {
  double bias_limit_ma = 100.0;
  // Give up beyond this many planes (a malformed limit would otherwise
  // loop toward K = G).
  int max_planes = 256;
  // Base context of each gradient-engine attempt; num_planes is
  // overwritten by the search.
  EngineContext base;
};

struct KresResult {
  bool found = false;
  int k_lb = 0;   // ceil(B_cir / B_limit)
  int k_res = 0;  // smallest feasible K found
  double bmax_ma = 0.0;
  EngineRun result;  // the feasible partition (valid when found)
};

// kInvalidArgument on a non-positive bias limit; any failed partitioning
// attempt aborts the search with the engine's Status.
StatusOr<KresResult> find_min_planes(const Netlist& netlist,
                                     const KresOptions& options = {});

}  // namespace sfqpart
