#include "core/kres_search.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/solver.h"
#include "metrics/partition_metrics.h"
#include "util/strings.h"

namespace sfqpart {

StatusOr<KresResult> find_min_planes(const Netlist& netlist,
                                     const KresOptions& options) {
  if (!(options.bias_limit_ma > 0.0)) {
    return Status::invalid_argument(
        str_format("find_min_planes: bias_limit_ma must be > 0 (got %g)",
                   options.bias_limit_ma));
  }
  KresResult result;
  const double total_bias = netlist.total_bias_ma();
  result.k_lb = std::max(2, static_cast<int>(std::ceil(total_bias / options.bias_limit_ma)));

  for (int k = result.k_lb; k <= options.max_planes; ++k) {
    SolverConfig attempt = options.base;
    attempt.num_planes = k;
    const PartitionProblem problem = PartitionProblem::from_netlist(netlist, k);
    // A failed attempt aborts the search: skipping it would misreport the
    // failure as "infeasible at this K" and push K_res upward.
    StatusOr<SolverResult> attempt_result =
        Solver(attempt).run(problem, netlist.num_gates());
    if (!attempt_result) {
      return Status::error(str_format("find_min_planes: K=%d attempt failed: %s",
                                      k,
                                      attempt_result.status().message().c_str()));
    }
    SolverResult partition = *std::move(attempt_result);
    const double bmax = compute_metrics(netlist, partition.partition).bmax_ma;
    if (bmax <= options.bias_limit_ma) {
      result.found = true;
      result.k_res = k;
      result.bmax_ma = bmax;
      result.result = std::move(partition);
      return result;
    }
  }
  return result;
}

}  // namespace sfqpart
