#include "core/kres_search.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
  auto engine = EngineRegistry::create("gradient");
  if (!engine) return engine.status();
  KresResult result;
  const double total_bias = netlist.total_bias_ma();
  result.k_lb = std::max(2, static_cast<int>(std::ceil(total_bias / options.bias_limit_ma)));

  for (int k = result.k_lb; k <= options.max_planes; ++k) {
    EngineContext attempt = options.base;
    attempt.num_planes = k;
    // A failed attempt aborts the search: skipping it would misreport the
    // failure as "infeasible at this K" and push K_res upward.
    StatusOr<EngineRun> run = (*engine)->run(netlist, attempt);
    if (!run) {
      return Status::error(str_format("find_min_planes: K=%d attempt failed: %s",
                                      k, run.status().message().c_str()));
    }
    const double bmax = compute_metrics(netlist, run->partition).bmax_ma;
    if (bmax <= options.bias_limit_ma) {
      result.found = true;
      result.k_res = k;
      result.bmax_ma = bmax;
      result.result = *std::move(run);
      return result;
    }
  }
  return result;
}

}  // namespace sfqpart
