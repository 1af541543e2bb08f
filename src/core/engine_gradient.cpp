// "gradient" engine: the paper's gradient-descent relaxation, wrapping the
// Solver facade unchanged (same defaults, same determinism contract). The
// Solver's cost model borrows the adapter's view.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "core/solver.h"

namespace sfqpart::engine_detail {

namespace {

class GradientAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "gradient"; }
  const char* description() const override {
    return "gradient-descent relaxation of the weighted F1..F4 objective "
           "(the paper's Algorithm 1)";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "restarts", "threads", "refine",
                         "certify", "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    SolverConfig config;
    config.num_planes = context.num_planes;
    config.restarts = context.restarts;
    config.seed = context.seed;
    config.threads = context.threads;
    config.refine = context.refine;
    config.weights = context.weights;
    config.observer = context.observer;
    config.fixed_labels = constraints.compact_or_null();
    config.warm_labels = warm;
    StatusOr<SolverResult> result =
        Solver(std::move(config)).run(view, netlist.num_gates());
    if (!result) return result.status();
    counters.emplace_back("iterations", result->iterations);
    counters.emplace_back("winning_restart", result->winning_restart);
    counters.emplace_back("converged", result->converged ? 1.0 : 0.0);
    counters.emplace_back("restarts", context.restarts);
    return std::move(result->partition);
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_gradient_engine() {
  return std::make_unique<GradientAdapter>();
}

}  // namespace sfqpart::engine_detail
