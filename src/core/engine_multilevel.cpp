// "multilevel" engine: heavy-edge coarsening, coarse gradient-descent
// solve, projection with greedy refinement (core/multilevel.h).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "core/multilevel.h"

namespace sfqpart::engine_detail {

namespace {

class MultilevelAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "multilevel"; }
  const char* description() const override {
    return "heavy-edge coarsening + coarse gradient-descent solve + "
           "projected greedy refinement";
  }
  std::vector<OptionSpec> describe_options() const override {
    std::vector<OptionSpec> specs = {planes_spec(), seed_spec(),
                                     restarts_spec(), threads_spec(),
                                     certify_spec()};
    for (OptionSpec& spec : weight_specs()) specs.push_back(std::move(spec));
    return specs;
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    MultilevelOptions options;
    // Only the driver seed is threaded through; the coarse solve keeps its
    // own defaults (matching the historical entry point bit for bit).
    options.seed = context.seed;
    options.coarse.restarts = context.restarts;
    options.coarse.weights = context.weights;
    options.threads = context.threads;
    options.observer = context.observer;
    options.fixed = constraints.compact_or_null();
    options.warm = warm;
    MultilevelResult result =
        multilevel_partition(netlist, context.num_planes, options);
    counters.emplace_back("levels", result.levels);
    counters.emplace_back("coarse_gates", result.coarse_gates);
    return std::move(result.partition);
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_multilevel_engine() {
  return std::make_unique<MultilevelAdapter>();
}

}  // namespace sfqpart::engine_detail
