// "annealing" engine: simulated annealing on the discrete weighted
// objective (baseline/annealing.h).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/annealing.h"
#include "core/engine_adapter.h"

namespace sfqpart::engine_detail {

namespace {

class AnnealingAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "annealing"; }
  const char* description() const override {
    return "simulated annealing of the discrete weighted F1..F3 objective "
           "with single-gate moves under geometric cooling";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "certify", "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    AnnealingOptions options;
    options.weights = context.weights;
    options.seed = context.seed;
    options.observer = context.observer;
    options.fixed = constraints.compact_or_null();
    options.warm = warm;
    AnnealingResult result =
        anneal_partition(netlist, context.num_planes, options);
    counters.emplace_back("steps", result.steps);
    counters.emplace_back("moves_tried",
                          static_cast<double>(result.moves_tried));
    counters.emplace_back("moves_accepted",
                          static_cast<double>(result.moves_accepted));
    return std::move(result.partition);
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_annealing_engine() {
  return std::make_unique<AnnealingAdapter>();
}

}  // namespace sfqpart::engine_detail
