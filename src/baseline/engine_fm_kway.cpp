// "fm_kway" engine: the classic Fiduccia-Mattheyses K-way min-cut
// baseline (baseline/fm_kway.h) — the formulation the paper's section
// IV-A argues cannot capture plane-distance cost.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/fm_kway.h"
#include "core/engine_adapter.h"

namespace sfqpart::engine_detail {

namespace {

class FmKwayAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "fm_kway"; }
  const char* description() const override {
    return "classic Fiduccia-Mattheyses K-way min-cut (cut-count objective, "
           "bias-balance constraint)";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "certify"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    FmOptions options;
    options.seed = context.seed;
    options.observer = context.observer;
    options.fixed = constraints.compact_or_null();
    options.warm = warm;
    FmResult result = fm_kway_partition(netlist, context.num_planes, options);
    counters.emplace_back("passes", result.passes);
    counters.emplace_back("initial_cut", result.initial_cut);
    counters.emplace_back("final_cut", result.final_cut);
    return std::move(result.partition);
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_fm_kway_engine() {
  return std::make_unique<FmKwayAdapter>();
}

}  // namespace sfqpart::engine_detail
