// "layered" engine: topological slicing into K equal-bias bands
// (baseline/layered_partition.h). Deterministic and seedless; the adapter
// narrates the run lifecycle since the constructive heuristic emits no
// events of its own.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/layered_partition.h"
#include "core/engine_adapter.h"

namespace sfqpart::engine_detail {

namespace {

class LayeredAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "layered"; }
  const char* description() const override {
    return "topological order sliced into K contiguous equal-bias bands "
           "(deterministic and seedless)";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "certify"});
  }

 protected:
  bool self_observing() const override { return false; }

  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    (void)counters;
    LayeredOptions options;
    options.fixed_of_gate = constraints.gate_or_null();
    Partition partition = layered_partition(netlist, context.num_planes, options);
    // A constructive heuristic has no search to seed: the warm labels
    // simply replace its output where assigned (pins are already folded
    // into `warm`, so the overwrite cannot violate a constraint).
    apply_warm_overrides(netlist, warm, partition);
    return partition;
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_layered_engine() {
  return std::make_unique<LayeredAdapter>();
}

}  // namespace sfqpart::engine_detail
