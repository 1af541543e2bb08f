// "random" engine: shuffled round-robin balanced assignment
// (baseline/random_partition.h), the lower baseline. The adapter narrates
// the run lifecycle since the constructive heuristic emits no events of
// its own.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/random_partition.h"
#include "core/engine_adapter.h"

namespace sfqpart::engine_detail {

namespace {

class RandomAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "random"; }
  const char* description() const override {
    return "shuffled round-robin balanced assignment (lower baseline)";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "certify"});
  }

 protected:
  bool self_observing() const override { return false; }

  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    (void)counters;
    Partition partition = random_partition(netlist, context.num_planes,
                                           context.seed,
                                           constraints.gate_or_null());
    // A constructive heuristic has no search to seed: the warm labels
    // simply replace its output where assigned (pins are already folded
    // into `warm`, so the overwrite cannot violate a constraint).
    apply_warm_overrides(netlist, warm, partition);
    return partition;
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_random_engine() {
  return std::make_unique<RandomAdapter>();
}

}  // namespace sfqpart::engine_detail
