// "random" engine: shuffled round-robin balanced assignment, the lower
// baseline. The expected d<=1 share is about (3K-2)/K^2 whatever the
// circuit's structure, so the benches use it to show how much structure
// the other engines exploit. Its labels are also the start annealing and
// fm_kway search from. The adapter narrates the run lifecycle, since a
// constructive heuristic emits no events of its own.
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "util/rng.h"

namespace sfqpart::engine_detail {

std::vector<int> random_start(int num_gates, int num_planes,
                              std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(num_gates));
  std::iota(order.begin(), order.end(), 0);
  Rng(seed).shuffle(order);
  std::vector<int> labels(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    labels[static_cast<std::size_t>(order[i])] =
        static_cast<int>(i % static_cast<std::size_t>(num_planes));
  }
  return labels;
}

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
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& /*counters*/) const override {
    std::vector<int> labels =
        random_start(view.num_gates(), context.num_planes, context.seed);
    // No search to seed: the warm labels and pins replace the shuffle's
    // planes where assigned.
    overlay_warm_and_pins(labels, warm, constraints);
    return view.problem().to_partition(labels, netlist.num_gates());
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_random_engine() {
  return std::make_unique<RandomAdapter>();
}

}  // namespace sfqpart::engine_detail
