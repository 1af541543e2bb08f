// "layered" engine: topological slicing into K equal-bias bands.
//
// SFQ circuits are gate-level pipelines, so slicing the topological order
// into K contiguous chunks of equal bias current keeps most connections
// within or between adjacent chunks. This is the "obvious" constructive
// heuristic a designer would try before the paper's optimizer; the benches
// compare both. Deterministic and seedless; the adapter narrates the run
// lifecycle, since the heuristic emits no events of its own.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "sfq/balance.h"

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
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& /*counters*/) const override {
    const PartitionProblem& problem = view.problem();
    const int num_planes = context.num_planes;

    // Order gates by pipeline stage so each chunk is a band of consecutive
    // stages; ties keep compact (= gate id) order for determinism.
    const std::vector<int> depth = stage_depths(netlist);
    const auto depth_of = [&](int i) {
      return depth[static_cast<std::size_t>(
          problem.gate_ids[static_cast<std::size_t>(i)])];
    };
    std::vector<int> order(static_cast<std::size_t>(problem.num_gates));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return depth_of(a) < depth_of(b); });

    double total = 0.0;
    for (const int i : order) total += problem.bias[static_cast<std::size_t>(i)];

    // Equal-bias cumulative thresholds: gate midpoints falling past
    // total*(p+1)/K advance to the next plane.
    std::vector<int> labels(order.size());
    int plane = 0;
    double cum = 0.0;
    for (const int i : order) {
      const double bias = problem.bias[static_cast<std::size_t>(i)];
      while (plane < num_planes - 1 &&
             cum + bias / 2.0 > total * (plane + 1) / num_planes) {
        ++plane;
      }
      labels[static_cast<std::size_t>(i)] = plane;
      cum += bias;
    }
    // No search to seed: the warm labels and pins replace the bands where
    // assigned, and the bands around them stay as sliced.
    overlay_warm_and_pins(labels, warm, constraints);
    return problem.to_partition(labels, netlist.num_gates());
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_layered_engine() {
  return std::make_unique<LayeredAdapter>();
}

}  // namespace sfqpart::engine_detail
