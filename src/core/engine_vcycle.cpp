// The two V-cycle engines (core/vcycle.h), both on the adapter's view:
//  * "vcycle": heavy-edge coarsening in the pinned visit order,
//    coarse-only gradient descent, banded parallel refinement on uncoarsen
//    — the registry's million-gate path, every shape knob exposed;
//  * "multilevel": the same driver preset to the paper's scale — a
//    160-vertex coarse target, 20 levels and greedy random-order
//    refinement, which beats the other two refiners on the Table I suite.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "core/vcycle.h"

namespace sfqpart::engine_detail {

namespace {

// The EngineContext knobs both engines read.
VcycleOptions common_options(const EngineContext& context,
                             const CompiledConstraints& constraints,
                             const std::vector<int>* warm) {
  VcycleOptions options;
  options.seed = context.seed;
  options.coarse.restarts = context.restarts;
  options.coarse.weights = context.weights;
  options.threads = context.threads;
  options.observer = context.observer;
  options.fixed = constraints.compact_or_null();
  options.warm = warm;
  return options;
}

Partition run_vcycle(const Netlist& netlist, const ProblemView& view,
                     const VcycleOptions& options,
                     std::vector<std::pair<std::string, double>>& counters) {
  VcycleResult result = vcycle_partition(view, netlist.num_gates(), options);
  counters.emplace_back("levels", result.levels);
  counters.emplace_back("coarse_gates", result.coarse_gates);
  counters.emplace_back("refine_moves",
                        static_cast<double>(result.refine_moves));
  return std::move(result.partition);
}

class VcycleAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "vcycle"; }
  const char* description() const override {
    return "sparse coarsen->optimize->uncoarsen V-cycle: coarse-only "
           "gradient descent + banded parallel refinement (million-gate "
           "scale)";
  }
  std::vector<OptionSpec> describe_options() const override {
    // The engine's own shape knobs are advertised too (band,
    // coarse_target, max_levels, max_passes): without them `--engine
    // vcycle` and the daemon's job validation could not reach them at
    // all.
    return option_specs({"planes", "seed", "restarts", "threads", "band",
                         "coarse_target", "max_levels", "max_passes",
                         "refine_style", "certify", "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    VcycleOptions options = common_options(context, constraints, warm);
    options.band = context.band;
    options.coarse_target = context.coarse_target;
    options.max_levels = context.max_levels;
    options.refine.max_passes = context.max_passes;
    options.refine_style = context.refine_style == "buckets"
                               ? VcycleRefineStyle::kBuckets
                               : VcycleRefineStyle::kBanded;
    return run_vcycle(netlist, view, options, counters);
  }
};

class MultilevelAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "multilevel"; }
  const char* description() const override {
    return "heavy-edge coarsening + coarse gradient-descent solve + "
           "projected greedy refinement";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs(
        {"planes", "seed", "restarts", "threads", "certify", "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    VcycleOptions options = common_options(context, constraints, warm);
    options.coarse_target = 160;
    options.max_levels = 20;
    options.refine_style = VcycleRefineStyle::kGreedy;
    return run_vcycle(netlist, view, options, counters);
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_vcycle_engine() {
  return std::make_unique<VcycleAdapter>();
}

std::unique_ptr<PartitionEngine> make_multilevel_engine() {
  return std::make_unique<MultilevelAdapter>();
}

}  // namespace sfqpart::engine_detail
