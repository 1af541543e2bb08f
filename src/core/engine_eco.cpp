// "eco" engine: incremental re-partition after a netlist revision.
//
// Requires a warm start (core/delta.h warm_start_from, or any partial
// InitialPartition): the assigned gates are the clean region, the
// unassigned gates are the dirty seeds. The engine places each seed
// greedily against its already-assigned neighbors, then runs the
// FM-style bucket refinement restricted to the dirty region plus a BFS
// halo of `halo` adjacency hops — the rest of the graph is never
// touched, which is what makes a 1% ECO on a million-gate netlist orders
// of magnitude cheaper than a scratch V-cycle (bench/eco_bench.cpp runs
// the registry's vcycle beside it to measure that).
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "core/move_eval.h"
#include "core/refine.h"

namespace sfqpart::engine_detail {

namespace {

// |d|^p by repeated multiplication (matches CostModel's discrete F1).
double dist_pow(double d, int p) {
  double magnitude = std::abs(d);
  double result = 1.0;
  for (int i = 0; i < p; ++i) result *= magnitude;
  return result;
}

class EcoAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "eco"; }
  const char* description() const override {
    return "incremental ECO re-partition: greedy placement of the warm "
           "start's unassigned gates + bucket refinement restricted to the "
           "dirty region and a BFS halo (requires a warm start)";
  }
  // The restricted refinement emits no observer events of its own; the
  // adapter narrates the run lifecycle (so reports carry engine "eco").
  bool self_observing() const override { return false; }

  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "restarts", "threads", "band",
                         "max_passes", "halo", "certify",
                         "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    if (warm == nullptr) {
      return Status::invalid_argument(
          "engine 'eco': requires a warm start (EngineContext::warm_start, "
          "e.g. from core/delta.h warm_start_from); for a cold solve use "
          "engine 'vcycle'");
    }
    const PartitionProblem& problem = view.problem();
    const int n = problem.num_gates;
    const int k = context.num_planes;
    std::vector<int> labels = *warm;

    // Dirty seeds: the warm start's unassigned compact entries (pins were
    // folded into `warm` by the adapter, so a pinned gate is never a seed).
    std::vector<int> seeds;
    for (int i = 0; i < n; ++i) {
      if (labels[static_cast<std::size_t>(i)] == kUnassignedPlane) {
        seeds.push_back(i);
      }
    }

    // BFS halo: the dirty region the restricted refinement may move.
    // `hops[i]` is the BFS depth (0 = seed); gates beyond `halo` hops are
    // frozen. A gate's depth does not depend on the order a frontier is
    // expanded in, and `active` is collected by an index scan, so the
    // frontiers stay in discovery order.
    std::vector<int> hops(static_cast<std::size_t>(n), -1);
    std::vector<int> frontier = seeds;
    for (const int gate : seeds) hops[static_cast<std::size_t>(gate)] = 0;
    for (int depth = 1; depth <= context.halo && !frontier.empty(); ++depth) {
      std::vector<int> next;
      for (const int gate : frontier) {
        const std::uint32_t* offsets = view.offsets();
        const std::int32_t* adj = view.neighbors();
        for (std::uint32_t s = offsets[static_cast<std::size_t>(gate)];
             s < offsets[static_cast<std::size_t>(gate) + 1]; ++s) {
          const int neighbor = adj[s];
          if (hops[static_cast<std::size_t>(neighbor)] == -1) {
            hops[static_cast<std::size_t>(neighbor)] = depth;
            next.push_back(neighbor);
          }
        }
      }
      frontier = std::move(next);
    }
    std::vector<int> active;
    for (int i = 0; i < n; ++i) {
      if (hops[static_cast<std::size_t>(i)] >= 0) active.push_back(i);
    }

    // Greedy placement of the seeds in ascending compact order: the plane
    // minimizing the F1 contribution against already-assigned neighbors,
    // ties to the least-loaded (bias) plane, then the lowest index.
    std::vector<double> plane_bias(static_cast<std::size_t>(k), 0.0);
    for (int i = 0; i < n; ++i) {
      const int label = labels[static_cast<std::size_t>(i)];
      if (label != kUnassignedPlane) {
        plane_bias[static_cast<std::size_t>(label)] +=
            problem.bias[static_cast<std::size_t>(i)];
      }
    }
    const int exponent = context.weights.distance_exponent;
    for (const int gate : seeds) {
      int best_plane = 0;
      double best_pull = std::numeric_limits<double>::infinity();
      double best_load = std::numeric_limits<double>::infinity();
      const std::uint32_t* offsets = view.offsets();
      const std::int32_t* adj = view.neighbors();
      for (int plane = 0; plane < k; ++plane) {
        double pull = 0.0;
        for (std::uint32_t s = offsets[static_cast<std::size_t>(gate)];
             s < offsets[static_cast<std::size_t>(gate) + 1]; ++s) {
          const int neighbor_label = labels[static_cast<std::size_t>(adj[s])];
          if (neighbor_label == kUnassignedPlane) continue;
          pull += dist_pow(plane - neighbor_label, exponent);
        }
        const double load = plane_bias[static_cast<std::size_t>(plane)];
        if (pull < best_pull || (pull == best_pull && load < best_load)) {
          best_pull = pull;
          best_load = load;
          best_plane = plane;
        }
      }
      labels[static_cast<std::size_t>(gate)] = best_plane;
      plane_bias[static_cast<std::size_t>(best_plane)] +=
          problem.bias[static_cast<std::size_t>(gate)];
    }

    // Restricted refinement: FM-style bucket moves over the dirty region
    // only. band <= 0 would lift the plane band; eco keeps the engine
    // default (context.band) like the vcycle refiner.
    const CostModel model(view, context.weights);
    MoveEvaluator eval(model, std::move(labels));
    RefineOptions refine_options;
    refine_options.max_passes = context.max_passes;
    const BucketRefineStats stats =
        bucket_refine(eval, context.band, refine_options,
                      constraints.compact_or_null(), &active);

    counters.emplace_back("dirty_seeds", static_cast<double>(seeds.size()));
    counters.emplace_back("dirty_gates", static_cast<double>(active.size()));
    counters.emplace_back("halo", static_cast<double>(context.halo));
    counters.emplace_back("eco_moves", static_cast<double>(stats.moves));

    return problem.to_partition(eval.labels(), netlist.num_gates());
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_eco_engine() {
  return std::make_unique<EcoAdapter>();
}

}  // namespace sfqpart::engine_detail
