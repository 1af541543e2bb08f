// "exact" engine: exhaustive branch-and-bound over the K^G label space,
// scored by the certifier's independent re-derivation (core/certify.h) —
// deliberately not by CostModel, so the optimum it proves is an
// *external* reference against which every heuristic engine's optimality
// gap is measured. Guarded by max_gates (default 20): the instance must
// be small enough that exhaustive search is meaningful at all.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/certify.h"
#include "core/engine_adapter.h"
#include "util/strings.h"

namespace sfqpart::engine_detail {

namespace {

// |d|^p by repeated multiplication, mirroring the certifier's scoring so
// the incremental bound and the leaf score agree exactly.
double dist_pow(double d, int p) {
  double magnitude = std::abs(d);
  double result = 1.0;
  for (int i = 0; i < p; ++i) result *= magnitude;
  return result;
}

struct SearchStats {
  long long nodes_explored = 0;
  long long leaves_evaluated = 0;
  long long pruned = 0;
};

class ExactAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "exact"; }
  const char* description() const override {
    return "exhaustive branch-and-bound over all K^G labelings, scored by "
           "the independent certifier (proves the optimum; gated by "
           "max_gates)";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs(
        {"planes", "max_gates", "certify", "c1", "c2", "c3", "c4", "distance_exponent"});
  }

 protected:
  bool self_observing() const override { return false; }

  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& /*view*/,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    const CertifiedInstance inst =
        build_certified_instance(netlist, context.num_planes, context.weights);
    const int num_gates = inst.num_gates();
    const int num_planes = context.num_planes;
    if (num_gates > context.max_gates) {
      return Status::invalid_argument(str_format(
          "engine 'exact': %d partitionable gates exceed max_gates=%d; the "
          "exhaustive search is only meaningful on small instances (raise "
          "max_gates deliberately or use a heuristic engine)",
          num_gates, context.max_gates));
    }

    // Compact adjacency for the incremental F1 bound.
    std::vector<std::vector<int>> neighbors(
        static_cast<std::size_t>(num_gates));
    for (const auto& [u, v] : inst.edges) {
      neighbors[static_cast<std::size_t>(u)].push_back(v);
      neighbors[static_cast<std::size_t>(v)].push_back(u);
    }

    std::vector<int> labels(static_cast<std::size_t>(num_gates), 0);
    std::vector<bool> assigned(static_cast<std::size_t>(num_gates), false);
    const std::vector<int>* fixed = constraints.compact_or_null();
    if (fixed != nullptr) {
      for (int i = 0; i < num_gates; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        if ((*fixed)[ui] >= 0) {
          labels[ui] = (*fixed)[ui];
          assigned[ui] = true;
        }
      }
    }

    // Branch on the free gates in order of descending degree (ties by
    // compact index): high-degree gates bind the partial F1 bound early.
    std::vector<int> order;
    for (int i = 0; i < num_gates; ++i) {
      if (!assigned[static_cast<std::size_t>(i)]) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return neighbors[static_cast<std::size_t>(a)].size() >
             neighbors[static_cast<std::size_t>(b)].size();
    });

    // The partial unnormalized F1 over fully-assigned edges only grows as
    // labels are added, and F2/F3 are non-negative sums of squares, so
    // c1 * partial_f1 / n1 + c4 * F4_const lower-bounds every completion —
    // provided no balance weight is negative (a negative c2/c3 could pay
    // back F1 cost, voiding the bound).
    const bool prune_enabled = context.weights.c1 >= 0.0 &&
                               context.weights.c2 >= 0.0 &&
                               context.weights.c3 >= 0.0;
    const double f4_part = context.weights.c4 * inst.f4_constant;

    SearchStats stats;
    std::vector<int> best_labels = labels;
    double best_total = std::numeric_limits<double>::infinity();
    // A fully-assigned warm start becomes the branch-and-bound incumbent:
    // the search still proves the optimum, but prunes against the seed's
    // score from the first node (same compact order as the instance).
    if (warm != nullptr && static_cast<int>(warm->size()) == num_gates &&
        std::none_of(warm->begin(), warm->end(),
                     [](int label) { return label < 0; })) {
      best_labels = *warm;
      best_total = inst.score(*warm, context.weights);
      counters.emplace_back("warm_incumbent", best_total);
    }
    // With no constraints the objective is invariant under the plane
    // reversal k -> K-1-k (F1 sees distances, F2/F3 sum over planes), so
    // the first branched gate only needs the lower half of the planes.
    const bool break_symmetry = constraints.empty();

    auto descend = [&](auto&& self, std::size_t depth,
                       double partial_f1) -> void {
      ++stats.nodes_explored;
      if (depth == order.size()) {
        ++stats.leaves_evaluated;
        const double total = inst.score(labels, context.weights);
        if (total < best_total) {
          best_total = total;
          best_labels = labels;
        }
        return;
      }
      const int gate = order[depth];
      const auto ug = static_cast<std::size_t>(gate);
      const int max_plane =
          break_symmetry && depth == 0 ? (num_planes - 1) / 2 : num_planes - 1;
      for (int plane = 0; plane <= max_plane; ++plane) {
        double delta = 0.0;
        for (const int j : neighbors[ug]) {
          if (!assigned[static_cast<std::size_t>(j)]) continue;
          delta += dist_pow(plane - labels[static_cast<std::size_t>(j)],
                            context.weights.distance_exponent);
        }
        const double f1_next = partial_f1 + delta;
        if (prune_enabled &&
            context.weights.c1 * f1_next / inst.n1 + f4_part >= best_total) {
          ++stats.pruned;
          continue;
        }
        labels[ug] = plane;
        assigned[ug] = true;
        self(self, depth + 1, f1_next);
        assigned[ug] = false;
      }
    };

    // Seed the partial F1 with the edges already bound by fixed gates.
    double fixed_f1 = 0.0;
    for (const auto& [u, v] : inst.edges) {
      if (assigned[static_cast<std::size_t>(u)] &&
          assigned[static_cast<std::size_t>(v)]) {
        fixed_f1 += dist_pow(labels[static_cast<std::size_t>(u)] -
                                 labels[static_cast<std::size_t>(v)],
                             context.weights.distance_exponent);
      }
    }
    descend(descend, 0, fixed_f1);

    counters.emplace_back("nodes_explored",
                          static_cast<double>(stats.nodes_explored));
    counters.emplace_back("leaves_evaluated",
                          static_cast<double>(stats.leaves_evaluated));
    counters.emplace_back("pruned", static_cast<double>(stats.pruned));
    counters.emplace_back("proved_optimal", 1.0);

    Partition partition;
    partition.num_planes = num_planes;
    partition.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                              kUnassignedPlane);
    for (int i = 0; i < num_gates; ++i) {
      partition.plane_of[static_cast<std::size_t>(
          inst.gate_ids[static_cast<std::size_t>(i)])] =
          best_labels[static_cast<std::size_t>(i)];
    }
    return partition;
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_exact_engine() {
  return std::make_unique<ExactAdapter>();
}

}  // namespace sfqpart::engine_detail
