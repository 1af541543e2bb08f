// "fm_kway" engine: the classic Fiduccia-Mattheyses K-way min-cut
// baseline.
//
// The paper argues (section IV-A) that ground-plane partitioning "can not
// be formulated as a classic K-way partitioning problem": the classic
// objective counts *cut* connections and knows nothing about how many
// planes a cut crosses. This engine implements exactly that classic
// formulation -- pass-based single-gate moves maximizing cut-count gain
// under a bias-balance constraint, with gate locking and best-prefix
// rollback -- so the benches can quantify the claim: FM matches or beats
// the optimizer on cut count while losing badly on distance-weighted cost.
//
// Narrates its own run: one IterationEvent per pass (restart 0, cost =
// cut count after the pass's best prefix), counters moves_tried /
// moves_accepted and an "fm" stage timer.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "obs/trace_sink.h"
#include "util/rng.h"

namespace sfqpart::engine_detail {

namespace {

constexpr int kMaxPasses = 10;
// Allowed per-plane bias deviation from the ideal B_cir/K.
constexpr double kBalanceTolerance = 0.10;

// Edges whose endpoints sit on different planes.
int cut_of(const PartitionProblem& problem, const std::vector<int>& label) {
  int cut = 0;
  for (const auto& [a, b] : problem.edges) {
    if (label[static_cast<std::size_t>(a)] != label[static_cast<std::size_t>(b)]) {
      ++cut;
    }
  }
  return cut;
}

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
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    const PartitionProblem& problem = view.problem();
    const std::vector<double>& bias = problem.bias;
    const int num_gates = problem.num_gates;
    const int num_planes = context.num_planes;
    const std::vector<int>* fixed = constraints.compact_or_null();
    const std::uint32_t* offsets = view.offsets();
    const std::int32_t* adj = view.neighbors();

    // The random engine's start, with the warm labels and then the pins
    // laid over it, so the initial cut describes a feasible partition.
    std::vector<int> label = random_start(num_gates, num_planes, context.seed);
    overlay_warm_and_pins(label, warm, constraints);
    const int initial_cut = cut_of(problem, label);

    obs::TraceSink sink(context.observer);
    if (sink.enabled()) {
      obs::RunInfo info;
      info.engine = "fm_kway";
      info.num_planes = num_planes;
      info.seed = context.seed;
      info.max_iterations = kMaxPasses;
      info.problem_gates = num_gates;
      info.problem_edges = static_cast<long long>(problem.edges.size());
      sink.run_start(info);
      sink.restart_start({0});
    }
    obs::ScopedTimer fm_timer(&sink, "fm", 0);
    int passes = 0;
    long long moves_tried = 0;
    long long moves_kept = 0;
    int current_cut = initial_cut;

    std::vector<double> plane_bias(static_cast<std::size_t>(num_planes), 0.0);
    for (int i = 0; i < num_gates; ++i) {
      plane_bias[static_cast<std::size_t>(label[static_cast<std::size_t>(i)])] +=
          bias[static_cast<std::size_t>(i)];
    }
    const double total_bias = std::accumulate(bias.begin(), bias.end(), 0.0);
    const double ideal = total_bias / num_planes;
    const double max_bias = ideal * (1.0 + kBalanceTolerance);
    const double min_bias = ideal * (1.0 - kBalanceTolerance);

    // Cut-count gain of moving gate i to plane t: neighbors on t become
    // uncut, neighbors on the current plane become cut.
    auto gain_of = [&](int i, int t) {
      const auto ui = static_cast<std::size_t>(i);
      int gain = 0;
      for (std::uint32_t s = offsets[ui]; s < offsets[ui + 1]; ++s) {
        const int lj = label[static_cast<std::size_t>(adj[s])];
        if (lj == t) ++gain;
        if (lj == label[ui]) --gain;
      }
      return gain;
    };
    auto feasible = [&](int i, int t) {
      const auto ui = static_cast<std::size_t>(i);
      const int s = label[ui];
      if (s == t) return false;
      return plane_bias[static_cast<std::size_t>(t)] + bias[ui] <= max_bias &&
             plane_bias[static_cast<std::size_t>(s)] - bias[ui] >= min_bias;
    };

    Rng rng(context.seed ^ 0x5bd1e995ULL);
    std::vector<int> order(static_cast<std::size_t>(num_gates));
    std::iota(order.begin(), order.end(), 0);

    for (int pass = 0; pass < kMaxPasses; ++pass) {
      passes = pass + 1;
      rng.shuffle(order);
      std::vector<bool> locked(static_cast<std::size_t>(num_gates), false);
      if (fixed != nullptr) {
        for (int i = 0; i < num_gates; ++i) {
          if ((*fixed)[static_cast<std::size_t>(i)] >= 0) {
            locked[static_cast<std::size_t>(i)] = true;
          }
        }
      }

      // Move log for best-prefix rollback.
      struct Move {
        int gate;
        int from;
        int to;
      };
      std::vector<Move> moves;
      int cumulative_gain = 0;
      int best_gain = 0;
      std::size_t best_prefix = 0;

      // Greedy FM pass: repeatedly apply the best feasible move among the
      // unlocked gates (scanning in shuffled order), even when its gain is
      // negative -- hill climbing out of local minima is the point of FM.
      for (int step = 0; step < num_gates; ++step) {
        int best_gate = -1;
        int best_target = -1;
        int step_gain = -1 << 30;
        for (const int i : order) {
          if (locked[static_cast<std::size_t>(i)]) continue;
          for (int t = 0; t < num_planes; ++t) {
            if (!feasible(i, t)) continue;
            const int gain = gain_of(i, t);
            if (gain > step_gain) {
              step_gain = gain;
              best_gate = i;
              best_target = t;
            }
          }
        }
        if (best_gate < 0) break;  // nothing movable
        const auto ug = static_cast<std::size_t>(best_gate);
        const int from = label[ug];
        plane_bias[static_cast<std::size_t>(from)] -= bias[ug];
        plane_bias[static_cast<std::size_t>(best_target)] += bias[ug];
        label[ug] = best_target;
        locked[ug] = true;
        moves.push_back(Move{best_gate, from, best_target});
        cumulative_gain += step_gain;
        if (cumulative_gain > best_gain) {
          best_gain = cumulative_gain;
          best_prefix = moves.size();
        }
        // Deep negative streaks will not recover; stop the pass early.
        if (cumulative_gain < best_gain - 50) break;
      }

      // Roll back past the best prefix.
      for (std::size_t m = moves.size(); m > best_prefix; --m) {
        const Move& move = moves[m - 1];
        const auto ug = static_cast<std::size_t>(move.gate);
        plane_bias[static_cast<std::size_t>(move.to)] -= bias[ug];
        plane_bias[static_cast<std::size_t>(move.from)] += bias[ug];
        label[ug] = move.from;
      }
      moves_tried += static_cast<long long>(moves.size());
      if (best_gain > 0) {
        moves_kept += static_cast<long long>(best_prefix);
        current_cut -= best_gain;
      }
      if (sink.enabled()) {
        sink.iteration({0, pass, CostTerms{}, static_cast<double>(current_cut)});
      }
      if (best_gain <= 0) break;  // converged
    }

    const int final_cut = cut_of(problem, label);
    if (sink.enabled()) {
      const bool converged = passes < kMaxPasses;
      sink.counter("moves_tried", moves_tried);
      sink.counter("moves_accepted", moves_kept);
      sink.restart_end({0, CostTerms{}, CostTerms{},
                        static_cast<double>(final_cut), passes, converged});
      sink.run_end({0, static_cast<double>(final_cut), passes, converged});
    }
    counters.emplace_back("passes", passes);
    counters.emplace_back("initial_cut", initial_cut);
    counters.emplace_back("final_cut", final_cut);
    return problem.to_partition(label, netlist.num_gates());
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_fm_kway_engine() {
  return std::make_unique<FmKwayAdapter>();
}

}  // namespace sfqpart::engine_detail
