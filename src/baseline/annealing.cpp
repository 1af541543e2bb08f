// "annealing" engine: simulated annealing of the discrete weighted
// objective.
//
// Optimizes the *discrete* weighted cost (the same F1..F3 objective the
// gradient-descent relaxation targets) directly with single-gate moves
// under a geometric cooling schedule. Serves two roles: an independent
// reference optimizer to sanity-check the relaxation's solution quality,
// and the natural "how far can the objective be pushed" upper baseline
// for ablation A2/A3.
//
// Narrates its own run: one IterationEvent per temperature step (restart
// 0, cost = running discrete total), counters moves_tried /
// moves_accepted and an "anneal" stage timer.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_adapter.h"
#include "core/move_eval.h"
#include "obs/trace_sink.h"
#include "util/rng.h"

namespace sfqpart::engine_detail {

namespace {

// The cooling schedule: moves per temperature step = kMovesPerGate * G,
// a starting temperature calibrated to accept kInitialAcceptance of the
// uphill moves, a geometric kCooling factor per step, and an early stop
// after kPatience steps without improvement.
constexpr double kMovesPerGate = 4.0;
constexpr double kInitialAcceptance = 0.5;
constexpr double kCooling = 0.9;
constexpr int kTemperatureSteps = 40;
constexpr int kPatience = 8;

class AnnealingAdapter final : public EngineAdapter {
 public:
  const char* name() const override { return "annealing"; }
  const char* description() const override {
    return "simulated annealing of the discrete weighted F1..F3 objective "
           "with single-gate moves under geometric cooling";
  }
  std::vector<OptionSpec> describe_options() const override {
    return option_specs({"planes", "seed", "certify", "c1", "c2", "c3", "c4",
                         "distance_exponent"});
  }

 protected:
  StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const override {
    const PartitionProblem& problem = view.problem();
    const int num_planes = context.num_planes;
    const std::vector<int>* fixed = constraints.compact_or_null();
    const CostModel model(view, context.weights);
    Rng rng(context.seed);

    obs::TraceSink sink(context.observer);
    if (sink.enabled()) {
      obs::RunInfo info;
      info.engine = "annealing";
      info.num_planes = num_planes;
      info.seed = context.seed;
      info.weights = context.weights;
      info.max_iterations = kTemperatureSteps;
      info.problem_gates = problem.num_gates;
      info.problem_edges = static_cast<long long>(problem.edges.size());
      sink.run_start(info);
      sink.restart_start({0});
    }
    obs::ScopedTimer anneal_timer(&sink, "anneal", 0);

    // The random engine's balanced start (as the gradient method's random
    // init), with the warm labels and then the pins laid over it.
    std::vector<int> labels =
        random_start(problem.num_gates, num_planes, context.seed);
    overlay_warm_and_pins(labels, warm, constraints);
    MoveEvaluator eval(model, std::move(labels));
    const double initial_cost = eval.current_cost();

    // Calibrate the starting temperature from the mean uphill delta so the
    // initial acceptance rate holds regardless of circuit scale.
    double uphill_sum = 0.0;
    int uphill_count = 0;
    for (int probe = 0; probe < 200; ++probe) {
      const int gate = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(problem.num_gates)));
      const int target = rng.uniform_int(0, num_planes - 1);
      const double delta = eval.delta(gate, target);
      if (delta > 0.0) {
        uphill_sum += delta;
        ++uphill_count;
      }
    }
    const double mean_uphill =
        uphill_count > 0 ? uphill_sum / uphill_count : 1e-6;
    double temperature = -mean_uphill / std::log(kInitialAcceptance);

    const long long moves_per_step = std::max<long long>(
        64, static_cast<long long>(kMovesPerGate * problem.num_gates));

    std::vector<int> best_labels = eval.labels();
    double best_cost = initial_cost;
    double running_cost = initial_cost;
    int steps_without_improvement = 0;
    int steps = 0;
    long long moves_tried = 0;
    long long moves_accepted = 0;

    for (int step = 0; step < kTemperatureSteps; ++step) {
      steps = step + 1;
      for (long long move = 0; move < moves_per_step; ++move) {
        const int gate = static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(problem.num_gates)));
        if (fixed != nullptr && (*fixed)[static_cast<std::size_t>(gate)] >= 0) {
          continue;
        }
        int target = rng.uniform_int(0, num_planes - 1);
        if (target == eval.label(gate)) continue;
        ++moves_tried;
        const double delta = eval.delta(gate, target);
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
          eval.apply(gate, target);
          running_cost += delta;
          ++moves_accepted;
        }
      }
      if (sink.enabled()) {
        sink.iteration({0, step, CostTerms{}, running_cost});
      }
      if (running_cost < best_cost - 1e-12) {
        best_cost = running_cost;
        best_labels = eval.labels();
        steps_without_improvement = 0;
      } else if (++steps_without_improvement >= kPatience) {
        break;
      }
      temperature *= kCooling;
    }

    if (sink.enabled()) {
      // Recompute exactly for the trace: the running sum accumulates float
      // error over many moves. An untraced run is scored by the adapter.
      const CostTerms terms = model.evaluate_discrete(best_labels);
      const double final_cost = terms.total(context.weights);
      const bool early_stop = steps < kTemperatureSteps;
      sink.counter("moves_tried", moves_tried);
      sink.counter("moves_accepted", moves_accepted);
      sink.restart_end({0, CostTerms{}, terms, final_cost, steps, early_stop});
      sink.run_end({0, final_cost, steps, early_stop});
    }
    counters.emplace_back("steps", steps);
    counters.emplace_back("moves_tried", static_cast<double>(moves_tried));
    counters.emplace_back("moves_accepted",
                          static_cast<double>(moves_accepted));
    return problem.to_partition(best_labels, netlist.num_gates());
  }
};

}  // namespace

std::unique_ptr<PartitionEngine> make_annealing_engine() {
  return std::make_unique<AnnealingAdapter>();
}

}  // namespace sfqpart::engine_detail
