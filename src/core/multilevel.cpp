#include "core/multilevel.h"

#include <cassert>

#include "core/coarsen.h"
#include "core/refine.h"
#include "core/solver.h"
#include "obs/trace_sink.h"
#include "util/rng.h"

namespace sfqpart {

MultilevelResult multilevel_partition(const Netlist& netlist, int num_planes,
                                      const MultilevelOptions& options) {
  assert(num_planes >= 2);
  Rng rng(options.seed);
  obs::TraceSink sink(options.observer);

  PartitionProblem finest = PartitionProblem::from_netlist(netlist, num_planes);

  // The outer multilevel drive announces itself first; the nested coarse
  // Solver's run_start then loses the RunReport first-wins race, so the
  // report's engine/problem shape describe this level, not the coarse one.
  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = "multilevel";
    info.num_planes = num_planes;
    info.restarts = options.coarse.restarts;
    info.seed = options.seed;
    info.refine = true;  // projection refinement always runs
    info.weights = options.coarse.weights;
    info.gradient_style = options.coarse.gradient_style;
    info.learning_rate = options.coarse.optimizer.learning_rate;
    info.max_iterations = options.coarse.optimizer.max_iterations;
    info.margin = options.coarse.optimizer.margin;
    info.normalize_step = options.coarse.optimizer.normalize_step;
    info.problem_gates = finest.num_gates;
    info.problem_edges = static_cast<long long>(finest.edges.size());
    sink.run_start(info);
  }

  // Coarsen on the shared level builder, in the legacy Rng-shuffled visit
  // order: the continuing `rng` feeds the projection refits below, so the
  // draw sequence (including draws of a stall-discarded level) is part of
  // the engine's pinned golden-label behavior.
  LevelStack stack;
  {
    obs::ScopedTimer timer(&sink, "coarsen");
    if (sink.enabled()) {
      sink.level({0, finest.num_gates,
                  static_cast<long long>(finest.edges.size())});
    }
    CoarsenOptions coarsen_options;
    coarsen_options.coarse_target = options.coarse_target;
    coarsen_options.max_levels = options.max_levels;
    coarsen_options.order = MatchOrder::kLegacyShuffle;
    stack = build_level_stack(
        finest, coarsen_options, &rng,
        [&sink](int level, const PartitionProblem& coarse) {
          if (sink.enabled()) {
            sink.level({level, coarse.num_gates,
                        static_cast<long long>(coarse.edges.size())});
          }
        },
        options.fixed);
  }
  const PartitionProblem& coarsest = stack.coarsest(finest);

  // Restrict the warm start down the stack: a coarse vertex inherits the
  // first (lowest fine index) assigned label among its children. No Rng
  // draw, so the legacy shuffle sequence above is untouched.
  std::vector<int> warm_restricted;
  const std::vector<int>* coarse_warm = options.warm;
  if (options.warm != nullptr) {
    warm_restricted = *options.warm;
    for (const CoarseLevel& level : stack.levels) {
      std::vector<int> next(static_cast<std::size_t>(level.problem.num_gates),
                            kUnassignedPlane);
      for (std::size_t f = 0; f < level.parent_of_fine.size(); ++f) {
        const int label = warm_restricted[f];
        const auto parent = static_cast<std::size_t>(level.parent_of_fine[f]);
        if (label != kUnassignedPlane && next[parent] == kUnassignedPlane) {
          next[parent] = label;
        }
      }
      warm_restricted = std::move(next);
    }
    coarse_warm = &warm_restricted;
  }

  MultilevelResult result;
  result.levels = stack.num_levels();
  result.coarse_gates = coarsest.num_gates;

  // Solve the coarsest problem with the paper's optimizer. The coarse
  // Solver inherits the observer, so its event stream (run lifecycle,
  // iterations, ...) lands in the same report/trace; RunReport keeps the
  // outermost run_start and the final run_end when engines nest.
  SolverConfig coarse_options = options.coarse;
  coarse_options.num_planes = num_planes;
  std::vector<int> labels;
  {
    obs::ScopedTimer timer(&sink, "coarse_solve");
    SolverConfig coarse_config = coarse_options;
    coarse_config.threads = options.threads;
    coarse_config.observer = options.observer;
    coarse_config.fixed_labels = stack.coarsest_fixed(options.fixed);
    coarse_config.warm_labels = coarse_warm;
    // The asserts in StatusOr::value mirror the old solve_labels contract:
    // the inputs were validated above, so failure here is a programmer bug.
    labels = Solver(coarse_config).solve(coarsest).value().labels;
  }

  // Uncoarsen: project each coarse label onto its merged fine vertices,
  // then polish with greedy refinement at the finer level.
  {
    obs::ScopedTimer timer(&sink, "uncoarsen");
    for (std::size_t i = stack.levels.size(); i-- > 0;) {
      const std::vector<int>* fine_fixed =
          i == 0 ? options.fixed
                 : (stack.levels[i - 1].fixed.empty()
                        ? nullptr
                        : &stack.levels[i - 1].fixed);
      std::vector<int> fine_labels = stack.levels[i].project(labels);
      const CostModel model(stack.view(static_cast<int>(i)),
                            coarse_options.weights);
      refine_partition(model, fine_labels, rng, options.refine, &sink, -1,
                       fine_fixed);
      labels = std::move(fine_labels);
    }
  }

  result.partition = finest.to_partition(labels, netlist.num_gates());
  const CostModel model(stack.view(0), coarse_options.weights);
  result.discrete_total =
      model.evaluate_discrete(labels).total(coarse_options.weights);
  if (sink.enabled()) {
    // Last run_end wins in RunReport: the final projected cost replaces
    // the coarse Solver's summary. winning_restart -1 = "not applicable".
    sink.run_end({-1, result.discrete_total, 0, true});
  }
  return result;
}

}  // namespace sfqpart
