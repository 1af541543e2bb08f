#include "core/vcycle.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/coarsen.h"
#include "core/move_eval.h"
#include "core/problem_view.h"
#include "obs/trace_sink.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Matches refine.cpp's strict-improvement threshold: a move must beat
// this to be proposed or committed, so zero-delta oscillation is
// impossible and the per-level cost is strictly non-increasing.
constexpr double kImprovementThreshold = -1e-12;

// Proposal grain: coarse levels collapse to one chunk (inline), only the
// 10^5+-gate levels actually fan out.
constexpr std::size_t kProposalGrain = 2048;
// Rough ns per gate of a proposal: a walk of the gate's CSR neighbor
// range when its cached F1 partials are stale, plus O(1) F2/F3 terms per
// in-band target.
constexpr double kProposalItemCost = 60.0;

// One parallel proposal sweep: for every gate, the best strictly
// improving move within the gain band, evaluated against the frozen
// pass-start labels and plane totals. A stale gate first refills its F1
// cache row with one neighbor walk; every gate then adds the O(1) F2/F3
// terms to its cached partials. The evaluator is only read, and a chunk
// writes only its own gates' proposal, cache row and stale byte, so the
// sweep is bit-identical at any thread count.
struct ProposalKernel {
  const MoveEvaluator* eval;
  const int* labels;
  const int* fixed;  // per-gate fixed plane (-1 = free); null when none
  std::int32_t* proposal;
  double* f1_cache;  // `slots` F1 partials per gate
  std::uint8_t* stale;
  int slots;
  int band;
  int num_planes;

  void operator()(std::size_t, std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      const int gate = static_cast<int>(i);
      if (fixed != nullptr && fixed[i] >= 0) {
        proposal[i] = -1;
        continue;
      }
      double* f1 = f1_cache + i * static_cast<std::size_t>(slots);
      if (stale[i] != 0) {
        eval->f1_deltas(gate, band, f1);
        stale[i] = 0;
      }
      const int source = labels[i];
      const TargetBand targets = target_band(source, band, num_planes);
      int best = -1;
      double best_delta = kImprovementThreshold;
      for (int target = targets.first, j = 0; target <= targets.last;
           ++target) {
        if (target == source) continue;
        const double delta = eval->delta_from_f1(gate, target, f1[j++]);
        if (delta < best_delta) {
          best_delta = delta;
          best = target;
        }
      }
      proposal[i] = best;
    }
  }
};

// Propose in parallel, commit serially in ascending gate order; returns
// the committed move count. The commit re-evaluates each proposal against
// the labels as they evolve within the pass, applying only the
// still-improving ones — proposals invalidated by an earlier commit are
// simply skipped, and the applied delta sequence (hence the final labels)
// never depends on how the proposal sweep was chunked across threads.
//
// Gain cache (DESIGN.md section 12.3): each gate keeps the F1 partials of
// its in-band targets. A commit marks the moved gate and its neighbors
// stale — the only gates whose F1 partials it changes — and only stale
// gates walk their neighbors again. A clean gate's cached partial equals
// a fresh walk bit for bit (same labels, same accumulation order), so the
// commit re-checks a clean gate's proposal from the cache and falls back
// to delta() once the gate or a neighbor has moved in this pass.
long long banded_refine(MoveEvaluator& eval, int band,
                        const RefineOptions& options, ThreadPool* pool,
                        const std::vector<int>* fixed) {
  if (band < 1) return 0;  // no in-band target
  const int n = eval.num_gates();
  const int k = eval.num_planes();
  // A gate has at most 2 * band in-band targets, and at most K - 1.
  const int slots = std::min(2 * std::min(band, k), k - 1);
  std::vector<std::int32_t> proposal(static_cast<std::size_t>(n));
  std::vector<double> f1_cache(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(slots));
  std::vector<std::uint8_t> stale(static_cast<std::size_t>(n), 1);
  const ProposalKernel kernel{&eval,
                              eval.labels().data(),
                              fixed != nullptr ? fixed->data() : nullptr,
                              proposal.data(),
                              f1_cache.data(),
                              stale.data(),
                              slots,
                              band,
                              k};
  // The cached F1 partial of a clean gate's move to `target`.
  const auto cached_f1 = [&](int gate, int target) {
    const int source = eval.label(gate);
    const auto slot = static_cast<std::size_t>(
        target_band(source, band, k).slot(source, target));
    return f1_cache[static_cast<std::size_t>(gate) *
                        static_cast<std::size_t>(slots) +
                    slot];
  };
  long long total_moves = 0;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    parallel_chunks(pool, static_cast<std::size_t>(n), kProposalGrain, kernel,
                    kProposalItemCost);
    int moves = 0;
    for (int gate = 0; gate < n; ++gate) {
      const auto ug = static_cast<std::size_t>(gate);
      const int target = proposal[ug];
      if (target < 0) continue;
      const double delta =
          stale[ug] != 0
              ? eval.delta(gate, target)
              : eval.delta_from_f1(gate, target, cached_f1(gate, target));
      if (delta < kImprovementThreshold) {
        eval.apply(gate, target);
        ++moves;
        stale[ug] = 1;
        const auto [begin, end] = eval.neighbors(gate);
        for (const std::int32_t* it = begin; it != end; ++it) {
          stale[static_cast<std::size_t>(*it)] = 1;
        }
      }
    }
    total_moves += moves;
    if (moves < options.min_moves_per_pass) break;
  }
  return total_moves;
}

}  // namespace

VcycleResult vcycle_partition(const Netlist& netlist, int num_planes,
                              const VcycleOptions& options) {
  const PartitionProblem problem =
      PartitionProblem::from_netlist(netlist, num_planes);
  return vcycle_partition(ProblemView(problem), netlist.num_gates(), options);
}

VcycleResult vcycle_partition(const ProblemView& finest_view,
                              int netlist_num_gates,
                              const VcycleOptions& options) {
  const PartitionProblem& finest = finest_view.problem();
  const int num_planes = finest.num_planes;
  assert(num_planes >= 2);
  obs::TraceSink sink(options.observer);

  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = "vcycle";
    info.num_planes = num_planes;
    info.restarts = options.coarse.restarts;
    info.seed = options.seed;
    info.refine = true;  // refinement always runs on uncoarsen
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

  // Coarsen in the pinned degree-sorted order: level shape is a pure
  // function of the graph — no Rng draw, no dependence on thread count.
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
    Clock::time_point level_start = Clock::now();
    stack = build_level_stack(
        finest_view, coarsen_options,
        [&sink, &level_start](int level, const PartitionProblem& coarse) {
          const double elapsed = ms_since(level_start);
          level_start = Clock::now();
          if (sink.enabled()) {
            obs::LevelEvent event;
            event.level = level;
            event.num_vertices = coarse.num_gates;
            event.num_edges = static_cast<long long>(coarse.edges.size());
            event.coarsen_ms = elapsed;
            sink.level(event);
          }
        },
        options.fixed);
  }
  const PartitionProblem& coarsest = stack.coarsest(finest);

  // Restrict the warm start down the stack: a coarse vertex inherits the
  // first (lowest fine index) assigned label among its children. The
  // restriction is deterministic and Rng-free, like the coarsening order.
  std::vector<int> warm_restricted;
  const std::vector<int>* coarse_warm = options.warm;
  if (options.warm != nullptr) {
    warm_restricted = *options.warm;
    for (const CoarseLevel& level : stack.levels) {
      std::vector<int> next(static_cast<std::size_t>(level.problem.num_gates),
                            kUnassignedPlane);
      for (std::size_t f = 0; f < level.parent_of_fine.size(); ++f) {
        const int label = warm_restricted[f];
        const auto parent =
            static_cast<std::size_t>(level.parent_of_fine[f]);
        if (label != kUnassignedPlane && next[parent] == kUnassignedPlane) {
          next[parent] = label;
        }
      }
      warm_restricted = std::move(next);
    }
    coarse_warm = &warm_restricted;
  }

  VcycleResult result;
  result.levels = stack.num_levels();
  result.coarse_gates = coarsest.num_gates;

  // The paper's descent runs only here, where G*K is small. The coarse
  // Solver inherits the observer (its event stream lands in the same
  // report/trace) and the driver seed/threads.
  std::vector<int> labels;
  {
    obs::ScopedTimer timer(&sink, "coarse_solve");
    SolverConfig coarse_config = options.coarse;
    coarse_config.num_planes = num_planes;
    coarse_config.seed = options.seed;
    coarse_config.threads = options.threads;
    coarse_config.observer = options.observer;
    coarse_config.fixed_labels = stack.coarsest_fixed(options.fixed);
    coarse_config.warm_labels = coarse_warm;
    // Inputs were validated by the engine adapter; failure here is a
    // programmer bug.
    labels = Solver(coarse_config).solve(coarsest).value().labels;
  }

  // Uncoarsen: project, then refine per level. The pool is shared by the
  // banded proposal sweeps and the cost-model reductions; per the
  // executor's determinism contract it changes wall-clock only.
  const int threads = options.threads == 0 ? ThreadPool::hardware_concurrency()
                                           : std::max(1, options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  // The greedy refiner's gate order: one stream across all levels, seeded
  // like the coarse solve. The other refiners draw nothing.
  std::optional<Rng> greedy_rng;
  if (options.refine_style == VcycleRefineStyle::kGreedy) {
    greedy_rng.emplace(options.seed);
  }
  {
    obs::ScopedTimer timer(&sink, "uncoarsen");
    // Uncoarsening never returns to a coarser level: the loop's step pops
    // each level once its iteration (and the model reading its view) is
    // done, so level i refines without the coarser levels' memory.
    for (std::size_t i = stack.levels.size(); i-- > 0; stack.pop_level()) {
      const Clock::time_point level_start = Clock::now();
      // The level's view was built once, while coarsening; the cost
      // model and the move evaluator read it again here.
      const ProblemView& view = stack.view(static_cast<int>(i));
      const PartitionProblem& fine = view.problem();
      const std::vector<int>* fine_fixed =
          i == 0 ? options.fixed
                 : (stack.levels[i - 1].fixed.empty()
                        ? nullptr
                        : &stack.levels[i - 1].fixed);
      std::vector<int> fine_labels = stack.levels[i].project(labels);
      CostModel model(view, options.coarse.weights,
                      options.coarse.gradient_style);
      model.set_thread_pool(pool.get());
      MoveEvaluator eval(model, std::move(fine_labels));
      // Level scoring feeds only the LevelEvent, so it is paid only when
      // traced (DESIGN.md section 8.3); the finest level's score is the
      // result's discrete_total either way.
      const double projected_cost = sink.enabled() ? eval.current_cost() : 0.0;
      long long moves = 0;
      switch (options.refine_style) {
        case VcycleRefineStyle::kBanded:
          moves = banded_refine(eval, options.band, options.refine, pool.get(),
                                fine_fixed);
          break;
        case VcycleRefineStyle::kBuckets:
          moves =
              bucket_refine(eval, options.band, options.refine, fine_fixed)
                  .moves;
          break;
        case VcycleRefineStyle::kGreedy:
          moves = refine_partition(eval, *greedy_rng, options.refine,
                                   fine_fixed)
                      .moves;
          break;
      }
      result.refine_moves += moves;
      labels = eval.labels();

      // Re-score the labels rather than summing the committed deltas onto
      // the projected cost: the sum drifts from a fresh evaluation in
      // floating point. Unmoved labels keep their projected score.
      double refined_cost = 0.0;
      if (sink.enabled() || i == 0) {
        refined_cost = sink.enabled() && moves == 0 ? projected_cost
                                                    : eval.current_cost();
      }
      if (i == 0) result.discrete_total = refined_cost;
      if (sink.enabled()) {
        obs::LevelEvent event;
        event.level = static_cast<int>(i);
        event.num_vertices = fine.num_gates;
        event.num_edges = static_cast<long long>(fine.edges.size());
        event.refine_ms = ms_since(level_start);
        event.projected_cost = projected_cost;
        event.refined_cost = refined_cost;
        event.refine_moves = static_cast<int>(moves);
        sink.level(event);
      }
    }
  }

  result.partition = finest.to_partition(labels, netlist_num_gates);
  if (result.levels == 0) {
    // No uncoarsening level scored the finest labels.
    CostModel model(finest_view, options.coarse.weights);
    model.set_thread_pool(pool.get());
    result.discrete_total =
        model.evaluate_discrete(labels).total(options.coarse.weights);
  }
  if (sink.enabled()) {
    sink.run_end({-1, result.discrete_total, 0, true});
  }
  return result;
}

}  // namespace sfqpart
