#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/soft_assign.h"
#include "obs/trace_sink.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

// API-boundary validation: everything the old free functions guarded with
// asserts (which vanish in release builds) becomes a reportable Status.
Status validate(const SolverConfig& config, const PartitionProblem& problem) {
  if (problem.num_planes < 2) {
    return Status::error(str_format(
        "Solver: num_planes must be >= 2 (got %d)", problem.num_planes));
  }
  if (problem.num_gates < 1) {
    return Status::error("Solver: the problem has no partitionable gates");
  }
  if (!problem.edge_weights.empty() &&
      problem.edge_weights.size() != problem.edges.size()) {
    return Status::error(str_format(
        "Solver: edge_weights holds %zu weights for %zu edges",
        problem.edge_weights.size(), problem.edges.size()));
  }
  for (const int weight : problem.edge_weights) {
    if (weight < 1) {
      return Status::error(str_format(
          "Solver: edge weights must be >= 1 (got %d)", weight));
    }
  }
  if (config.restarts < 1) {
    return Status::error(
        str_format("Solver: restarts must be >= 1 (got %d)", config.restarts));
  }
  if (config.threads < 0) {
    return Status::error(
        str_format("Solver: threads must be >= 0 (got %d)", config.threads));
  }
  if (config.weights.distance_exponent < 1) {
    return Status::error(str_format(
        "Solver: distance_exponent must be >= 1 (got %d)",
        config.weights.distance_exponent));
  }
  // Non-finite knobs would sail through the sign checks below (inf > 0 is
  // true) and silently poison every cost; reject them here. parse_double
  // accepts "inf"/"nan" spellings, so config files can produce these.
  const struct { const char* name; double value; } finite_knobs[] = {
      {"weights.c1", config.weights.c1},
      {"weights.c2", config.weights.c2},
      {"weights.c3", config.weights.c3},
      {"weights.c4", config.weights.c4},
      {"optimizer.learning_rate", config.optimizer.learning_rate},
      {"optimizer.margin", config.optimizer.margin},
  };
  for (const auto& knob : finite_knobs) {
    if (!std::isfinite(knob.value)) {
      return Status::error(str_format("Solver: %s must be finite (got %g)",
                                      knob.name, knob.value));
    }
  }
  if (config.optimizer.max_iterations < 1) {
    return Status::error(
        str_format("Solver: optimizer.max_iterations must be >= 1 (got %d)",
                   config.optimizer.max_iterations));
  }
  if (!(config.optimizer.learning_rate > 0.0)) {
    return Status::error(
        str_format("Solver: optimizer.learning_rate must be > 0 (got %g)",
                   config.optimizer.learning_rate));
  }
  if (!(config.optimizer.margin >= 0.0)) {
    return Status::error(str_format(
        "Solver: optimizer.margin must be >= 0 (got %g)",
        config.optimizer.margin));
  }
  return Status::ok();
}

// One restart's complete outcome; kept per restart so the deterministic
// selection below is independent of completion order.
struct RestartOutcome {
  std::vector<int> labels;
  CostTerms soft_terms;
  CostTerms discrete_terms;
  double discrete_total = 0.0;
  int iterations = 0;
  bool converged = false;
};

}  // namespace

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  if (config_.threads >= 0 && effective_threads() > 1) {
    pool_ = std::make_unique<ThreadPool>(effective_threads());
  }
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

int Solver::effective_threads() const {
  if (config_.threads == 0) return ThreadPool::hardware_concurrency();
  return std::max(1, config_.threads);
}

StatusOr<LabelResult> Solver::solve(const PartitionProblem& problem) const {
  if (Status status = validate(config_, problem); !status) return status;
  return solve_view(ProblemView(problem));
}

LabelResult Solver::solve_view(const ProblemView& view) const {
  const PartitionProblem& problem = view.problem();
  CostModel model(view, config_.weights, config_.gradient_style);
  model.set_thread_pool(pool_.get());

  obs::TraceSink sink(config_.observer);

  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = "solver";
    info.num_planes = problem.num_planes;
    info.restarts = config_.restarts;
    info.threads = effective_threads();
    info.seed = config_.seed;
    info.refine = config_.refine;
    info.weights = config_.weights;
    info.gradient_style = config_.gradient_style;
    info.learning_rate = config_.optimizer.learning_rate;
    info.max_iterations = config_.optimizer.max_iterations;
    info.margin = config_.optimizer.margin;
    info.normalize_step = config_.optimizer.normalize_step;
    info.problem_gates = problem.num_gates;
    info.problem_edges = static_cast<long long>(problem.edges.size());
    sink.run_start(info);
  }
  obs::ScopedTimer run_timer(&sink, "run");

  // Pre-split one stream per restart: restart r always consumes the r-th
  // split() of the root Rng, exactly as the old serial loop did, so its
  // stream depends only on (seed, r) — never on scheduling.
  Rng root(config_.seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(config_.restarts));
  for (int r = 0; r < config_.restarts; ++r) streams.push_back(root.split());

  const auto restarts = static_cast<std::size_t>(config_.restarts);
  std::vector<RestartOutcome> outcomes(restarts);

  // Grain 1: chunk index == restart index. Restarts fan out as one
  // parallel region; the cost-model reductions inside each restart then
  // run inline on that worker (nested parallel_chunks detects the worker
  // flag and never re-enters the executor). The cost hint marks each
  // restart as a full optimizer run — far beyond the serial cutoff — so
  // even a two-restart solve on a tiny circuit still fans out.
  // Observation never perturbs the result: every emission is outside the
  // seeded RNG streams and the fixed-order reductions, so labels and
  // costs are bit-identical with or without an observer attached.
  constexpr double kRestartCostNs = 1e9;  // whole gradient-descent runs
  parallel_chunks(pool_.get(), restarts, 1,
                  [&](std::size_t r, std::size_t, std::size_t) {
    const int restart = static_cast<int>(r);
    sink.restart_start({restart});
    Rng rng = streams[r];
    Matrix w0 = random_soft_assignment(problem.num_gates, problem.num_planes,
                                       rng);
    if (config_.warm_labels != nullptr && restart == 0) {
      // Warm seed on restart 0 only (after the random draw, so the RNG
      // stream — and with it every other restart — is untouched): assigned
      // labels become exact one-hot rows the descent then improves from.
      const std::vector<int>& warm = *config_.warm_labels;
      for (std::size_t i = 0; i < warm.size(); ++i) {
        if (warm[i] < 0) continue;
        auto row = w0.row(i);
        for (double& value : row) value = 0.0;
        row[static_cast<std::size_t>(warm[i])] = 1.0;
      }
    }
    if (config_.fixed_labels != nullptr) {
      // Pinned gates start as exact one-hot rows; the descent may still
      // drift them, so the hardened labels are re-clamped below.
      const std::vector<int>& fixed = *config_.fixed_labels;
      for (std::size_t i = 0; i < fixed.size(); ++i) {
        if (fixed[i] < 0) continue;
        auto row = w0.row(i);
        for (double& value : row) value = 0.0;
        row[static_cast<std::size_t>(fixed[i])] = 1.0;
      }
    }
    OptimizerOptions optimizer = config_.optimizer;
    if (sink.enabled()) {
      optimizer.on_iteration = [&sink, restart](int iteration,
                                                const CostTerms& terms,
                                                double cost) {
        sink.iteration({restart, iteration, terms, cost});
      };
      // Gradient/step stage breakdown of the "optimize" timer below.
      optimizer.sink = &sink;
      optimizer.observer_restart = restart;
    }
    RestartOutcome& out = outcomes[r];
    OptimizerResult opt;
    {
      obs::ScopedTimer timer(&sink, "optimize", restart);
      opt = run_gradient_descent(model, std::move(w0), optimizer);
    }
    {
      obs::ScopedTimer timer(&sink, "harden", restart);
      out.labels = harden(opt.w);
    }
    if (config_.fixed_labels != nullptr) {
      const std::vector<int>& fixed = *config_.fixed_labels;
      for (std::size_t i = 0; i < fixed.size(); ++i) {
        if (fixed[i] >= 0) out.labels[i] = fixed[i];
      }
    }
    if (sink.enabled()) {
      // The hardened-but-unrefined cost is observer-only extra work; the
      // evaluation mutates nothing, preserving bit-identity.
      sink.harden({restart,
                   model.evaluate_discrete(out.labels).total(config_.weights)});
    }
    if (config_.refine) {
      obs::ScopedTimer timer(&sink, "refine", restart);
      MoveEvaluator eval(model, std::move(out.labels));
      refine_partition(eval, rng, config_.refine_options, config_.fixed_labels,
                       &sink, restart);
      out.labels = eval.labels();
    }
    out.soft_terms = opt.final_terms;
    out.discrete_terms = model.evaluate_discrete(out.labels);
    out.discrete_total = out.discrete_terms.total(config_.weights);
    out.iterations = opt.iterations;
    out.converged = opt.converged;
    if (sink.enabled()) {
      sink.counter("optimizer_iterations", opt.iterations);
      sink.restart_end({restart, out.soft_terms, out.discrete_terms,
                        out.discrete_total, out.iterations, out.converged});
    }
  }, kRestartCostNs);

  // Deterministic selection: strict < keeps the lowest restart index on
  // discrete-cost ties, matching the serial engine regardless of which
  // restart finished first.
  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (outcomes[r].discrete_total < outcomes[best].discrete_total) best = r;
  }

  LabelResult result;
  result.labels = std::move(outcomes[best].labels);
  result.soft_terms = outcomes[best].soft_terms;
  result.discrete_terms = outcomes[best].discrete_terms;
  result.discrete_total = outcomes[best].discrete_total;
  result.iterations = outcomes[best].iterations;
  result.winning_restart = static_cast<int>(best);
  result.converged = outcomes[best].converged;
  if (sink.enabled()) {
    sink.run_end({result.winning_restart, result.discrete_total,
                  result.iterations, result.converged});
  }
  return result;
}

StatusOr<SolverResult> Solver::run(const ProblemView& view,
                                   int netlist_num_gates) const {
  if (Status status = validate(config_, view.problem()); !status) {
    return status;
  }
  LabelResult solved = solve_view(view);
  SolverResult result;
  result.partition =
      view.problem().to_partition(solved.labels, netlist_num_gates);
  result.soft_terms = solved.soft_terms;
  result.discrete_terms = solved.discrete_terms;
  result.discrete_total = solved.discrete_total;
  result.iterations = solved.iterations;
  result.winning_restart = solved.winning_restart;
  result.converged = solved.converged;
  return result;
}

StatusOr<SolverResult> Solver::run(const Netlist& netlist) const {
  if (config_.num_planes < 2) {
    return Status::error(str_format(
        "Solver: num_planes must be >= 2 (got %d)", config_.num_planes));
  }
  const PartitionProblem problem =
      PartitionProblem::from_netlist(netlist, config_.num_planes);
  return run(ProblemView(problem), netlist.num_gates());
}

}  // namespace sfqpart
