#include "core/optimizer.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/soft_assign.h"
#include "obs/trace_sink.h"

namespace sfqpart {
namespace {

// Accumulates per-stage wall time across the descent and emits one
// "gradient" and one "step" TimerEvent when the loop finishes (whichever
// return path it takes). Disabled sinks cost a branch and never read a
// clock, matching the TraceSink overhead contract. Since the loop fusion
// (DESIGN.md section 15) the "step" bucket covers step_and_aggregate —
// the descent update plus the NEXT iteration's aggregate front end, which
// ride the same pass over W.
class StageTimers {
 public:
  StageTimers(obs::TraceSink* sink, int restart)
      : sink_(sink != nullptr && sink->enabled() ? sink : nullptr),
        restart_(restart) {}

  StageTimers(const StageTimers&) = delete;
  StageTimers& operator=(const StageTimers&) = delete;

  ~StageTimers() {
    if (sink_ == nullptr) return;
    sink_->timer({"gradient", restart_, gradient_ms_});
    sink_->timer({"step", restart_, step_ms_});
  }

  bool enabled() const { return sink_ != nullptr; }
  void start() {
    if (sink_ != nullptr) mark_ = std::chrono::steady_clock::now();
  }
  void stop(double& bucket_ms) {
    if (sink_ == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    bucket_ms += std::chrono::duration<double, std::milli>(now - mark_).count();
  }
  double& gradient_ms() { return gradient_ms_; }
  double& step_ms() { return step_ms_; }

 private:
  obs::TraceSink* sink_;
  int restart_;
  double gradient_ms_ = 0.0;
  double step_ms_ = 0.0;
  std::chrono::steady_clock::time_point mark_;
};

}  // namespace

OptimizerResult run_gradient_descent(const CostModel& model, Matrix w0,
                                     const OptimizerOptions& options) {
  OptimizerResult result;
  result.w = std::move(w0);
  Matrix grad;
  // One workspace for the whole descent: after the first iteration the
  // loop performs no allocations (the workspace buffers and `grad` keep
  // their capacity across iterations).
  CostModel::Workspace workspace;
  StageTimers timers(options.sink, options.observer_restart);

  // True once step_and_aggregate has run for the current W: the stepped
  // rows were aggregated in the same pass, so the gradient evaluation can
  // skip its aggregate front end. The fused pair is bit-identical to the
  // unfused step + evaluate_with_gradient it replaced — same expressions,
  // same chunk orders, just one read of W instead of two.
  bool aggregated = false;

  double cost_old = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    timers.start();
    result.final_terms =
        aggregated
            ? model.evaluate_with_gradient_aggregated(result.w, grad, workspace)
            : model.evaluate_with_gradient(result.w, grad, workspace);
    timers.stop(timers.gradient_ms());
    const double cost_new = result.final_terms.total(model.weights());
    if (options.record_trace) result.cost_trace.push_back(cost_new);
    if (options.on_iteration) {
      options.on_iteration(iter, result.final_terms, cost_new);
    }

    // Stop on relative cost change (Algorithm 1 line 14). cost_old is
    // +inf on the first iteration, so the loop always takes a step first.
    if (std::isfinite(cost_old)) {
      const double denominator = std::abs(cost_old) > 1e-300 ? cost_old : 1e-300;
      if (std::abs(cost_new / denominator - 1.0) <= options.margin) {
        result.converged = true;
        result.iterations = iter;
        return result;
      }
    }

    timers.start();
    double scale = options.learning_rate;
    if (options.normalize_step) {
      // The gradient fill folded max |grad| as it wrote grad.
      const double max_abs = workspace.grad_max_abs();
      if (max_abs <= 0.0) {  // exactly at a stationary point
        result.converged = true;
        result.iterations = iter;
        return result;
      }
      scale /= max_abs;
    }

    model.step_and_aggregate(result.w, grad, scale, workspace);
    aggregated = true;
    timers.stop(timers.step_ms());
    cost_old = cost_new;
    result.iterations = iter + 1;
  }
  // Max iterations reached: refresh terms for the final W (a fresh
  // aggregate with the F4 partials, whatever state the loop left).
  result.final_terms = model.evaluate(result.w, workspace);
  if (options.record_trace) {
    result.cost_trace.push_back(result.final_terms.total(model.weights()));
  }
  return result;
}

}  // namespace sfqpart
