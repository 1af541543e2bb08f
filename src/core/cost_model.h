// The paper's cost function F = c1*F1 + c2*F2 + c3*F3 + c4*F4 and its
// gradients (equations 4-10).
//
//  F1: interconnect distance cost   sum w_e |l_i1 - l_i2|^4 / N1
//  F2: bias-current variance        sum (B_k - Bbar)^2 / (K*N2)
//  F3: block-area variance          sum (A_k - Abar)^2 / (K*N3)
//  F4: relaxed one-hot constraint (Lagrangian of equation 7)
//
// Two gradient styles are provided: kAnalytic (the exact derivatives,
// validated against finite differences) and kPaperEq10 (the expressions
// exactly as printed in equation 10 of the paper; see DESIGN.md section 1
// for where they differ).
//
// The F1 gradient is accumulated by a per-gate *gather* over a CSR-style
// incidence adjacency cached at construction (DESIGN.md section 9): one
// parallel edge pass computes the F1 term and both signed per-endpoint
// contributions of every edge (one power chain per edge, shared with the
// term), then a single fused pass over W sums each gate's precomputed
// slots, the F4 term, and the gradient fill. Each gate's slots sit in
// ascending edge order — the exact per-accumulator addition sequence of
// the historical per-edge scatter — so the gather is bit-identical to
// the scatter at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/partition.h"
#include "core/problem_view.h"
#include "core/simd/kernels.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace sfqpart {

struct CostWeights {
  double c1 = 1.0;   // interconnections
  double c2 = 0.35;  // bias-current balance
  double c3 = 0.35;  // area balance
  double c4 = 1.0;   // one-hot constraint

  // Exponent of the distance term (the paper uses 4, "to model the sharp
  // increment of a connection cost with the increase in distance").
  // Exposed for the A1 ablation bench. Must be >= 1; the Solver facade
  // rejects smaller values with a Status, CostModel asserts.
  int distance_exponent = 4;
};

enum class GradientStyle {
  kAnalytic,
  kPaperEq10,
};

// Implementation of the F1 gradient accumulation. Both engines produce
// bit-identical terms and gradients (tests/core/parallel_determinism_test
// proves it); kSerialScatter is the pre-CSR reference, kept so the
// gradient bench and regression tests can A/B the hot path.
enum class GradientEngine {
  kCsrGather,      // default: parallel per-gate gather over the cached CSR
  kSerialScatter,  // reference: serial per-edge scatter, separate passes
};

struct CostTerms {
  double f1 = 0.0;
  double f2 = 0.0;
  double f3 = 0.0;
  double f4 = 0.0;

  double total(const CostWeights& w) const {
    return w.c1 * f1 + w.c2 * f2 + w.c3 * f3 + w.c4 * f4;
  }
};

class CostModel {
 private:
  struct Aggregates {
    std::vector<double> labels;      // l_i (soft), size G
    std::vector<double> plane_bias;  // B_k, size K
    std::vector<double> plane_area;  // A_k, size K
    std::vector<double> row_mean;    // wbar_i, size G
    double mean_bias = 0.0;          // Bbar
    double mean_area = 0.0;          // Abar
  };

 public:
  // Reusable scratch for evaluate / evaluate_with_gradient. Hoisting it out
  // of the per-iteration calls makes the optimizer loop allocation-free
  // after the first iteration. A Workspace belongs to one caller at a time
  // (the CostModel itself stays immutable and shareable across threads);
  // each concurrent restart owns its own.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class CostModel;
    Aggregates agg;
    // Per-chunk partials live in cacheline-padded slabs (util/thread_pool.h
    // ChunkSlab) so concurrent chunks never false-share a line; the combine
    // loops still read them in ascending chunk order, so the padding is
    // invisible to the math. The per-plane rows are sized by the padded
    // Matrix stride (util/matrix.h), not K, so the vector kernels can
    // store whole registers into them.
    ChunkSlab bias_area_partial;  // per-chunk [B_k..; A_k..], 2*stride wide
    ChunkSlab f1_partial;         // per-edge-chunk F1 partials, 1 wide
    ChunkSlab f4_partial;         // per-gate-chunk F4 partials, 1 wide
    std::vector<double> plane_diff;  // 2*stride: [B_k - Bbar..; A_k - Abar..]
    std::vector<double> slot_grad;   // per-slot signed dF1/dl terms, 2|E|
    std::vector<double> dlabel;      // dF/dl_i (kSerialScatter only)
    // True when agg (and f4_partial) describe the W last aggregated, with
    // the F4 partials riding along — the precondition of the *_aggregated
    // entry points.
    bool agg_has_f4 = false;
  };

  CostModel(const PartitionProblem& problem, const CostWeights& weights,
            GradientStyle style = GradientStyle::kAnalytic);
  // Shares a prebuilt ProblemView instead of deriving a private one — the
  // V-cycle builds one view per level and hands it to the cost model, the
  // move evaluator and the coarsener alike. The view (and its problem)
  // must outlive the model.
  CostModel(const ProblemView& view, const CostWeights& weights,
            GradientStyle style = GradientStyle::kAnalytic);

  const PartitionProblem& problem() const { return view_->problem(); }
  const ProblemView& view() const { return *view_; }
  const CostWeights& weights() const { return weights_; }
  GradientStyle gradient_style() const { return style_; }

  // Optional worker pool for the hot reductions (the F1 edge sum, the
  // per-plane B/A accumulations, and the fused gather/F4/fill pass). The
  // summation *order* is fixed by the chunking of util/thread_pool.h and
  // never by the pool, so attaching a pool changes wall-clock only: every
  // result is bit-identical with 0, 1 or N threads. Null (the default)
  // runs the same chunk order inline.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  // Selects the F1 gradient accumulation path; kCsrGather unless a bench
  // or test explicitly requests the serial reference.
  void set_gradient_engine(GradientEngine engine) { engine_ = engine; }
  GradientEngine gradient_engine() const { return engine_; }

  // Opt-in reassociated vector reductions (the `fast_math` engine option).
  // Off (the default) keeps every path bit-identical to the scalar kernel
  // tier; on trades that pin for lane-parallel accumulation in the edge
  // and fused passes, within the tolerance the A/B test enforces. No-op
  // on the scalar tier, which has no fast variants.
  void set_fast_math(bool on) { fast_math_ = on; }
  bool fast_math() const { return fast_math_; }

  // Normalization constants (for incremental delta evaluation in refine).
  double n1() const { return n1_; }
  double n2() const { return n2_; }
  double n3() const { return n3_; }
  double n4() const { return n4_; }

  // Cost of a soft assignment W (G x K). The Workspace overloads reuse the
  // caller's scratch; the plain overloads allocate a transient one.
  CostTerms evaluate(const Matrix& w) const;
  CostTerms evaluate(const Matrix& w, Workspace& workspace) const;

  // Cost and the gradient of the *weighted* total; `grad` is resized and
  // overwritten.
  CostTerms evaluate_with_gradient(const Matrix& w, Matrix& grad) const;
  CostTerms evaluate_with_gradient(const Matrix& w, Matrix& grad,
                                   Workspace& workspace) const;

  // Optimizer loop fusion (DESIGN.md section 15): step_and_aggregate
  // applies w = clamp01(w - scale * grad) and aggregates the stepped
  // rows in the same pass — the write of iteration t and the read of
  // iteration t+1 touch W once. evaluate_with_gradient_aggregated then
  // skips the aggregate front end, trusting the workspace to hold this
  // exact W's aggregates. The pair is bit-identical to calling the
  // unfused step + evaluate_with_gradient.
  void step_and_aggregate(Matrix& w, const Matrix& grad, double scale,
                          Workspace& workspace) const;
  CostTerms evaluate_with_gradient_aggregated(const Matrix& w, Matrix& grad,
                                              Workspace& workspace) const;

  // Cost of a hard assignment (labels are 0-based planes). F4 of a one-hot
  // assignment is the constant -(K-1)/(K^2 (K-1)^2) * G/N4-normalized value;
  // it is reported for completeness but does not rank assignments.
  CostTerms evaluate_discrete(const std::vector<int>& labels) const;

 private:
  // Aggregates W (labels, row means, plane sums); with_f4 also folds the
  // F4 constraint partials into the same read of W.
  void aggregate(const Matrix& w, Workspace& ws, bool with_f4) const;
  void combine_plane_sums(Workspace& ws, std::size_t chunks,
                          std::size_t stride) const;
  double f1_term(const Aggregates& agg, Workspace& ws) const;
  double f1_and_slot_grad(const Aggregates& agg, Workspace& ws) const;
  void f2_f3_terms(const Aggregates& agg, CostTerms& terms) const;
  // Terms from a workspace aggregated with with_f4 == true.
  CostTerms terms_from_aggregated(Workspace& ws) const;
  // The per-engine gradient back end; requires aggregate() ran for w.
  CostTerms gradient_terms(const Matrix& w, Matrix& grad,
                           Workspace& ws) const;
  void fused_gradient_pass(const Matrix& w, Matrix& grad, Workspace& ws,
                           CostTerms& terms) const;
  void scatter_gradient_pass(const Matrix& w, Matrix& grad,
                             Workspace& ws) const;

  void init(const CostWeights& weights);

  // The CSR adjacency (core/problem_view.h): gate i's incident edges in
  // ascending edge order, plus the per-edge slot pair the edge pass
  // writes so the gather never recomputes a power chain. Owned when the
  // model was built from a bare problem, borrowed when the caller shares
  // a prebuilt view.
  std::unique_ptr<ProblemView> owned_view_;
  const ProblemView* view_;
  CostWeights weights_;
  GradientStyle style_;
  GradientEngine engine_ = GradientEngine::kCsrGather;
  bool fast_math_ = false;
  ThreadPool* pool_ = nullptr;
  // Normalization constants (equations 4-6, 9). Computed once.
  double n1_ = 1.0;
  double n2_ = 1.0;
  double n3_ = 1.0;
  double n4_ = 1.0;
};

}  // namespace sfqpart
