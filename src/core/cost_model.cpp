#include "core/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

double ipow(double base, int exponent) {
  // Negative exponents would silently evaluate to 1.0 and zero F1's
  // contribution; the Solver facade rejects them with a Status before any
  // CostModel exists, direct users fail here.
  assert(exponent >= 0 && "ipow: negative exponents are not supported");
  double result = 1.0;
  for (int i = 0; i < exponent; ++i) result *= base;
  return result;
}

// Chunk size of the parallel reductions. The boundaries depend only on the
// problem size, so per-chunk partials combined in chunk order give the
// same floating-point result at every thread count (see thread_pool.h).
// Sized so the paper-suite unit circuits stay single-chunk and only the
// thousands-of-gates benches actually split. A multiple of the widest
// vector block (8 gates), so kernel blocks never straddle a chunk edge.
constexpr std::size_t kReductionGrain = 1024;

// Per-item cost hints for the executor's adaptive serial threshold
// (thread_pool.h): rough nanoseconds of kernel work per gate/edge, so
// passes too small to amortize a region open run inline instead.
double gate_pass_cost(std::size_t k) { return 3.0 * static_cast<double>(k); }
constexpr double kEdgePassCost = 10.0;
constexpr double kLabelPassCost = 3.0;

// The hot per-chunk loops live in the dispatched kernel layer
// (core/simd/) — scalar, AVX2 or AVX-512, selected once at startup, all
// bit-identical in default mode. The structs below are the thin
// parallel_chunks adapters: they pick the chunk's partial-accumulator
// rows out of the workspace slabs and forward to the table function.

struct AggregateBody {
  const simd::AggregateArgs* args;
  simd::AggregateFn fn;
  ChunkSlab* bias_area;  // per-chunk [bias[0..stride); area[0..stride))
  ChunkSlab* f4;         // null when the F4 term is not wanted
  std::size_t stride;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    double* bias_acc = bias_area->chunk(chunk);
    fn(*args, begin, end, bias_acc, bias_acc + stride,
       f4 != nullptr ? f4->chunk(chunk) : nullptr);
  }
};

struct StepAggregateBody {
  const simd::AggregateArgs* args;
  simd::StepAggregateFn fn;
  double* w;
  const double* grad;
  double scale;
  ChunkSlab* bias_area;
  ChunkSlab* f4;
  std::size_t stride;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    double* bias_acc = bias_area->chunk(chunk);
    fn(*args, w, grad, scale, begin, end, bias_acc, bias_acc + stride,
       f4 != nullptr ? f4->chunk(chunk) : nullptr);
  }
};

struct F1TermBody {
  const simd::EdgeArgs* args;
  simd::F1TermFn fn;
  ChunkSlab* partials;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    partials->chunk(chunk)[0] = fn(*args, begin, end);
  }
};

struct EdgeGradBody {
  const simd::EdgeGradArgs* args;
  simd::EdgeGradFn fn;
  ChunkSlab* partials;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    partials->chunk(chunk)[0] = fn(*args, begin, end);
  }
};

struct FusedGateBody {
  const simd::FusedGateArgs* args;
  simd::FusedGateFn fn;
  ChunkSlab* f4;
  ChunkSlab* grad_max;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    grad_max->chunk(chunk)[0] = fn(*args, begin, end, f4->chunk(chunk));
  }
};

// The gradient's max |grad| from the fill's per-chunk maxima. Max is
// order-independent, so the value does not depend on the chunking.
double combine_max(const ChunkSlab& partials, std::size_t chunks) {
  double max_abs = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    max_abs = std::max(max_abs, partials.chunk(c)[0]);
  }
  return max_abs;
}

// evaluate_discrete()'s aggregate: what AggregateBody accumulates for the
// one-hot W of `labels`, read from the labels alone. A one-hot row adds
// bias_i to its own plane's partial and bias_i * 0.0 = +0.0 to every
// other; adding +0.0 to a partial of finite values leaves it unchanged,
// so the per-plane partials take the dense pass's values exactly. The
// row's soft label is label + 1, and its F4 term depends on the label
// alone (f4_of_label).
struct DiscreteAggregateBody {
  const int* labels;
  const double* bias;
  const double* area;
  const double* f4_of_label;  // size K
  double* soft_labels;
  ChunkSlab* bias_area;  // per-chunk [bias[0..k); area[0..k)]
  ChunkSlab* f4;
  std::size_t k;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    double* bias_acc = bias_area->chunk(chunk);
    double* area_acc = bias_acc + k;
    double f4_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      assert(labels[i] >= 0 && static_cast<std::size_t>(labels[i]) < k);
      const auto label = static_cast<std::size_t>(labels[i]);
      soft_labels[i] = static_cast<double>(label + 1);
      bias_acc[label] += bias[i];
      area_acc[label] += area[i];
      f4_sum += f4_of_label[label];
    }
    f4->chunk(chunk)[0] += f4_sum;
  }
};

// The F4 term of a one-hot row on each of the K planes, computed by the
// active aggregate kernel on one row at a time: the exact per-gate
// arithmetic of the dense evaluation (every tier matches the scalar one).
std::vector<double> one_hot_f4_terms(std::size_t k) {
  std::vector<int> planes(k);
  for (std::size_t p = 0; p < k; ++p) planes[p] = static_cast<int>(p);
  const Matrix rows = one_hot(planes, static_cast<int>(k));
  const std::vector<double> zeros(k, 0.0);
  std::vector<double> soft_labels(k);
  std::vector<double> row_mean(k);
  std::vector<double> plane_acc(2 * rows.stride());
  const simd::AggregateArgs args{rows.flat().data(), rows.stride(),
                                 k,                  zeros.data(),
                                 zeros.data(),       soft_labels.data(),
                                 row_mean.data()};
  std::vector<double> f4(k, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    simd::kernels().aggregate(args, p, p + 1, plane_acc.data(),
                              plane_acc.data() + rows.stride(), &f4[p]);
  }
  return f4;
}

// scatter_gradient_pass(): the reference engine's element-wise fill. Each
// gate's gradient row is independent, so running the chunks on the pool
// cannot change any value; the only reduction is each chunk's max |grad|.
// Stays a plain scalar loop — it is the historical bit-anchor the kernel
// layer is measured against.
struct ScatterFillKernel {
  const Matrix* w;
  Matrix* grad;
  const double* dlabel;
  const double* row_mean;
  const double* plane_bias;
  const double* plane_area;
  double mean_bias;
  double mean_area;
  const double* bias;
  const double* area;
  std::size_t k;
  CostWeights weights;
  double n2;
  double n3;
  double n4;
  bool analytic;
  ChunkSlab* grad_max;

  void operator()(std::size_t chunk, std::size_t begin,
                  std::size_t end) const {
    const double kd = static_cast<double>(k);
    const double bias_coef = 2.0 / (kd * n2);
    const double area_coef = 2.0 / (kd * n3);
    double max_abs = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto grow = grad->row(i);
      const double mean = row_mean[i];
      for (std::size_t kk = 0; kk < k; ++kk) {
        double value = weights.c1 * dlabel[i] * static_cast<double>(kk + 1);
        value += weights.c2 * bias_coef * bias[i] *
                 (plane_bias[kk] - mean_bias);
        value += weights.c3 * area_coef * area[i] *
                 (plane_area[kk] - mean_area);
        if (analytic) {
          value += weights.c4 * (2.0 / n4) *
                   ((kd * mean - 1.0) - ((*w)(i, kk) - mean) / kd);
        } else {
          value += weights.c4 * (2.0 / n4) *
                   ((kd + 1.0 / kd) * (mean - (*w)(i, kk)) + kd - 1.0);
        }
        grow[kk] = value;
        max_abs = std::max(max_abs, std::abs(value));  // skips NaN
      }
    }
    grad_max->chunk(chunk)[0] = max_abs;
  }
};

}  // namespace

PartitionProblem PartitionProblem::from_netlist(const Netlist& netlist, int num_planes) {
  assert(num_planes >= 2);
  PartitionProblem problem;
  problem.num_planes = num_planes;

  // Every output is reserved to its final size, and each gate's cell
  // record is read once.
  const int num_gates = netlist.num_gates();
  const auto num_compact =
      static_cast<std::size_t>(netlist.num_partitionable_gates());
  problem.gate_ids.reserve(num_compact);
  problem.bias.reserve(num_compact);
  problem.area.reserve(num_compact);
  std::vector<int> compact(static_cast<std::size_t>(num_gates));
  for (GateId g = 0; g < num_gates; ++g) {
    if (netlist.is_io(g)) {
      compact[static_cast<std::size_t>(g)] = -1;
      continue;
    }
    const Cell& cell = netlist.cell_of(g);
    compact[static_cast<std::size_t>(g)] = problem.num_gates++;
    problem.gate_ids.push_back(g);
    problem.bias.push_back(cell.bias_ma);
    problem.area.push_back(cell.area_um2);
  }
  const std::vector<Connection>& edges = netlist.unique_edges();
  problem.edges.reserve(edges.size());
  for (const Connection& edge : edges) {
    problem.edges.emplace_back(compact[static_cast<std::size_t>(edge.from)],
                               compact[static_cast<std::size_t>(edge.to)]);
  }
  return problem;
}

Partition PartitionProblem::to_partition(const std::vector<int>& labels,
                                         int netlist_num_gates) const {
  assert(static_cast<int>(labels.size()) == num_gates);
  Partition partition;
  partition.num_planes = num_planes;
  partition.plane_of.assign(static_cast<std::size_t>(netlist_num_gates),
                            kUnassignedPlane);
  for (int i = 0; i < num_gates; ++i) {
    partition.plane_of[static_cast<std::size_t>(gate_ids[static_cast<std::size_t>(i)])] =
        labels[static_cast<std::size_t>(i)];
  }
  return partition;
}

CostModel::CostModel(const PartitionProblem& problem, const CostWeights& weights,
                     GradientStyle style)
    : owned_view_(std::make_unique<ProblemView>(problem)),
      view_(owned_view_.get()),
      weights_(weights),
      style_(style) {
  init(weights);
}

CostModel::CostModel(const ProblemView& view, const CostWeights& weights,
                     GradientStyle style)
    : view_(&view), weights_(weights), style_(style) {
  init(weights);
}

void CostModel::init(const CostWeights& weights) {
  const PartitionProblem& problem = view_->problem();
  const int k = problem.num_planes;
  const int g = problem.num_gates;
  assert(k >= 2);
  assert(weights.distance_exponent >= 1 &&
         "distance_exponent must be >= 1 (the Solver facade validates this)");
  // N1 = sum w_e (K-1)^p (|E| (K-1)^p for unit weights); N2 = (K-1)
  // Bbar^2 with the ideal Bbar = B_cir / K; N3 analogous; N4 = G (K-1)^2.
  // Degenerate problems (no edges, zero bias) fall back to 1 to keep the
  // terms finite.
  const double k1 = static_cast<double>(k - 1);
  double total_bias = 0.0;
  double total_area = 0.0;
  for (const double b : problem.bias) total_bias += b;
  for (const double a : problem.area) total_area += a;
  const double mean_bias = total_bias / k;
  const double mean_area = total_area / k;
  n1_ = static_cast<double>(view_->total_edge_weight()) *
        ipow(k1, weights.distance_exponent);
  n2_ = k1 * mean_bias * mean_bias;
  n3_ = k1 * mean_area * mean_area;
  n4_ = static_cast<double>(g) * k1 * k1;
  if (n1_ <= 0.0) n1_ = 1.0;
  if (n2_ <= 0.0) n2_ = 1.0;
  if (n3_ <= 0.0) n3_ = 1.0;
  if (n4_ <= 0.0) n4_ = 1.0;
  // The CSR incidence adjacency lives in the shared ProblemView
  // (core/problem_view.h): the edge pass writes each edge's two signed
  // contributions into its view slots, and the gather just sums a gate's
  // slot range in ascending edge order.
}

void CostModel::combine_plane_sums(Workspace& ws, std::size_t chunks,
                                   std::size_t stride) const {
  const auto k = static_cast<std::size_t>(problem().num_planes);
  Aggregates& agg = ws.agg;
  for (std::size_t c = 0; c < chunks; ++c) {
    const double* bias_row = ws.bias_area_partial.chunk(c);
    const double* area_row = bias_row + stride;
    for (std::size_t kk = 0; kk < k; ++kk) {
      agg.plane_bias[kk] += bias_row[kk];
      agg.plane_area[kk] += area_row[kk];
    }
  }
  for (const double b : agg.plane_bias) agg.mean_bias += b;
  for (const double a : agg.plane_area) agg.mean_area += a;
  agg.mean_bias /= static_cast<double>(k);
  agg.mean_area /= static_cast<double>(k);
}

void CostModel::aggregate(const Matrix& w, Workspace& ws, bool with_f4) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  assert(w.rows() == g && w.cols() == k);
  const std::size_t stride = w.stride();

  Aggregates& agg = ws.agg;
  // labels and row_mean are unconditionally overwritten for every gate
  // below, so resize (a no-op on a warm workspace) instead of paying an
  // assign's zero-fill on the hot path.
  agg.labels.resize(g);
  agg.row_mean.resize(g);
  agg.plane_bias.assign(k, 0.0);
  agg.plane_area.assign(k, 0.0);
  agg.mean_bias = 0.0;
  agg.mean_area = 0.0;

  // Per-chunk B/A partial rows (stride-spaced so the vector tiers store
  // whole registers), combined in chunk order below; labels and row_mean
  // are element-wise and need no combine step. The F4 partials ride the
  // same read of W when requested.
  const std::size_t chunks = chunk_count(g, kReductionGrain);
  ws.bias_area_partial.reset(chunks, 2 * stride);
  if (with_f4) ws.f4_partial.reset(chunks, 1);
  const simd::KernelTable& kt = simd::kernels();
  simd::AggregateArgs args{w.flat().data(), stride,
                           k,               problem().bias.data(),
                           problem().area.data(), agg.labels.data(),
                           agg.row_mean.data()};
  AggregateBody body{&args, kt.aggregate, &ws.bias_area_partial,
                     with_f4 ? &ws.f4_partial : nullptr, stride};
  parallel_chunks(pool_, g, kReductionGrain, body, gate_pass_cost(k));
  combine_plane_sums(ws, chunks, stride);
  ws.agg_has_f4 = with_f4;
}

void CostModel::step_and_aggregate(Matrix& w, const Matrix& grad, double scale,
                                   Workspace& ws) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  assert(w.rows() == g && w.cols() == k);
  assert(grad.rows() == g && grad.cols() == k);
  const std::size_t stride = w.stride();

  Aggregates& agg = ws.agg;
  agg.labels.resize(g);
  agg.row_mean.resize(g);
  agg.plane_bias.assign(k, 0.0);
  agg.plane_area.assign(k, 0.0);
  agg.mean_bias = 0.0;
  agg.mean_area = 0.0;

  const std::size_t chunks = chunk_count(g, kReductionGrain);
  ws.bias_area_partial.reset(chunks, 2 * stride);
  const simd::KernelTable& kt = simd::kernels();
  simd::AggregateArgs args{w.flat().data(), stride,
                           k,               problem().bias.data(),
                           problem().area.data(), agg.labels.data(),
                           agg.row_mean.data()};
  // The F4 partials are skipped: the gather engine's fused fill computes
  // them anyway, and the reference scatter path re-aggregates (see
  // evaluate_with_gradient_aggregated).
  StepAggregateBody body{&args,
                         kt.step_aggregate,
                         w.flat().data(),
                         grad.flat().data(),
                         scale,
                         &ws.bias_area_partial,
                         nullptr,
                         stride};
  parallel_chunks(pool_, g, kReductionGrain, body,
                  gate_pass_cost(k) + 2.0 * static_cast<double>(stride));
  combine_plane_sums(ws, chunks, stride);
  ws.agg_has_f4 = false;
}

double CostModel::f1_and_slot_grad(const Aggregates& agg, Workspace& ws) const {
  const std::size_t edges = problem().edges.size();
  const std::size_t edge_chunks = chunk_count(edges, kReductionGrain);
  ws.f1_partial.reset(edge_chunks, 1);
  ws.slot_grad.resize(2 * edges);
  const simd::EdgeGradFn fn = simd::kernels().edge_grad;
  simd::EdgeGradArgs args{problem().edges.data(),
                          agg.labels.data(),
                          view_->slot_of_first(),
                          view_->slot_of_second(),
                          ws.slot_grad.data(),
                          weights_.distance_exponent,
                          n1_,
                          style_ == GradientStyle::kAnalytic,
                          view_->edge_weights()};
  EdgeGradBody body{&args, fn, &ws.f1_partial};
  parallel_chunks(pool_, edges, kReductionGrain, body, kEdgePassCost);
  double f1 = 0.0;
  for (std::size_t c = 0; c < edge_chunks; ++c) {
    f1 += ws.f1_partial.chunk(c)[0];
  }
  return f1 / n1_;
}

double CostModel::f1_term(const Aggregates& agg, Workspace& ws) const {
  const std::size_t edges = problem().edges.size();
  const std::size_t edge_chunks = chunk_count(edges, kReductionGrain);
  ws.f1_partial.reset(edge_chunks, 1);
  const simd::KernelTable& kt = simd::kernels();
  simd::EdgeArgs args{problem().edges.data(), agg.labels.data(),
                      weights_.distance_exponent, view_->edge_weights()};
  F1TermBody body{&args, kt.f1_term, &ws.f1_partial};
  parallel_chunks(pool_, edges, kReductionGrain, body, kEdgePassCost);
  double f1 = 0.0;
  for (std::size_t c = 0; c < edge_chunks; ++c) {
    f1 += ws.f1_partial.chunk(c)[0];
  }
  return f1 / n1_;
}

void CostModel::f2_f3_terms(const Aggregates& agg, CostTerms& terms) const {
  const auto k = static_cast<std::size_t>(problem().num_planes);
  const double kd = static_cast<double>(k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double db = agg.plane_bias[kk] - agg.mean_bias;
    const double da = agg.plane_area[kk] - agg.mean_area;
    terms.f2 += db * db;
    terms.f3 += da * da;
  }
  terms.f2 /= kd * n2_;
  terms.f3 /= kd * n3_;
}

CostTerms CostModel::terms_from_aggregated(Workspace& ws) const {
  assert(ws.agg_has_f4 &&
         "terms_from_aggregated requires aggregate(w, ws, /*with_f4=*/true)");
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const Aggregates& agg = ws.agg;
  CostTerms terms;

  terms.f1 = f1_term(agg, ws);
  f2_f3_terms(agg, terms);

  // F4 rode the aggregate pass: same grain, same per-chunk sums, same
  // combine order as the historical standalone pass — and W was read
  // once for the whole evaluation.
  const std::size_t gate_chunks = chunk_count(g, kReductionGrain);
  for (std::size_t c = 0; c < gate_chunks; ++c) {
    terms.f4 += ws.f4_partial.chunk(c)[0];
  }
  terms.f4 /= n4_;
  return terms;
}

CostTerms CostModel::evaluate(const Matrix& w) const {
  Workspace workspace;
  return evaluate(w, workspace);
}

CostTerms CostModel::evaluate(const Matrix& w, Workspace& ws) const {
  aggregate(w, ws, /*with_f4=*/true);
  return terms_from_aggregated(ws);
}

CostTerms CostModel::evaluate_with_gradient(const Matrix& w, Matrix& grad) const {
  Workspace workspace;
  return evaluate_with_gradient(w, grad, workspace);
}

CostTerms CostModel::evaluate_with_gradient(const Matrix& w, Matrix& grad,
                                            Workspace& ws) const {
  // The gather engine's fused fill recomputes F4 on its own pass; only
  // the scatter reference needs it from the aggregate.
  aggregate(w, ws, /*with_f4=*/engine_ == GradientEngine::kSerialScatter);
  return gradient_terms(w, grad, ws);
}

CostTerms CostModel::evaluate_with_gradient_aggregated(const Matrix& w,
                                                       Matrix& grad,
                                                       Workspace& ws) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  assert(w.rows() == g && w.cols() == k);
  assert(ws.agg.labels.size() == g &&
         "evaluate_with_gradient_aggregated requires step_and_aggregate");
  (void)g;
  (void)k;
  if (engine_ == GradientEngine::kSerialScatter && !ws.agg_has_f4) {
    // The reference engine wants the aggregate-borne F4 partials;
    // re-running the aggregate keeps it exactly on its historical path.
    aggregate(w, ws, /*with_f4=*/true);
  }
  return gradient_terms(w, grad, ws);
}

CostTerms CostModel::gradient_terms(const Matrix& w, Matrix& grad,
                                    Workspace& ws) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  if (grad.rows() != g || grad.cols() != k) grad = Matrix(g, k);

  if (engine_ == GradientEngine::kSerialScatter) {
    const CostTerms terms = terms_from_aggregated(ws);
    scatter_gradient_pass(w, grad, ws);
    return terms;
  }

  CostTerms terms;
  terms.f1 = f1_and_slot_grad(ws.agg, ws);
  f2_f3_terms(ws.agg, terms);
  // The F4 term rides the fused gather/fill pass below: same grain, same
  // per-chunk sums, same combine order as terms_from_aggregated, so
  // evaluate() and evaluate_with_gradient() report bit-identical terms.
  fused_gradient_pass(w, grad, ws, terms);
  return terms;
}

void CostModel::fused_gradient_pass(const Matrix& w, Matrix& grad,
                                    Workspace& ws, CostTerms& terms) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  const double kd = static_cast<double>(k);
  const std::size_t stride = w.stride();
  const Aggregates& agg = ws.agg;

  // The per-plane deviations are row-invariant; computing them once per
  // call (the identical subtraction, just cached) saves 2K flops per
  // gate. Padded to the row stride with zeros so the vector tiers load
  // whole registers.
  ws.plane_diff.assign(2 * stride, 0.0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    ws.plane_diff[kk] = agg.plane_bias[kk] - agg.mean_bias;
    ws.plane_diff[stride + kk] = agg.plane_area[kk] - agg.mean_area;
  }
  const std::size_t gate_chunks = chunk_count(g, kReductionGrain);
  ws.f4_partial.reset(gate_chunks, 1);
  ws.grad_max_partial.reset(gate_chunks, 1);
  simd::FusedGateArgs args{w.flat().data(),
                           grad.flat().data(),
                           stride,
                           k,
                           agg.row_mean.data(),
                           problem().bias.data(),
                           problem().area.data(),
                           ws.plane_diff.data(),
                           ws.plane_diff.data() + stride,
                           ws.slot_grad.data(),
                           view_->offsets(),
                           weights_.c1,
                           weights_.c2 * (2.0 / (kd * n2_)),
                           weights_.c3 * (2.0 / (kd * n3_)),
                           weights_.c4 * (2.0 / n4_),
                           style_ == GradientStyle::kAnalytic};
  FusedGateBody body{&args, simd::kernels().fused_gate, &ws.f4_partial,
                     &ws.grad_max_partial};
  parallel_chunks(pool_, g, kReductionGrain, body, gate_pass_cost(k));
  for (std::size_t c = 0; c < gate_chunks; ++c) {
    terms.f4 += ws.f4_partial.chunk(c)[0];
  }
  terms.f4 /= n4_;
  ws.grad_max_abs_ = combine_max(ws.grad_max_partial, gate_chunks);
}

// The pre-CSR reference path: a serial per-edge scatter into dlabel, then
// a separate parallel fill pass. Kept only for A/B regression coverage.
void CostModel::scatter_gradient_pass(const Matrix& w, Matrix& grad,
                                      Workspace& ws) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  const int p = weights_.distance_exponent;
  const Aggregates& agg = ws.agg;

  // F1: dF1/dl_i accumulated per gate, then dl_i/dw_{i,k} = (k+1).
  ws.dlabel.assign(g, 0.0);
  const std::int32_t* edge_weights = view_->edge_weights();
  for (std::size_t e = 0; e < problem().edges.size(); ++e) {
    const auto& [a, b] = problem().edges[e];
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    const double delta = agg.labels[ua] - agg.labels[ub];
    const double magnitude = static_cast<double>(edge_weights[e]) *
                             (p * ipow(std::abs(delta), p - 1) / n1_);
    if (style_ == GradientStyle::kAnalytic) {
      const double signed_term = delta >= 0.0 ? magnitude : -magnitude;
      ws.dlabel[ua] += signed_term;
      ws.dlabel[ub] -= signed_term;
    } else {
      ws.dlabel[ua] += magnitude;
      ws.dlabel[ub] -= magnitude;
    }
  }

  ScatterFillKernel kernel{&w,
                           &grad,
                           ws.dlabel.data(),
                           agg.row_mean.data(),
                           agg.plane_bias.data(),
                           agg.plane_area.data(),
                           agg.mean_bias,
                           agg.mean_area,
                           problem().bias.data(),
                           problem().area.data(),
                           k,
                           weights_,
                           n2_,
                           n3_,
                           n4_,
                           style_ == GradientStyle::kAnalytic,
                           &ws.grad_max_partial};
  const std::size_t gate_chunks = chunk_count(g, kReductionGrain);
  ws.grad_max_partial.reset(gate_chunks, 1);
  parallel_chunks(pool_, g, kReductionGrain, kernel, gate_pass_cost(k));
  ws.grad_max_abs_ = combine_max(ws.grad_max_partial, gate_chunks);
}

// The terms evaluate(one_hot(labels)) reports, bit for bit, without the
// G x K matrix: the same chunking, the same per-chunk partials combined
// in the same order, then the same F1/F2/F3/F4 back end.
CostTerms CostModel::evaluate_discrete(const std::vector<int>& labels) const {
  const auto g = static_cast<std::size_t>(problem().num_gates);
  const auto k = static_cast<std::size_t>(problem().num_planes);
  assert(labels.size() == g);
  Workspace ws;
  Aggregates& agg = ws.agg;
  agg.labels.resize(g);
  agg.plane_bias.assign(k, 0.0);
  agg.plane_area.assign(k, 0.0);

  const std::vector<double> f4_of_label = one_hot_f4_terms(k);
  const std::size_t chunks = chunk_count(g, kReductionGrain);
  ws.bias_area_partial.reset(chunks, 2 * k);
  ws.f4_partial.reset(chunks, 1);
  DiscreteAggregateBody body{labels.data(),
                             problem().bias.data(),
                             problem().area.data(),
                             f4_of_label.data(),
                             agg.labels.data(),
                             &ws.bias_area_partial,
                             &ws.f4_partial,
                             k};
  parallel_chunks(pool_, g, kReductionGrain, body, kLabelPassCost);
  combine_plane_sums(ws, chunks, k);
  ws.agg_has_f4 = true;
  return terms_from_aggregated(ws);
}

}  // namespace sfqpart
