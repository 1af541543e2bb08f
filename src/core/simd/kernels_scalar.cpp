// The scalar kernel tier: the exact per-chunk loops CostModel and the
// optimizer ran before the kernel layer existed, moved here verbatim and
// compiled with the base flags. This tier is the bit-anchor — every
// golden label, the scatter-vs-gather A/B, and the vector tiers' identity
// tests all pin against it. The functions keep external linkage (in
// detail::) because the vector tiers call them for block tails and for
// the rarely-used kPaperEq10 fill, so remainder gates run the identical
// instruction stream in every tier.
#include "core/simd/kernels.h"

#include <algorithm>
#include <cmath>

#include "core/simd/kernels_common.h"

namespace sfqpart::simd {
namespace detail {

void aggregate_scalar(const AggregateArgs& a, std::size_t begin,
                      std::size_t end, double* bias_acc, double* area_acc,
                      double* f4_acc) {
  const double kd = static_cast<double>(a.k);
  double f4_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double* row = a.w + i * a.stride;
    // Hoisted: the compiler cannot prove bias_acc/area_acc do not alias
    // the problem arrays, so without locals it reloads them every kk.
    const double bias_i = a.bias[i];
    const double area_i = a.area[i];
    double label = 0.0;
    double sum = 0.0;
    for (std::size_t kk = 0; kk < a.k; ++kk) {
      const double value = row[kk];
      label += static_cast<double>(kk + 1) * value;  // plane values 1..K
      sum += value;
      bias_acc[kk] += bias_i * value;
      area_acc[kk] += area_i * value;
    }
    a.labels[i] = label;
    const double mean = sum / kd;
    a.row_mean[i] = mean;
    if (f4_acc != nullptr) {
      const double sum_term = kd * mean - 1.0;
      double variance = 0.0;
      for (std::size_t kk = 0; kk < a.k; ++kk) {
        const double dev = row[kk] - mean;
        variance += dev * dev;
      }
      f4_sum += sum_term * sum_term - variance / kd;
    }
  }
  if (f4_acc != nullptr) *f4_acc += f4_sum;
}

void step_aggregate_scalar(const AggregateArgs& a, double* w,
                           const double* grad, double scale,
                           std::size_t begin, std::size_t end,
                           double* bias_acc, double* area_acc,
                           double* f4_acc) {
  const double kd = static_cast<double>(a.k);
  double f4_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    double* row = w + i * a.stride;
    const double* grow = grad + i * a.stride;
    // The descent step over the full padded stride (grad padding is zero,
    // so padding lanes stay exactly zero), then the aggregate of the
    // stepped row — the same expressions as the unfused kernels, just one
    // pass over the row.
    for (std::size_t j = 0; j < a.stride; ++j) {
      row[j] = std::clamp(row[j] - scale * grow[j], 0.0, 1.0);
    }
    const double bias_i = a.bias[i];
    const double area_i = a.area[i];
    double label = 0.0;
    double sum = 0.0;
    for (std::size_t kk = 0; kk < a.k; ++kk) {
      const double value = row[kk];
      label += static_cast<double>(kk + 1) * value;
      sum += value;
      bias_acc[kk] += bias_i * value;
      area_acc[kk] += area_i * value;
    }
    a.labels[i] = label;
    const double mean = sum / kd;
    a.row_mean[i] = mean;
    if (f4_acc != nullptr) {
      const double sum_term = kd * mean - 1.0;
      double variance = 0.0;
      for (std::size_t kk = 0; kk < a.k; ++kk) {
        const double dev = row[kk] - mean;
        variance += dev * dev;
      }
      f4_sum += sum_term * sum_term - variance / kd;
    }
  }
  if (f4_acc != nullptr) *f4_acc += f4_sum;
}

double f1_term_scalar(const EdgeArgs& a, std::size_t begin, std::size_t end) {
  double sum = 0.0;
  for (std::size_t e = begin; e < end; ++e) {
    const auto& [ga, gb] = a.edges[e];
    const double delta = std::abs(a.labels[static_cast<std::size_t>(ga)] -
                                  a.labels[static_cast<std::size_t>(gb)]);
    sum += static_cast<double>(a.weights[e]) * ipow(delta, a.exponent);
  }
  return sum;
}

// The F1 term and both signed per-endpoint gradient contributions of
// every edge, one power chain per edge. Bit-identity bookkeeping:
//  - `chain * ad` extends pow_chain(ad, p-1)'s multiply sequence by one
//    factor, which IS ipow(ad, p)'s sequence, so the F1 chunk partials
//    match f1_term_scalar exactly (same grain, same combine order).
//  - The first endpoint's slot takes the scatter's `+= signed_term` value
//    and the second takes `-signed_term` (IEEE negation is exact), so
//    summing a gate's slots in ascending edge order replays the exact
//    additions the scatter applied to dlabel[i].
//  - The edge weight multiplies the finished term and magnitude, the
//    same single multiply the scatter applies.
double edge_grad_scalar(const EdgeGradArgs& a, std::size_t begin,
                        std::size_t end) {
  double sum = 0.0;
  for (std::size_t e = begin; e < end; ++e) {
    const auto& [ga, gb] = a.edges[e];
    const double weight = static_cast<double>(a.weights[e]);
    const double delta = a.labels[static_cast<std::size_t>(ga)] -
                         a.labels[static_cast<std::size_t>(gb)];
    const double ad = std::abs(delta);
    const double chain = pow_chain(ad, a.exponent - 1);
    sum += weight * (chain * ad);
    const double magnitude = weight * (a.exponent * chain / a.n1);
    const double first =
        a.analytic ? (delta >= 0.0 ? magnitude : -magnitude)
                   : magnitude;  // eq. 10 as printed: unsigned, +first/-second
    a.slot_grad[a.slot_of_first[e]] = first;
    a.slot_grad[a.slot_of_second[e]] = -first;
  }
  return sum;
}

// One pass over W doing all the per-gate work — the gather of dF1/dl_i
// from the slot values the edge pass precomputed, the F4 term partial,
// and the gradient row fill for every term. A gate's slots sit in
// ascending edge order — the exact addition sequence the reference
// scatter applies to dlabel[i]. The hoisted coefficient products keep the
// scatter fill's left-to-right association, so hoisting cannot change a
// bit either.
void fused_gate_scalar(const FusedGateArgs& a, std::size_t begin,
                       std::size_t end, double* f4_acc) {
  const double kd = static_cast<double>(a.k);
  double f4_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    double dlabel = 0.0;
    for (std::uint32_t inc = a.inc_offsets[i]; inc < a.inc_offsets[i + 1];
         ++inc) {
      dlabel += a.slot_grad[inc];
    }

    double* grow = a.grad + i * a.stride;
    const double* wrow = a.w + i * a.stride;
    const double mean = a.row_mean[i];
    const double c1_dlabel = a.c1 * dlabel;
    const double bias_i = a.bias_coef * a.bias[i];
    const double area_i = a.area_coef * a.area[i];
    const double sum_term = kd * mean - 1.0;
    double variance = 0.0;
    for (std::size_t kk = 0; kk < a.k; ++kk) {
      double value = c1_dlabel * static_cast<double>(kk + 1);
      value += bias_i * a.bias_diff[kk];
      value += area_i * a.area_diff[kk];
      const double dev = wrow[kk] - mean;
      if (a.analytic) {
        value += a.c4_coef * (sum_term - dev / kd);
      } else {
        value += a.c4_coef * ((kd + 1.0 / kd) * (mean - wrow[kk]) + kd - 1.0);
      }
      grow[kk] = value;
      variance += dev * dev;
    }
    f4_sum += sum_term * sum_term - variance / kd;
  }
  *f4_acc += f4_sum;
}

void step_clamp_scalar(double* w, const double* g, std::size_t begin,
                       std::size_t end, double scale) {
  for (std::size_t i = begin; i < end; ++i) {
    w[i] = std::clamp(w[i] - scale * g[i], 0.0, 1.0);
  }
}

double max_abs_scalar(const double* g, std::size_t begin, std::size_t end) {
  double max_abs = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    max_abs = std::max(max_abs, std::abs(g[i]));
  }
  return max_abs;
}

}  // namespace detail

const KernelTable& scalar_kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "scalar";
    t.aggregate = detail::aggregate_scalar;
    t.step_aggregate = detail::step_aggregate_scalar;
    t.f1_term = detail::f1_term_scalar;
    t.edge_grad = detail::edge_grad_scalar;
    t.fused_gate = detail::fused_gate_scalar;
    t.step_clamp = detail::step_clamp_scalar;
    t.max_abs = detail::max_abs_scalar;
    // No fast variants: reassociation only pays with vector lanes.
    return t;
  }();
  return table;
}

}  // namespace sfqpart::simd
