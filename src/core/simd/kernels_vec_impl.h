// Shared implementation of the vector kernel tiers, templated over a
// per-ISA Ops struct (kernels_avx2.cpp / kernels_avx512.cpp). Include
// ONLY from those TUs — they are compiled with the ISA flags plus
// -ffp-contract=off.
//
// Bit-identity strategy (kernels.h states the contract):
//
//  * The base build targets plain x86-64, which has no FMA instruction,
//    so the scalar tier's arithmetic is exactly the C expression text —
//    one rounding per operator, no contraction. The exact vector kernels
//    therefore use discrete mul/add/sub/div intrinsics only; FMA-class
//    intrinsics are banned outside the *_fast variants.
//  * -ffp-contract=off on these TUs makes every scalar C expression here
//    (block tails, horizontal chains, lane extraction sums) evaluate
//    exactly like the base-flags scalar TU, so tails can be inlined and
//    chunk accumulators can be threaded through them — preserving the
//    scalar tier's single left-to-right addition chain per accumulator.
//  * Reductions: vertical per-plane sums keep one plane per lane and add
//    gate-by-gate (the scalar per-lane order); horizontal per-gate sums
//    (label, row sum, variance) run on transposed L x L gate blocks with
//    the plane index advancing sequentially; cross-gate chunk partials
//    (F1, F4) are accumulated by ascending-order lane extraction.
//  * min/max mirror the scalar sources' value semantics for NaN and
//    signed zero: clamp01 is min(1, max(0, x)) with x in the
//    NaN-propagating operand position, max-abs keeps the accumulator in
//    the NaN-dropping position (std::max returns its first argument on
//    an unordered compare).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/simd/kernels.h"
#include "core/simd/kernels_common.h"
#include "core/simd/kernels_scalar.h"

namespace sfqpart::simd {

template <class Ops>
struct VecKernels {
  using V = typename Ops::V;
  static constexpr std::size_t kL = Ops::kLanes;
  // Plane groups a row is processed in; rows wider than this fall back to
  // the scalar tier (K > 32 planes is far outside the paper's regime).
  static constexpr std::size_t kMaxGroups = 32 / kL;

  // ---- scalar tail bodies -------------------------------------------
  // Inlined (not calls into kernels_scalar.cpp) so the chunk accumulators
  // continue the same addition chain; -ffp-contract=off makes the values
  // identical to the base-flags scalar tier.

  template <bool kStep>
  static void agg_tail(const AggregateArgs& a, double* w, const double* grad,
                       double scale, std::size_t begin, std::size_t end,
                       double* bias_acc, double* area_acc, bool with_f4,
                       double& f4_sum) {
    const double kd = static_cast<double>(a.k);
    for (std::size_t i = begin; i < end; ++i) {
      const double* row;
      if constexpr (kStep) {
        double* wrow = w + i * a.stride;
        const double* grow = grad + i * a.stride;
        for (std::size_t j = 0; j < a.stride; ++j) {
          wrow[j] = std::clamp(wrow[j] - scale * grow[j], 0.0, 1.0);
        }
        row = wrow;
      } else {
        row = a.w + i * a.stride;
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
      if (with_f4) {
        const double sum_term = kd * mean - 1.0;
        double variance = 0.0;
        for (std::size_t kk = 0; kk < a.k; ++kk) {
          const double dev = row[kk] - mean;
          variance += dev * dev;
        }
        f4_sum += sum_term * sum_term - variance / kd;
      }
    }
  }

  // ---- aggregate / step+aggregate -----------------------------------

  template <bool kStep>
  static void agg_impl(const AggregateArgs& a, double* w, const double* grad,
                       double scale, std::size_t begin, std::size_t end,
                       double* bias_acc, double* area_acc, double* f4_acc) {
    const std::size_t stride = a.stride;
    const std::size_t groups = stride / kL;
    const bool with_f4 = f4_acc != nullptr;
    double f4_sum = 0.0;
    if (groups > kMaxGroups) {
      agg_tail<kStep>(a, w, grad, scale, begin, end, bias_acc, area_acc,
                      with_f4, f4_sum);
      if (with_f4) *f4_acc += f4_sum;
      return;
    }

    const double kd = static_cast<double>(a.k);
    const V kd_v = Ops::set1(kd);
    const V one_v = Ops::set1(1.0);
    const V scale_v = Ops::set1(scale);
    // Per-plane vertical accumulators: lane = plane. Loaded from (and
    // stored back to) the chunk partial row, so the scalar tail continues
    // the same per-lane chains in memory.
    V accb[kMaxGroups];
    V acca[kMaxGroups];
    for (std::size_t g = 0; g < groups; ++g) {
      accb[g] = Ops::loadu(bias_acc + g * kL);
      acca[g] = Ops::loadu(area_acc + g * kL);
    }

    std::size_t i = begin;
    for (; i + kL <= end; i += kL) {
      // One gate per stash row; transposed per group below.
      V stash[kMaxGroups][kL];
      for (std::size_t j = 0; j < kL; ++j) {
        const std::size_t gate = i + j;
        const V bias_j = Ops::set1(a.bias[gate]);
        const V area_j = Ops::set1(a.area[gate]);
        if constexpr (kStep) {
          double* wrow = w + gate * stride;
          const double* grow = grad + gate * stride;
          for (std::size_t g = 0; g < groups; ++g) {
            V v = Ops::loadu(wrow + g * kL);
            const V gv = Ops::loadu(grow + g * kL);
            // w - scale*g then the box projection; padding lanes step
            // 0 - scale*0 and clamp back to exactly +0.
            v = Ops::clamp01(Ops::sub(v, Ops::mul(scale_v, gv)));
            Ops::storeu(wrow + g * kL, v);
            accb[g] = Ops::add(accb[g], Ops::mul(bias_j, v));
            acca[g] = Ops::add(acca[g], Ops::mul(area_j, v));
            stash[g][j] = v;
          }
        } else {
          const double* row = a.w + gate * stride;
          for (std::size_t g = 0; g < groups; ++g) {
            const V v = Ops::loadu(row + g * kL);
            accb[g] = Ops::add(accb[g], Ops::mul(bias_j, v));
            acca[g] = Ops::add(acca[g], Ops::mul(area_j, v));
            stash[g][j] = v;
          }
        }
      }
      for (std::size_t g = 0; g < groups; ++g) Ops::transpose(stash[g]);
      // Horizontal per-gate chains, vectorized across the block's gates:
      // plane index kk advances sequentially, exactly the scalar order.
      V label_v = Ops::zero();
      V sum_v = Ops::zero();
      for (std::size_t kk = 0; kk < a.k; ++kk) {
        const V t = stash[kk / kL][kk % kL];
        label_v = Ops::add(label_v, Ops::mul(Ops::set1(static_cast<double>(kk + 1)), t));
        sum_v = Ops::add(sum_v, t);
      }
      const V mean_v = Ops::div(sum_v, kd_v);
      Ops::storeu(a.labels + i, label_v);
      Ops::storeu(a.row_mean + i, mean_v);
      if (with_f4) {
        const V st_v = Ops::sub(Ops::mul(kd_v, mean_v), one_v);
        V var_v = Ops::zero();
        for (std::size_t kk = 0; kk < a.k; ++kk) {
          const V dev = Ops::sub(stash[kk / kL][kk % kL], mean_v);
          var_v = Ops::add(var_v, Ops::mul(dev, dev));
        }
        const V pg = Ops::sub(Ops::mul(st_v, st_v), Ops::div(var_v, kd_v));
        alignas(64) double buf[kL];
        Ops::store(buf, pg);
        // Ascending lane extraction: the scalar per-gate addition order.
        for (std::size_t j = 0; j < kL; ++j) f4_sum += buf[j];
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      Ops::storeu(bias_acc + g * kL, accb[g]);
      Ops::storeu(area_acc + g * kL, acca[g]);
    }
    agg_tail<kStep>(a, w, grad, scale, i, end, bias_acc, area_acc, with_f4,
                    f4_sum);
    if (with_f4) *f4_acc += f4_sum;
  }

  static void aggregate(const AggregateArgs& a, std::size_t begin,
                        std::size_t end, double* bias_acc, double* area_acc,
                        double* f4_acc) {
    agg_impl<false>(a, nullptr, nullptr, 0.0, begin, end, bias_acc, area_acc,
                    f4_acc);
  }

  static void step_aggregate(const AggregateArgs& a, double* w,
                             const double* grad, double scale,
                             std::size_t begin, std::size_t end,
                             double* bias_acc, double* area_acc,
                             double* f4_acc) {
    agg_impl<true>(a, w, grad, scale, begin, end, bias_acc, area_acc, f4_acc);
  }

  // ---- F1 edge passes ------------------------------------------------

  static double f1_term(const EdgeArgs& a, std::size_t begin,
                        std::size_t end) {
    double sum = 0.0;
    alignas(64) double la[kL];
    alignas(64) double lb[kL];
    alignas(64) double wb[kL];
    alignas(64) double vbuf[kL];
    std::size_t e = begin;
    for (; e + kL <= end; e += kL) {
      for (std::size_t j = 0; j < kL; ++j) {
        la[j] = a.labels[static_cast<std::size_t>(a.edges[e + j].first)];
        lb[j] = a.labels[static_cast<std::size_t>(a.edges[e + j].second)];
        wb[j] = static_cast<double>(a.weights[e + j]);
      }
      const V delta = Ops::abs(Ops::sub(Ops::load(la), Ops::load(lb)));
      // ipow's multiply chain: result starts at 1.0 (1.0 * b == b).
      V value = Ops::set1(1.0);
      for (int t = 0; t < a.exponent; ++t) value = Ops::mul(value, delta);
      value = Ops::mul(Ops::load(wb), value);
      Ops::store(vbuf, value);
      for (std::size_t j = 0; j < kL; ++j) sum += vbuf[j];
    }
    for (; e < end; ++e) {
      const double delta = std::abs(
          a.labels[static_cast<std::size_t>(a.edges[e].first)] -
          a.labels[static_cast<std::size_t>(a.edges[e].second)]);
      sum += static_cast<double>(a.weights[e]) * ipow(delta, a.exponent);
    }
    return sum;
  }

  template <bool kFast>
  static double edge_grad_impl(const EdgeGradArgs& a, std::size_t begin,
                               std::size_t end) {
    double sum = 0.0;
    V sum_v = Ops::zero();  // kFast only: reassociated lane accumulator
    const V exp_v = Ops::set1(static_cast<double>(a.exponent));
    const V n1_v = Ops::set1(a.n1);
    alignas(64) double la[kL];
    alignas(64) double lb[kL];
    alignas(64) double wb[kL];
    alignas(64) double tbuf[kL];
    alignas(64) double fbuf[kL];
    std::size_t e = begin;
    for (; e + kL <= end; e += kL) {
      for (std::size_t j = 0; j < kL; ++j) {
        la[j] = a.labels[static_cast<std::size_t>(a.edges[e + j].first)];
        lb[j] = a.labels[static_cast<std::size_t>(a.edges[e + j].second)];
        wb[j] = static_cast<double>(a.weights[e + j]);
      }
      const V weight = Ops::load(wb);
      const V delta = Ops::sub(Ops::load(la), Ops::load(lb));
      const V ad = Ops::abs(delta);
      // pow_chain(ad, p-1)'s multiply sequence.
      V chain = Ops::set1(1.0);
      for (int t = 0; t < a.exponent - 1; ++t) chain = Ops::mul(chain, ad);
      const V term = Ops::mul(weight, Ops::mul(chain, ad));
      if constexpr (kFast) {
        sum_v = Ops::add(sum_v, term);
      } else {
        Ops::store(tbuf, term);
        // Ordered extraction replays the scalar `sum += w * (chain * ad)`
        // chain.
        for (std::size_t j = 0; j < kL; ++j) sum += tbuf[j];
      }
      const V magnitude =
          Ops::mul(weight, Ops::div(Ops::mul(exp_v, chain), n1_v));
      const V first =
          a.analytic ? Ops::select_ge0(delta, magnitude, Ops::neg(magnitude))
                     : magnitude;
      Ops::store(fbuf, first);
      for (std::size_t j = 0; j < kL; ++j) {
        a.slot_grad[a.slot_of_first[e + j]] = fbuf[j];
        a.slot_grad[a.slot_of_second[e + j]] = -fbuf[j];
      }
    }
    if constexpr (kFast) {
      alignas(64) double sbuf[kL];
      Ops::store(sbuf, sum_v);
      for (std::size_t j = 0; j < kL; ++j) sum += sbuf[j];
    }
    for (; e < end; ++e) {
      const auto& [ga, gb] = a.edges[e];
      const double weight = static_cast<double>(a.weights[e]);
      const double delta = a.labels[static_cast<std::size_t>(ga)] -
                           a.labels[static_cast<std::size_t>(gb)];
      const double ad = std::abs(delta);
      const double chain = pow_chain_local(ad, a.exponent - 1);
      sum += weight * (chain * ad);
      const double magnitude = weight * (a.exponent * chain / a.n1);
      const double first =
          a.analytic ? (delta >= 0.0 ? magnitude : -magnitude) : magnitude;
      a.slot_grad[a.slot_of_first[e]] = first;
      a.slot_grad[a.slot_of_second[e]] = -first;
    }
    return sum;
  }

  static double edge_grad(const EdgeGradArgs& a, std::size_t begin,
                          std::size_t end) {
    return edge_grad_impl<false>(a, begin, end);
  }
  static double edge_grad_fast(const EdgeGradArgs& a, std::size_t begin,
                               std::size_t end) {
    return edge_grad_impl<true>(a, begin, end);
  }

  // ---- fused gather / gradient fill / F4 -----------------------------

  template <bool kFast>
  static void fused_gate_impl(const FusedGateArgs& a, std::size_t begin,
                              std::size_t end, double* f4_acc) {
    // kPaperEq10 is cold; the scalar tier carries it.
    if (!a.analytic) {
      detail::fused_gate_scalar(a, begin, end, f4_acc);
      return;
    }
    const std::size_t stride = a.stride;
    // Groups covering real planes only — NOT stride / kL: the row stride
    // is padded to kRowAlignDoubles, so at narrow lane widths a row can
    // end in whole groups of pure padding (e.g. k=11, stride=16, kL=4).
    // Those must never be stored (grad padding stays exactly zero) and
    // the partial group is the last *active* one, not the last stride
    // group.
    const std::size_t groups = (a.k + kL - 1) / kL;
    if (groups > kMaxGroups) {
      detail::fused_gate_scalar(a, begin, end, f4_acc);
      return;
    }
    const double kd = static_cast<double>(a.k);
    const V kd_v = Ops::set1(kd);
    const V one_v = Ops::set1(1.0);
    const V c1_v = Ops::set1(a.c1);
    const V bcoef_v = Ops::set1(a.bias_coef);
    const V acoef_v = Ops::set1(a.area_coef);
    const V c4_v = Ops::set1(a.c4_coef);
    const std::size_t last = groups - 1;
    const std::size_t last_lanes = a.k - last * kL;

    // Gate-blocked, lane = gate (the aggregate kernel's structure): the
    // per-gate inputs (dlabel, mean, bias, area) become contiguous vector
    // loads instead of per-gate broadcasts, the per-plane scalars
    // broadcast once per block instead of once per gate, and the
    // per-gate variance chain runs as one vector chain with the plane
    // index ascending — each lane is exactly the scalar gate's
    // left-to-right sum. Rows transpose in, grad transposes back out
    // with +0.0 in the padding planes (bit-identical to never touching
    // them).
    double f4_sum = 0.0;
    alignas(64) double dbuf[kL];
    alignas(64) double fbuf[kL];
    std::size_t i = begin;
    for (; i + kL <= end; i += kL) {
      for (std::size_t j = 0; j < kL; ++j) {
        // Ascending-edge-order slot gather: the exact scatter replay;
        // stays scalar (variable short ranges), one chain per gate.
        double dlabel = 0.0;
        for (std::uint32_t inc = a.inc_offsets[i + j];
             inc < a.inc_offsets[i + j + 1]; ++inc) {
          dlabel += a.slot_grad[inc];
        }
        dbuf[j] = dlabel;
      }
      const V c1d_v = Ops::mul(c1_v, Ops::load(dbuf));
      const V bias_v = Ops::mul(bcoef_v, Ops::loadu(a.bias + i));
      const V area_v = Ops::mul(acoef_v, Ops::loadu(a.area + i));
      const V mean_v = Ops::loadu(a.row_mean + i);
      const V st_v = Ops::sub(Ops::mul(kd_v, mean_v), one_v);

      V var_v = Ops::zero();
      for (std::size_t g = 0; g < groups; ++g) {
        V t[kL];
        for (std::size_t j = 0; j < kL; ++j) {
          t[j] = Ops::loadu(a.w + (i + j) * stride + g * kL);
        }
        Ops::transpose(t);  // t[l] = plane g*kL+l across the block's gates
        const std::size_t lanes = g == last ? last_lanes : kL;
        for (std::size_t l = 0; l < kL; ++l) {
          if (l < lanes) {
            const std::size_t kk = g * kL + l;
            const V dev = Ops::sub(t[l], mean_v);
            V value =
                Ops::mul(c1d_v, Ops::set1(static_cast<double>(kk + 1)));
            value = Ops::add(value, Ops::mul(bias_v, Ops::set1(a.bias_diff[kk])));
            value = Ops::add(value, Ops::mul(area_v, Ops::set1(a.area_diff[kk])));
            value = Ops::add(
                value, Ops::mul(c4_v, Ops::sub(st_v, Ops::div(dev, kd_v))));
            t[l] = value;
            var_v = Ops::add(var_v, Ops::mul(dev, dev));
          } else {
            t[l] = Ops::zero();  // padding plane: store explicit +0.0
          }
        }
        Ops::transpose(t);  // back to row-major gate rows
        for (std::size_t j = 0; j < kL; ++j) {
          Ops::storeu(a.grad + (i + j) * stride + g * kL, t[j]);
        }
      }
      const V pg = Ops::sub(Ops::mul(st_v, st_v), Ops::div(var_v, kd_v));
      Ops::store(fbuf, pg);
      // Ascending lane extraction: the scalar per-gate addition order.
      for (std::size_t j = 0; j < kL; ++j) f4_sum += fbuf[j];
    }
    // Inlined scalar tail continuing the same f4 chain.
    for (; i < end; ++i) {
      double dlabel = 0.0;
      for (std::uint32_t inc = a.inc_offsets[i]; inc < a.inc_offsets[i + 1];
           ++inc) {
        dlabel += a.slot_grad[inc];
      }
      double* grow = a.grad + i * stride;
      const double* wrow = a.w + i * stride;
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
        value += a.c4_coef * (sum_term - dev / kd);
        grow[kk] = value;
        variance += dev * dev;
      }
      f4_sum += sum_term * sum_term - variance / kd;
    }
    *f4_acc += f4_sum;
  }

  static void fused_gate(const FusedGateArgs& a, std::size_t begin,
                         std::size_t end, double* f4_acc) {
    fused_gate_impl<false>(a, begin, end, f4_acc);
  }
  static void fused_gate_fast(const FusedGateArgs& a, std::size_t begin,
                              std::size_t end, double* f4_acc) {
    fused_gate_impl<true>(a, begin, end, f4_acc);
  }

  // ---- optimizer flat passes -----------------------------------------

  static void step_clamp(double* w, const double* g, std::size_t begin,
                         std::size_t end, double scale) {
    const V scale_v = Ops::set1(scale);
    std::size_t i = begin;
    for (; i + kL <= end; i += kL) {
      const V wv = Ops::loadu(w + i);
      const V gv = Ops::loadu(g + i);
      Ops::storeu(w + i, Ops::clamp01(Ops::sub(wv, Ops::mul(scale_v, gv))));
    }
    for (; i < end; ++i) {
      w[i] = std::clamp(w[i] - scale * g[i], 0.0, 1.0);
    }
  }

  static double max_abs(const double* g, std::size_t begin, std::size_t end) {
    V acc = Ops::zero();
    std::size_t i = begin;
    for (; i + kL <= end; i += kL) {
      // New value in the NaN-propagation slot, accumulator in the
      // NaN-keeping slot: matches std::max(acc, std::abs(x)) which keeps
      // acc on an unordered compare. Order never matters otherwise —
      // max over non-negative values is associative and commutative.
      acc = Ops::max_second(Ops::abs(Ops::loadu(g + i)), acc);
    }
    alignas(64) double buf[kL];
    Ops::store(buf, acc);
    double result = 0.0;
    for (std::size_t j = 0; j < kL; ++j) result = std::max(result, buf[j]);
    for (; i < end; ++i) result = std::max(result, std::abs(g[i]));
    return result;
  }

  // pow_chain clone for the inlined edge tail (same association as
  // kernels_common.h; duplicated so this header needs no extra include
  // order care).
  static double pow_chain_local(double base, int exponent) {
    switch (exponent) {
      case 0: return 1.0;
      case 1: return base;
      case 2: return base * base;
      case 3: return (base * base) * base;
      default: {
        double result = 1.0;
        for (int i = 0; i < exponent; ++i) result *= base;
        return result;
      }
    }
  }

  static KernelTable table(const char* name) {
    KernelTable t;
    t.name = name;
    t.aggregate = aggregate;
    t.step_aggregate = step_aggregate;
    t.f1_term = f1_term;
    t.edge_grad = edge_grad;
    t.fused_gate = fused_gate;
    t.step_clamp = step_clamp;
    t.max_abs = max_abs;
    t.edge_grad_fast = edge_grad_fast;
    t.fused_gate_fast = fused_gate_fast;
    return t;
  }
};

}  // namespace sfqpart::simd
