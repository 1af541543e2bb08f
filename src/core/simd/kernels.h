// The gradient hot-path kernel layer (DESIGN.md section 15).
//
// CostModel's per-chunk loops — the aggregate sweep over W, the signed
// |dl|^(p-1) edge power chain, the fused gather/F2/F3/F4 gradient fill
// with its max|grad| reduction, and the optimizer's fused step — are
// dispatched through this table of per-ISA implementations (scalar,
// AVX2, AVX-512), selected once at startup by core/simd/dispatch.h.
//
// Contract: every kernel is BIT-IDENTICAL to the scalar tier.
// The scalar tier is the exact code the pre-SIMD CostModel ran (moved
// here verbatim, same compile flags), so golden labels and the
// scatter-vs-gather A/B are pinned across tiers. Vector tiers keep the
// guarantee by replaying the scalar accumulation orders exactly:
//
//  * vertical per-plane reductions (bias/area sums) accumulate gate-by-
//    gate in one vector lane per plane — the same per-accumulator
//    addition order as the scalar loop;
//  * horizontal per-gate reductions (soft label, row sum, F4 variance)
//    transpose row blocks so the plane index advances sequentially per
//    gate, vectorized across gates;
//  * chunk partial sums (F1, F4) extract lanes in ascending element
//    order, replaying the scalar addition chain;
//  * NO fused-multiply-add: the base build targets plain x86-64, so the
//    scalar tier has no FP contraction — one rounding per operator,
//    exactly the C expression text. The vector tiers therefore use only
//    discrete mul/add/sub/div intrinsics and compile with
//    -ffp-contract=off.
//    The dispatch probe (dispatch.h) demotes any tier that fails to
//    reproduce the scalar bits on this machine, so the guarantee holds
//    even where a compiler contracts differently.
//
// All W/grad pointers are padded rows, `stride` doubles apart (stride is
// a multiple of util/matrix.h kRowAlignDoubles, so full-vector row loads
// never fault and padding lanes read zero). Kernels run per chunk over
// [begin, end) and add into caller-owned partial accumulators, matching
// the deterministic chunk-combine scheme of util/thread_pool.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace sfqpart::simd {

// Per-gate aggregate sweep: soft labels l_i, row means, per-plane
// bias/area partial sums, and (when f4_acc is non-null) the fused F4
// constraint partial — one read of W for the whole evaluate() front end.
struct AggregateArgs {
  const double* w = nullptr;  // padded G x stride
  std::size_t stride = 0;
  std::size_t k = 0;
  const double* bias = nullptr;  // per-gate
  const double* area = nullptr;
  double* labels = nullptr;    // out: per-gate soft label
  double* row_mean = nullptr;  // out: per-gate row mean
};
using AggregateFn = void (*)(const AggregateArgs& args, std::size_t begin,
                             std::size_t end, double* bias_acc,
                             double* area_acc, double* f4_acc);

// Fused descent step + aggregate: w_row = clamp01(w_row - scale * g_row)
// followed by the same aggregation of the stepped row — the optimizer's
// write of W_t+1 and the next iteration's read of it become one pass.
using StepAggregateFn = void (*)(const AggregateArgs& args, double* w,
                                 const double* grad, double scale,
                                 std::size_t begin, std::size_t end,
                                 double* bias_acc, double* area_acc,
                                 double* f4_acc);

// F1 term only (no gradient): sum of w_e |l_a - l_b|^p over edges
// [begin, end), returned as the chunk partial. The weight multiplies the
// finished power (w * |dl|^p), so unit weights reproduce the unweighted
// sum bit for bit.
struct EdgeArgs {
  const std::pair<int, int>* edges = nullptr;
  const double* labels = nullptr;
  int exponent = 4;
  const std::int32_t* weights = nullptr;  // per edge, never null
};
using F1TermFn = double (*)(const EdgeArgs& args, std::size_t begin,
                            std::size_t end);

// F1 term + both signed per-endpoint gradient slots of every edge. The
// weight multiplies the finished term (w * |dl|^p) and the finished slot
// magnitude (w * (p |dl|^(p-1) / N1)), one multiply each.
//
// The AVX-512 tier reads an 8-edge block's labels with hardware gathers
// and writes its slots with hardware scatters; its fused_gate sums slots
// with gathers. Their indices are signed 32-bit, so gate indices and
// slot indices (< 2|E|) must stay below 2^31 — ProblemView asserts it.
struct EdgeGradArgs {
  const std::pair<int, int>* edges = nullptr;
  const double* labels = nullptr;
  const std::uint32_t* slot_of_first = nullptr;
  const std::uint32_t* slot_of_second = nullptr;
  double* slot_grad = nullptr;
  int exponent = 4;
  double n1 = 1.0;
  bool analytic = true;
  const std::int32_t* weights = nullptr;  // per edge, never null
};
using EdgeGradFn = double (*)(const EdgeGradArgs& args, std::size_t begin,
                              std::size_t end);

// Fused per-gate pass: CSR gather of the edge slots, gradient row fill
// for all four terms, and the F4 partial. Adds the F4 chunk sum into
// *f4_acc and returns the chunk's max |grad| entry, folded as
// std::max(acc, |g|) from 0.0 — NaN entries are skipped, and max is
// order-independent, so the chunk maxima combine to the same value in
// any order. Padding planes hold +0.0, so this is also the max over the
// full padded rows.
struct FusedGateArgs {
  const double* w = nullptr;  // padded G x stride
  double* grad = nullptr;     // padded G x stride
  std::size_t stride = 0;
  std::size_t k = 0;
  const double* row_mean = nullptr;
  const double* bias = nullptr;
  const double* area = nullptr;
  const double* bias_diff = nullptr;  // padded to stride, zeros past k
  const double* area_diff = nullptr;  // padded to stride, zeros past k
  const double* slot_grad = nullptr;
  const std::uint32_t* inc_offsets = nullptr;
  double c1 = 0.0;
  double bias_coef = 0.0;
  double area_coef = 0.0;
  double c4_coef = 0.0;
  bool analytic = true;
};
using FusedGateFn = double (*)(const FusedGateArgs& args, std::size_t begin,
                               std::size_t end, double* f4_acc);

struct KernelTable {
  const char* name = "scalar";
  AggregateFn aggregate = nullptr;
  StepAggregateFn step_aggregate = nullptr;
  F1TermFn f1_term = nullptr;
  EdgeGradFn edge_grad = nullptr;
  FusedGateFn fused_gate = nullptr;
};

// Per-tier tables. The scalar table is always available; the vector
// tables exist only in builds whose compiler supports the ISA (else they
// are null — dispatch.cpp treats them as absent).
const KernelTable& scalar_kernels();
const KernelTable* avx2_kernels();    // null when not compiled in
const KernelTable* avx512_kernels();  // null when not compiled in

}  // namespace sfqpart::simd
