// External-linkage entry points of the scalar tier (kernels_scalar.cpp).
// The vector tiers call these for block tails — the last < vector-width
// gates/edges of a chunk — and for the kPaperEq10 fill, so remainders run
// the identical instruction stream in every tier. Everyone else should go
// through the KernelTable (kernels.h / dispatch.h).
#pragma once

#include "core/simd/kernels.h"

namespace sfqpart::simd::detail {

void aggregate_scalar(const AggregateArgs& a, std::size_t begin,
                      std::size_t end, double* bias_acc, double* area_acc,
                      double* f4_acc);
void step_aggregate_scalar(const AggregateArgs& a, double* w,
                           const double* grad, double scale,
                           std::size_t begin, std::size_t end,
                           double* bias_acc, double* area_acc, double* f4_acc);
double f1_term_scalar(const EdgeArgs& a, std::size_t begin, std::size_t end);
double edge_grad_scalar(const EdgeGradArgs& a, std::size_t begin,
                        std::size_t end);
double fused_gate_scalar(const FusedGateArgs& a, std::size_t begin,
                         std::size_t end, double* f4_acc);

}  // namespace sfqpart::simd::detail
