// Incremental evaluation of single-gate moves against the discrete
// weighted cost (c1*F1 + c2*F2 + c3*F3; F4 is constant over one-hot
// assignments). Shared by the refiners of core/refine.h and the V-cycle
// and by the simulated annealer: delta() is O(degree), apply() is O(1).
//
// A move's delta splits in two. The F1 part is a sum over the gate's own
// edges and changes only when the gate or a neighbor moves; the F2/F3
// part reads only the K per-plane bias and area totals. f1_deltas() and
// delta_from_f1() expose the split so a refiner can cache the F1 part
// (DESIGN.md section 12.3); delta() is their composition, so every path
// yields the same bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cost_model.h"

namespace sfqpart {

// The planes a band-limited move of a gate on plane `source` may target:
// [first, last] except `source` itself, ascending. band <= 0 lifts the
// limit (every plane).
struct TargetBand {
  int first = 0;
  int last = -1;

  // Number of targets (`source` always lies in [first, last]).
  int count() const { return last - first; }
  // Position of `target` among the targets.
  int slot(int source, int target) const {
    return target - first - (target > source ? 1 : 0);
  }
};

inline TargetBand target_band(int source, int band, int num_planes) {
  if (band <= 0) return {0, num_planes - 1};
  return {std::max(0, source - band), std::min(num_planes - 1, source + band)};
}

class MoveEvaluator {
 public:
  // Keeps references to `model`'s problem; `labels` is copied and evolves
  // through apply().
  MoveEvaluator(const CostModel& model, std::vector<int> labels);

  const std::vector<int>& labels() const { return labels_; }
  int label(int gate) const { return labels_[static_cast<std::size_t>(gate)]; }
  int num_planes() const { return num_planes_; }
  int num_gates() const { return static_cast<int>(labels_.size()); }

  // Weighted-cost change of moving `gate` to `target` (0 when already there).
  double delta(int gate, int target) const;

  // F1 part of delta() for every target of target_band(label(gate), band):
  // one walk over the gate's neighbors, out[j] for the j-th target. Each
  // partial accumulates in the order delta() uses.
  void f1_deltas(int gate, int band, double* out) const;

  // delta(gate, target) given its F1 part: adds the F2 term, then the F3
  // term, against the current plane totals. `target` != label(gate).
  double delta_from_f1(int gate, int target, double f1) const;

  // Commits the move, updating the incremental aggregates.
  void apply(int gate, int target);

  // Exact discrete cost of the current labels (recomputed, for checks).
  double current_cost() const;

  // Borrowed CSR neighbor range of `gate` (ascending edge order; parallel
  // edges, if the problem has any, appear once each). For refiners that
  // must requeue a moved gate's neighborhood (bucket_refine, the eco
  // engine).
  std::pair<const std::int32_t*, const std::int32_t*> neighbors(
      int gate) const {
    const auto g = static_cast<std::size_t>(gate);
    return {neighbor_adj_ + neighbor_offsets_[g],
            neighbor_adj_ + neighbor_offsets_[g + 1]};
  }

 private:
  // Adds the F1 part of moving `gate` to each plane of [first, last]
  // except its own into consecutive out[] slots, neighbor by neighbor.
  void add_f1(int gate, int first, int last, double* out) const;

  const CostModel* model_;
  std::vector<int> labels_;
  int num_planes_;
  // CSR adjacency, borrowed from the model's shared ProblemView: gate i's
  // neighbors are neighbor_adj_[neighbor_offsets_[i] ..
  // neighbor_offsets_[i+1]), in ascending edge order — the same order the
  // historical vector-of-vectors push_back produced, so delta()'s F1
  // accumulation is bit-identical. Sharing the view instead of rebuilding
  // it means constructing an evaluator per V-cycle level costs no second
  // O(E) pass and no second copy of the adjacency.
  const std::uint32_t* neighbor_offsets_;  // size G + 1
  const std::int32_t* neighbor_adj_;       // size 2|E|
  const std::int32_t* neighbor_weight_;    // size 2|E|, the slot's w_e
  // dist_pow_[d] = d^p for d in [0, K): the only powers F1 ever takes.
  std::vector<double> dist_pow_;
  std::vector<double> plane_bias_;
  std::vector<double> plane_area_;
  double mean_bias_ = 0.0;
  double mean_area_ = 0.0;
  double f1_coef_ = 0.0;
  double f2_coef_ = 0.0;
  double f3_coef_ = 0.0;
};

}  // namespace sfqpart
