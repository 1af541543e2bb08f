// Incremental evaluation of single-gate moves against the discrete
// weighted cost (c1*F1 + c2*F2 + c3*F3; F4 is constant over one-hot
// assignments). Shared by the greedy refinement pass, the simulated
// annealer and the multilevel refiner: delta() is O(degree), apply() is
// O(1).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cost_model.h"

namespace sfqpart {

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
  std::vector<double> plane_bias_;
  std::vector<double> plane_area_;
  double mean_bias_ = 0.0;
  double mean_area_ = 0.0;
  double f1_coef_ = 0.0;
  double f2_coef_ = 0.0;
  double f3_coef_ = 0.0;
};

}  // namespace sfqpart
