#include "core/move_eval.h"

#include <cassert>
#include <cmath>
#include <numeric>

namespace sfqpart {
namespace {

double ipow(double base, int exponent) {
  double result = 1.0;
  for (int i = 0; i < exponent; ++i) result *= base;
  return result;
}

}  // namespace

MoveEvaluator::MoveEvaluator(const CostModel& model, std::vector<int> labels)
    : model_(&model),
      labels_(std::move(labels)),
      num_planes_(model.problem().num_planes),
      // The neighbor CSR comes straight from the model's shared
      // ProblemView: the view's cursor fill in ascending edge order
      // produces each gate's neighbor list in exactly the order the old
      // per-gate push_back did, so delta() stays bit-identical.
      neighbor_offsets_(model.view().offsets()),
      neighbor_adj_(model.view().neighbors()),
      neighbor_weight_(model.view().slot_weights()) {
  const PartitionProblem& problem = model.problem();
  assert(static_cast<int>(labels_.size()) == problem.num_gates);

  plane_bias_.assign(static_cast<std::size_t>(num_planes_), 0.0);
  plane_area_.assign(static_cast<std::size_t>(num_planes_), 0.0);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    assert(labels_[i] >= 0 && labels_[i] < num_planes_);
    plane_bias_[static_cast<std::size_t>(labels_[i])] += problem.bias[i];
    plane_area_[static_cast<std::size_t>(labels_[i])] += problem.area[i];
  }
  mean_bias_ = std::accumulate(plane_bias_.begin(), plane_bias_.end(), 0.0) /
               num_planes_;
  mean_area_ = std::accumulate(plane_area_.begin(), plane_area_.end(), 0.0) /
               num_planes_;
  const CostWeights& weights = model.weights();
  f1_coef_ = weights.c1 / model.n1();
  f2_coef_ = weights.c2 / (num_planes_ * model.n2());
  f3_coef_ = weights.c3 / (num_planes_ * model.n3());
}

double MoveEvaluator::delta(int gate, int target) const {
  const auto ug = static_cast<std::size_t>(gate);
  const int source = labels_[ug];
  if (source == target) return 0.0;
  const PartitionProblem& problem = model_->problem();
  const int p = model_->weights().distance_exponent;

  double result = 0.0;
  for (std::uint32_t s = neighbor_offsets_[ug]; s < neighbor_offsets_[ug + 1];
       ++s) {
    const int lj = labels_[static_cast<std::size_t>(neighbor_adj_[s])];
    result += f1_coef_ *
              (static_cast<double>(neighbor_weight_[s]) *
               (ipow(std::abs(target - lj), p) - ipow(std::abs(source - lj), p)));
  }
  auto variance_delta = [](double from, double to, double moved, double mean) {
    const double from_old = from - mean;
    const double to_old = to - mean;
    return ((from_old - moved) * (from_old - moved) - from_old * from_old) +
           ((to_old + moved) * (to_old + moved) - to_old * to_old);
  };
  const auto us = static_cast<std::size_t>(source);
  const auto ut = static_cast<std::size_t>(target);
  result += f2_coef_ * variance_delta(plane_bias_[us], plane_bias_[ut],
                                      problem.bias[ug], mean_bias_);
  result += f3_coef_ * variance_delta(plane_area_[us], plane_area_[ut],
                                      problem.area[ug], mean_area_);
  return result;
}

void MoveEvaluator::apply(int gate, int target) {
  const auto ug = static_cast<std::size_t>(gate);
  const int source = labels_[ug];
  if (source == target) return;
  const PartitionProblem& problem = model_->problem();
  plane_bias_[static_cast<std::size_t>(source)] -= problem.bias[ug];
  plane_bias_[static_cast<std::size_t>(target)] += problem.bias[ug];
  plane_area_[static_cast<std::size_t>(source)] -= problem.area[ug];
  plane_area_[static_cast<std::size_t>(target)] += problem.area[ug];
  labels_[ug] = target;
}

double MoveEvaluator::current_cost() const {
  return model_->evaluate_discrete(labels_).total(model_->weights());
}

}  // namespace sfqpart
