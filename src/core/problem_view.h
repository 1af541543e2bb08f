// ProblemView — the shared immutable CSR view over a PartitionProblem.
//
// CostModel, MoveEvaluator and the coarsener all need the same derived
// adjacency: for each gate, its incident edges in ascending edge order.
// Historically each of them rebuilt that structure privately (an
// incidence CSR in CostModel, a neighbor CSR in MoveEvaluator, a
// vector-of-vectors in the coarsener); the builds were line-for-line the
// same cursor fill, so the three copies only cost memory and risked
// drifting apart. ProblemView is that build done once:
//
//   offsets()[i] .. offsets()[i+1]  gate i's slot range (size G + 1)
//   neighbors()[s]                  the far endpoint stored in slot s
//   slot_of_first()[e]              slot edge e occupies at edges[e].first
//   slot_of_second()[e]             slot edge e occupies at edges[e].second
//   edge_weights()[e]               w_e (1 when the problem has none)
//   slot_weights()[s]               the weight of the edge in slot s
//
// Slots are filled by one cursor pass in ascending edge index, so a
// gate's slot range enumerates its incident edges in exactly the order
// the historical per-edge scatter touched its accumulator — the property
// both CostModel's gather (bit-identical F1 sums) and MoveEvaluator's
// delta() (bit-identical move deltas) rely on. The weights are always
// materialised, filled with 1 for netlist-derived problems, so every
// reader runs one weighted path; 1 * x == x in IEEE arithmetic keeps
// unit-weight results bit-identical to an unweighted evaluation.
//
// The view does not own the problem: the PartitionProblem must outlive
// it. The derived arrays are owned by the view and immutable after
// construction, so one view is safely shared by any number of readers
// across threads.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace sfqpart {

class ProblemView {
 public:
  explicit ProblemView(const PartitionProblem& problem);

  const PartitionProblem& problem() const { return *problem_; }
  int num_gates() const { return problem_->num_gates; }
  int num_planes() const { return problem_->num_planes; }
  std::size_t num_edges() const { return problem_->edges.size(); }

  const std::uint32_t* offsets() const { return offsets_.data(); }
  const std::int32_t* neighbors() const { return neighbors_.data(); }
  const std::uint32_t* slot_of_first() const { return slot_of_first_.data(); }
  const std::uint32_t* slot_of_second() const { return slot_of_second_.data(); }
  const std::int32_t* edge_weights() const { return edge_weights_.data(); }
  const std::int32_t* slot_weights() const { return slot_weights_.data(); }

  // Sum of all edge weights — the edge count of the multiplicity-expanded
  // graph, and the |E| factor of N1.
  long long total_edge_weight() const { return total_edge_weight_; }

  // Sum of a gate's incident edge weights — the weighted degree the
  // coarsener's pinned visit order sorts by.
  long long weighted_degree(int gate) const;

 private:
  const PartitionProblem* problem_;
  std::vector<std::uint32_t> offsets_;     // size G + 1
  std::vector<std::int32_t> neighbors_;    // size 2|E|
  std::vector<std::uint32_t> slot_of_first_;   // size |E|
  std::vector<std::uint32_t> slot_of_second_;  // size |E|
  std::vector<std::int32_t> edge_weights_;     // size |E|
  std::vector<std::int32_t> slot_weights_;     // size 2|E|
  long long total_edge_weight_ = 0;
};

}  // namespace sfqpart
