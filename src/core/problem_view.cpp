#include "core/problem_view.h"

#include <cassert>

namespace sfqpart {

ProblemView::ProblemView(const PartitionProblem& problem) : problem_(&problem) {
  const auto gates = static_cast<std::size_t>(problem.num_gates);
  const std::size_t edges = problem.edges.size();
  assert((problem.edge_weights.empty() || problem.edge_weights.size() == edges) &&
         "edge_weights must be empty or hold one weight per edge");

  // Degree count, prefix sum, then one cursor fill in ascending edge
  // order. The fill writes the neighbor array and records each edge's two
  // slots in the same pass, so the neighbor CSR and the incidence slots
  // are one structure by construction: neighbors()[slot_of_first()[e]]
  // is edges[e].second and vice versa.
  offsets_.assign(gates + 1, 0);
  for (const auto& [a, b] : problem.edges) {
    ++offsets_[static_cast<std::size_t>(a) + 1];
    ++offsets_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t i = 1; i <= gates; ++i) offsets_[i] += offsets_[i - 1];

  neighbors_.resize(2 * edges);
  slot_of_first_.resize(edges);
  slot_of_second_.resize(edges);
  edge_weights_.resize(edges);
  slot_weights_.resize(2 * edges);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto& [a, b] = problem.edges[e];
    const std::int32_t weight = problem.edge_weight(e);
    const std::uint32_t sa = cursor[static_cast<std::size_t>(a)]++;
    const std::uint32_t sb = cursor[static_cast<std::size_t>(b)]++;
    slot_of_first_[e] = sa;
    slot_of_second_[e] = sb;
    neighbors_[sa] = b;
    neighbors_[sb] = a;
    edge_weights_[e] = weight;
    slot_weights_[sa] = weight;
    slot_weights_[sb] = weight;
    total_edge_weight_ += weight;
  }
}

long long ProblemView::weighted_degree(int gate) const {
  long long sum = 0;
  for (std::uint32_t s = offsets_[static_cast<std::size_t>(gate)];
       s < offsets_[static_cast<std::size_t>(gate) + 1]; ++s) {
    sum += slot_weights_[s];
  }
  return sum;
}

}  // namespace sfqpart
