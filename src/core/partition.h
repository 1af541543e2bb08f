// Partition result type shared by the core partitioner, the baselines and
// the metrics/recycling consumers.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace sfqpart {

inline constexpr int kUnassignedPlane = -1;

// Assignment of gates to serially-biased ground planes. Planes are indexed
// 0..num_planes-1 in bias-stack order: plane p and plane p+1 are physically
// adjacent, so a connection between planes p and q needs |p - q| inductive
// coupling hops. I/O gates keep kUnassignedPlane (they live on the shared
// pad-ring ground).
struct Partition {
  int num_planes = 0;
  std::vector<int> plane_of;  // indexed by GateId

  int plane(GateId gate) const { return plane_of.at(static_cast<std::size_t>(gate)); }
  bool assigned(GateId gate) const { return plane(gate) != kUnassignedPlane; }
};

// An optional warm-start labeling: a prior (possibly partial) assignment
// an engine may seed its search from instead of its cold-start heuristic.
// Indexed by netlist GateId like Partition::plane_of; kUnassignedPlane
// marks gates the engine must place itself (gates added since the seed
// partition was produced, or gates deliberately released for re-solve).
// Validated once by the EngineAdapter alongside the compiled constraints:
// pins always win over warm labels, and a fully-assigned warm start is
// also a quality floor — an engine run never returns a worse-scoring
// partition than its seed (the adapter falls back to the seed labels).
struct InitialPartition {
  std::vector<int> plane_of;  // indexed by GateId; kUnassignedPlane = free

  int plane(GateId gate) const {
    return plane_of.at(static_cast<std::size_t>(gate));
  }
};

// The compact optimization problem the paper formulates: G partitionable
// gates with bias/area weights, the undirected connection set E, and K.
// Compact indices 0..G-1 map back to netlist gate ids via gate_ids.
//
// Edges carry integer weights: an edge of weight w costs exactly what w
// parallel unit edges would (F1 = sum w_e |dl_e|^p, N1 = sum w_e (K-1)^p).
// Netlist-derived problems leave edge_weights empty (every weight 1);
// coarse problems (core/coarsen.h) collapse parallel edges into one
// weighted edge.
struct PartitionProblem {
  int num_gates = 0;   // G
  int num_planes = 0;  // K
  std::vector<double> bias;                 // b_i, size G
  std::vector<double> area;                 // a_i, size G
  std::vector<std::pair<int, int>> edges;   // E (compact indices)
  std::vector<int> edge_weights;            // w_e, size |E|; empty = all 1
  std::vector<GateId> gate_ids;             // compact -> GateId

  int edge_weight(std::size_t e) const {
    return edge_weights.empty() ? 1 : edge_weights[e];
  }

  static PartitionProblem from_netlist(const Netlist& netlist, int num_planes);

  // Expands compact labels (size G, 0-based planes) into a Partition over
  // the full netlist.
  Partition to_partition(const std::vector<int>& labels, int netlist_num_gates) const;
};

}  // namespace sfqpart
