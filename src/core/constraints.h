// Pinned / grouped gate constraints for the partitioning engines.
//
// The paper partitions every (non-I/O) gate freely, but real floorplans
// carry placement obligations: pad-adjacent logic pinned to the plane
// nearest the pad ring, user-specified regions that must stay together.
// GateConstraints is the user-facing declaration (names, because it is
// typed on a CLI or in a job); compile_constraints() resolves it against
// a concrete Netlist into CompiledConstraints — per-gate fixed planes in
// both netlist and compact indexing — with uniform kInvalidArgument on
// anything infeasible (unknown gate, I/O gate, plane out of range,
// conflicting pins). Groups are *elected* onto a plane at compile time
// (the pinned member's plane when one exists, a deterministic
// least-loaded plane otherwise), so every engine sees one vocabulary:
// a gate is either free or fixed.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "util/status.h"

namespace sfqpart {

// User-facing constraint declaration, by gate name.
struct GateConstraints {
  // gate name -> plane index in [0, K). Duplicate pins of the same gate
  // to the same plane are tolerated; to different planes they conflict.
  std::vector<std::pair<std::string, int>> pins;
  // Each group is a set of gate names that must share one plane. A group
  // containing a pinned gate inherits that pin; two pinned members on
  // different planes conflict.
  std::vector<std::vector<std::string>> groups;

  bool empty() const { return pins.empty() && groups.empty(); }
};

// Constraints resolved against one netlist: the only form the engines
// consume. Gates not mentioned by any constraint are free (-1). When
// nothing is declared both arrays are empty, so read them only after
// checking empty() (or through compact_or_null()).
struct CompiledConstraints {
  // Indexed by netlist GateId; -1 = free, else the required plane.
  std::vector<int> fixed_of_gate;
  // Indexed by compact gate index (PartitionProblem::from_netlist order:
  // partitionable gates in ascending GateId order); -1 = free.
  std::vector<int> fixed_compact;
  int num_fixed = 0;

  bool empty() const { return num_fixed == 0; }
  // The compact fixed array, or nullptr when no constraint is active —
  // engines thread this pointer so the unconstrained path stays
  // byte-identical to the pre-constraint code.
  const std::vector<int>* compact_or_null() const {
    return empty() ? nullptr : &fixed_compact;
  }
};

// Resolves `constraints` against `netlist` for a K-plane partition.
// Fails with kInvalidArgument (never asserts) on: an unknown gate name,
// a pin or group member naming an I/O gate, a plane outside [0, K), or
// two constraints forcing one gate onto different planes. Groups without
// a pinned member are assigned deterministically: groups in declaration
// order of descending total bias (ties by declaration index) go to the
// plane with the least accumulated fixed bias (ties to the lowest
// plane), so reruns and cache replays see identical assignments.
StatusOr<CompiledConstraints> compile_constraints(
    const Netlist& netlist, const GateConstraints& constraints,
    int num_planes);

}  // namespace sfqpart
