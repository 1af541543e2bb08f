#include "core/constraints.h"

#include <algorithm>
#include <numeric>

#include "core/partition.h"

namespace sfqpart {
namespace {

Status bad(const std::string& message) {
  return Status::invalid_argument("constraint: " + message);
}

// Resolves one named gate to a partitionable GateId.
StatusOr<GateId> resolve_gate(const Netlist& netlist, const std::string& name) {
  const GateId id = netlist.find_gate(name);
  if (id == kInvalidGate) {
    return bad("unknown gate '" + name + "'");
  }
  if (!netlist.is_partitionable(id)) {
    return bad("gate '" + name +
               "' is an I/O interface cell on the shared pad-ring ground "
               "and cannot be pinned to a plane");
  }
  return id;
}

// Fixes `gate` to `plane`, rejecting a conflict with an earlier fix.
Status fix_gate(const Netlist& netlist, std::vector<int>& fixed, GateId gate,
                int plane) {
  int& slot = fixed[static_cast<std::size_t>(gate)];
  if (slot != kUnassignedPlane && slot != plane) {
    return bad("gate '" + netlist.gate(gate).name + "' is pinned to plane " +
               std::to_string(slot) + " and plane " + std::to_string(plane));
  }
  slot = plane;
  return Status::ok();
}

}  // namespace

StatusOr<CompiledConstraints> compile_constraints(
    const Netlist& netlist, const GateConstraints& constraints,
    int num_planes) {
  CompiledConstraints out;
  // Nothing declared (no pin, no non-empty group): nothing to resolve or
  // validate, so the netlist is not read. Every reader branches on
  // empty() before it indexes the arrays.
  if (constraints.pins.empty() &&
      std::all_of(constraints.groups.begin(), constraints.groups.end(),
                  [](const auto& group) { return group.empty(); })) {
    return out;
  }
  out.fixed_of_gate.assign(static_cast<std::size_t>(netlist.num_gates()),
                           kUnassignedPlane);

  for (const auto& [name, plane] : constraints.pins) {
    if (plane < 0 || plane >= num_planes) {
      return bad("pin '" + name + "=" + std::to_string(plane) +
                 "' names a plane outside [0, " + std::to_string(num_planes) +
                 ")");
    }
    auto gate = resolve_gate(netlist, name);
    if (!gate) return gate.status();
    if (auto status = fix_gate(netlist, out.fixed_of_gate, *gate, plane);
        !status) {
      return status;
    }
  }

  // Resolve every group to gate ids and, where a member is pinned, to a
  // required plane.
  struct Group {
    std::vector<GateId> members;
    int plane = kUnassignedPlane;
    double bias = 0.0;
    std::size_t index = 0;
  };
  std::vector<Group> groups;
  groups.reserve(constraints.groups.size());
  for (std::size_t gi = 0; gi < constraints.groups.size(); ++gi) {
    Group group;
    group.index = gi;
    for (const std::string& name : constraints.groups[gi]) {
      auto gate = resolve_gate(netlist, name);
      if (!gate) return gate.status();
      group.members.push_back(*gate);
      group.bias += netlist.bias_of(*gate);
      const int pinned = out.fixed_of_gate[static_cast<std::size_t>(*gate)];
      if (pinned == kUnassignedPlane) continue;
      if (group.plane != kUnassignedPlane && group.plane != pinned) {
        return bad("group " + std::to_string(gi) +
                   " contains gates pinned to plane " +
                   std::to_string(group.plane) + " and plane " +
                   std::to_string(pinned));
      }
      group.plane = pinned;
    }
    if (!group.members.empty()) groups.push_back(std::move(group));
  }

  // Accumulated fixed bias per plane, seeded by the explicit pins, drives
  // the election of unpinned groups.
  std::vector<double> plane_bias(static_cast<std::size_t>(num_planes), 0.0);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const int plane = out.fixed_of_gate[static_cast<std::size_t>(g)];
    if (plane != kUnassignedPlane) {
      plane_bias[static_cast<std::size_t>(plane)] += netlist.bias_of(g);
    }
  }

  // Heaviest groups first so they land on the emptiest planes; the stable
  // (bias desc, declaration index asc) order makes the election
  // deterministic across runs.
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (groups[a].bias != groups[b].bias) return groups[a].bias > groups[b].bias;
    return groups[a].index < groups[b].index;
  });
  for (std::size_t oi : order) {
    Group& group = groups[oi];
    int plane = group.plane;
    if (plane == kUnassignedPlane) {
      plane = 0;
      for (int k = 1; k < num_planes; ++k) {
        if (plane_bias[static_cast<std::size_t>(k)] <
            plane_bias[static_cast<std::size_t>(plane)]) {
          plane = k;
        }
      }
    }
    for (GateId gate : group.members) {
      if (auto status = fix_gate(netlist, out.fixed_of_gate, gate, plane);
          !status) {
        return status;
      }
    }
    plane_bias[static_cast<std::size_t>(plane)] += group.bias;
  }

  // Compact view: partitionable gates in ascending GateId order, matching
  // PartitionProblem::from_netlist.
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    const int plane = out.fixed_of_gate[static_cast<std::size_t>(g)];
    out.fixed_compact.push_back(plane);
    if (plane != kUnassignedPlane) ++out.num_fixed;
  }
  return out;
}

}  // namespace sfqpart
