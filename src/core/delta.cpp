#include "core/delta.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "util/hash.h"
#include "util/strings.h"

namespace sfqpart {
namespace {

// Order-independent structural signature of one gate: its cell index
// mixed with the XOR of its partitionable neighbors' name hashes.
// XOR makes the neighbor part independent of adjacency order; the
// splitmix-style finalizer on the cell index keeps "cell changed" from
// colliding with "one neighbor swapped".
std::uint64_t mix(std::uint64_t value) {
  value ^= value >> 33;
  value *= 0xff51afd7ed558ccdull;
  value ^= value >> 33;
  value *= 0xc4ceb9fe1a85ec53ull;
  value ^= value >> 33;
  return value;
}

// Per-gate signatures over the cost-relevant structure: the undirected
// deduplicated partitionable edge set (exactly what PartitionProblem
// extracts), plus the gate's cell. Each name is hashed once, not once
// per incident edge; XOR commutes, so the fold order does not matter.
std::vector<std::uint64_t> signatures(const Netlist& netlist) {
  const auto n = static_cast<std::size_t>(netlist.num_gates());
  std::vector<std::uint64_t> name_hash(n);
  std::vector<std::uint64_t> sig(n);
  for (std::size_t g = 0; g < n; ++g) {
    const Gate& gate = netlist.gate(static_cast<GateId>(g));
    name_hash[g] = Fnv1a64().update(gate.name.data, gate.name.len).digest();
    sig[g] = mix(static_cast<std::uint64_t>(gate.cell) + 1);
  }
  for (const Connection& edge : netlist.unique_edges()) {
    const auto a = static_cast<std::size_t>(edge.from);
    const auto b = static_cast<std::size_t>(edge.to);
    sig[a] ^= name_hash[b];
    sig[b] ^= name_hash[a];
  }
  return sig;
}

// The delta plus the name join it was computed from, so the warm start
// reads the join instead of looking every name up a second time.
struct Diff {
  NetlistDelta delta;
  // Per `after` gate: the same-named partitionable `before` gate, or
  // kInvalidGate (added and I/O gates).
  std::vector<GateId> before_of;
};

Diff diff(const Netlist& before, const Netlist& after) {
  const std::vector<std::uint64_t> before_sig = signatures(before);
  const std::vector<std::uint64_t> after_sig = signatures(after);

  Diff out;
  NetlistDelta& delta = out.delta;
  out.before_of.assign(static_cast<std::size_t>(after.num_gates()),
                       kInvalidGate);
  std::vector<char> matched(static_cast<std::size_t>(before.num_gates()), 0);
  for (GateId g = 0; g < after.num_gates(); ++g) {
    if (!after.is_partitionable(g)) continue;
    const GateId old = before.find_gate(after.gate(g).name.view());
    if (old == kInvalidGate || !before.is_partitionable(old)) {
      delta.added.push_back(g);
      continue;
    }
    matched[static_cast<std::size_t>(old)] = 1;
    out.before_of[static_cast<std::size_t>(g)] = old;
    if (before_sig[static_cast<std::size_t>(old)] !=
        after_sig[static_cast<std::size_t>(g)]) {
      delta.changed.push_back(g);
    } else {
      ++delta.unchanged;
    }
  }
  for (GateId g = 0; g < before.num_gates(); ++g) {
    if (!before.is_partitionable(g)) continue;
    if (!matched[static_cast<std::size_t>(g)]) {
      delta.removed.push_back(std::string(before.gate(g).name));
    }
  }
  return out;
}

}  // namespace

NetlistDelta compute_delta(const Netlist& before, const Netlist& after) {
  return diff(before, after).delta;
}

InitialPartition warm_start_from(const Partition& before_partition,
                                 const Netlist& before, const Netlist& after) {
  assert(static_cast<int>(before_partition.plane_of.size()) ==
             before.num_gates() &&
         "warm_start_from: the partition must cover `before`");
  const Diff joined = diff(before, after);
  InitialPartition warm;
  warm.plane_of.assign(static_cast<std::size_t>(after.num_gates()),
                       kUnassignedPlane);
  for (GateId g = 0; g < after.num_gates(); ++g) {
    const GateId old = joined.before_of[static_cast<std::size_t>(g)];
    if (old != kInvalidGate) {
      warm.plane_of[static_cast<std::size_t>(g)] = before_partition.plane(old);
    }
  }
  // Rewired survivors matched by name but are dirty seeds all the same.
  for (const GateId g : joined.delta.changed) {
    warm.plane_of[static_cast<std::size_t>(g)] = kUnassignedPlane;
  }
  return warm;
}

StatusOr<EngineRun> repartition(const Netlist& before,
                                const Partition& before_partition,
                                const Netlist& after, EngineContext context) {
  if (static_cast<int>(before_partition.plane_of.size()) !=
      before.num_gates()) {
    return Status::invalid_argument(str_format(
        "repartition: the prior partition covers %d gates, the prior "
        "netlist has %d",
        static_cast<int>(before_partition.plane_of.size()),
        before.num_gates()));
  }
  const InitialPartition warm =
      warm_start_from(before_partition, before, after);
  context.warm_start = &warm;
  StatusOr<std::unique_ptr<PartitionEngine>> engine =
      EngineRegistry::create("eco");
  if (!engine) return engine.status();
  return (*engine)->run(after, context);
}

}  // namespace sfqpart
