// Netlist delta — the ECO (engineering change order) seam.
//
// A late netlist revision rarely rewrites the whole circuit: a few gates
// are added, a few removed, a few rewired. Re-partitioning from scratch
// throws the prior solution away and pays the full V-cycle again;
// compute_delta() instead diffs two netlists by gate name and
// warm_start_from() converts the prior partition into an
// InitialPartition over the revised netlist — unchanged gates keep their
// plane, added and rewired gates are left unassigned for the engine to
// place. The "eco" engine (core/engine.h registry) consumes exactly that
// warm start: it places the unassigned gates greedily and refines only
// the dirty region plus a configurable halo, instead of the whole graph.
//
// Change detection is structural, not positional: a gate counts as
// changed when its cell differs or its partitionable-neighbor set
// differs, detected by an order-independent adjacency signature (XOR of
// FNV-1a hashes of neighbor names, mixed with the cell index). GateIds
// may shift arbitrarily between revisions; names are the join key.
// The diff is linear in gates plus connections: each gate name is hashed
// once per netlist, the name join tries the `before` gate after the
// previous match before it probes the name index, and warm_start_from()
// reads that same join instead of repeating it. Both edge sets come from
// the netlists' memoized unique_edges(), so a prior diffed against a
// stream of revisions builds its edges once, and the engine's problem
// build reuses the edges the diff built for `after`.
#pragma once

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/partition.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace sfqpart {

// The blast radius of a netlist revision, relative to `after`'s ids.
struct NetlistDelta {
  // Partitionable `after` gates with no same-named gate in `before`.
  std::vector<GateId> added;
  // Names of partitionable `before` gates absent from `after`.
  std::vector<std::string> removed;
  // Partitionable `after` gates whose cell or partitionable-neighbor
  // set differs from the same-named `before` gate.
  std::vector<GateId> changed;
  // Partitionable `after` gates matched unchanged.
  int unchanged = 0;

  // Gates the warm start leaves unassigned (the dirty seeds).
  int dirty() const {
    return static_cast<int>(added.size() + changed.size());
  }
};

// Diffs two netlists by gate name (see header comment for the change
// criterion). Deterministic: `added`/`changed` ascend by `after` GateId,
// `removed` ascends by `before` GateId.
NetlistDelta compute_delta(const Netlist& before, const Netlist& after);

// Converts a partition of `before` into a warm start over `after`:
// unchanged gates inherit their plane, added/changed/IO gates stay
// kUnassignedPlane. Labels outside [0, num_planes) of the target run are
// the caller's responsibility (the engine adapter validates).
// Precondition (asserted): before_partition.plane_of.size() ==
// before.num_gates(); repartition() checks it and returns a Status.
InitialPartition warm_start_from(const Partition& before_partition,
                                 const Netlist& before, const Netlist& after);

// End-to-end ECO convenience: diff, build the warm start, run the "eco"
// engine on `after` with `context` (context.warm_start is overwritten).
// kInvalidArgument when `before_partition` does not cover `before`.
StatusOr<EngineRun> repartition(const Netlist& before,
                                const Partition& before_partition,
                                const Netlist& after, EngineContext context);

}  // namespace sfqpart
