// Partition persistence: gate -> plane assignments as CSV, so partitions
// can be archived, diffed, hand-edited, and re-evaluated (`sfqpart
// evaluate`). The format matches what `sfqpart partition --csv` writes:
// a header row `gate,cell,plane` followed by one row per gate.
#pragma once

#include <string>

#include "core/partition.h"
#include "util/status.h"

namespace sfqpart {

Status save_partition_csv(const std::string& path, const Netlist& netlist,
                          const Partition& partition);

// Loads and cross-checks against `netlist`: unknown gate names, missing
// partitionable gates, cell-name mismatches and negative planes are
// errors. num_planes is max(plane)+1 unless every row is smaller than a
// previously saved K (planes may legitimately be empty -- kept as-is).
StatusOr<Partition> load_partition_csv(const std::string& path,
                                       const Netlist& netlist);
StatusOr<Partition> parse_partition_csv(const std::string& text,
                                        const Netlist& netlist);

// Lenient loaders for ECO warm starts: the CSV typically comes from a
// *previous revision* of the netlist, so rows naming gates absent from
// `netlist` are silently skipped (removed gates) and partitionable gates
// missing from the file stay kUnassignedPlane (added gates — the dirty
// seeds). Malformed rows, cell mismatches, negative planes and a gate
// listed twice are still errors; a file assigning nothing at all is
// accepted (everything dirty).
StatusOr<InitialPartition> load_warm_start_csv(const std::string& path,
                                               const Netlist& netlist);
StatusOr<InitialPartition> parse_warm_start_csv(const std::string& text,
                                                const Netlist& netlist);

}  // namespace sfqpart
