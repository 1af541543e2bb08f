#include "core/partition_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "util/strings.h"

namespace sfqpart {

Status save_partition_csv(const std::string& path, const Netlist& netlist,
                          const Partition& partition) {
  CsvWriter csv({"gate", "cell", "plane"});
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    csv.add_row({netlist.gate(g).name, netlist.cell_of(g).name,
                 std::to_string(partition.plane(g))});
  }
  return csv.write_file(path);
}

StatusOr<Partition> parse_partition_csv(const std::string& text,
                                        const Netlist& netlist) {
  auto doc = parse_csv(text);
  if (!doc) return doc.status();
  if (doc->header != std::vector<std::string>{"gate", "cell", "plane"}) {
    return Status::error("unexpected header; want gate,cell,plane");
  }

  Partition partition;
  partition.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                            kUnassignedPlane);
  for (const auto& row : doc->rows) {
    const GateId gate = netlist.find_gate(row[0]);
    if (gate == kInvalidGate) {
      return Status::error("unknown gate '" + row[0] + "'");
    }
    if (netlist.cell_of(gate).name != row[1]) {
      return Status::error(str_format("gate '%s' is a %s here, %s in the file",
                                      row[0].c_str(),
                                      netlist.cell_of(gate).name.c_str(),
                                      row[1].c_str()));
    }
    const auto plane = parse_int(row[2]);
    // The upper bound also guards the narrowing cast below: a plane like
    // 5000000000 would otherwise wrap to a negative int.
    if (!plane || *plane < 0 ||
        *plane > static_cast<long long>(std::numeric_limits<int>::max() - 1)) {
      return Status::error("bad plane '" + row[2] + "' for gate '" + row[0] + "'");
    }
    if (partition.plane_of[static_cast<std::size_t>(gate)] != kUnassignedPlane) {
      return Status::error("gate '" + row[0] + "' assigned twice");
    }
    partition.plane_of[static_cast<std::size_t>(gate)] = static_cast<int>(*plane);
    partition.num_planes =
        std::max(partition.num_planes, static_cast<int>(*plane) + 1);
  }
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g) && !partition.assigned(g)) {
      return Status::error("gate '" + netlist.gate(g).name + "' has no plane");
    }
  }
  if (partition.num_planes < 1) return Status::error("empty assignment");
  return partition;
}

StatusOr<Partition> load_partition_csv(const std::string& path,
                                       const Netlist& netlist) {
  std::ifstream file(path);
  if (!file) return Status::error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_partition_csv(buffer.str(), netlist);
}

StatusOr<InitialPartition> parse_warm_start_csv(const std::string& text,
                                                const Netlist& netlist) {
  auto doc = parse_csv(text);
  if (!doc) return doc.status();
  if (doc->header != std::vector<std::string>{"gate", "cell", "plane"}) {
    return Status::error("unexpected header; want gate,cell,plane");
  }

  InitialPartition warm;
  warm.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                       kUnassignedPlane);
  for (const auto& row : doc->rows) {
    const GateId gate = netlist.find_gate(row[0]);
    // Names absent from this netlist were removed since the seed
    // partition was saved; their rows are simply stale.
    if (gate == kInvalidGate) continue;
    if (netlist.cell_of(gate).name != row[1]) {
      return Status::error(str_format("gate '%s' is a %s here, %s in the file",
                                      row[0].c_str(),
                                      netlist.cell_of(gate).name.c_str(),
                                      row[1].c_str()));
    }
    const auto plane = parse_int(row[2]);
    if (!plane || *plane < 0 ||
        *plane > static_cast<long long>(std::numeric_limits<int>::max() - 1)) {
      return Status::error("bad plane '" + row[2] + "' for gate '" + row[0] + "'");
    }
    if (warm.plane_of[static_cast<std::size_t>(gate)] != kUnassignedPlane) {
      return Status::error("gate '" + row[0] + "' assigned twice");
    }
    warm.plane_of[static_cast<std::size_t>(gate)] = static_cast<int>(*plane);
  }
  return warm;
}

StatusOr<InitialPartition> load_warm_start_csv(const std::string& path,
                                               const Netlist& netlist) {
  std::ifstream file(path);
  if (!file) return Status::error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_warm_start_csv(buffer.str(), netlist);
}

}  // namespace sfqpart
