#include "netlist/netlist.h"

#include <algorithm>
#include <cassert>

namespace sfqpart {
namespace {

bool is_io_kind(CellKind kind) {
  return kind == CellKind::kInput || kind == CellKind::kOutput;
}

}  // namespace

Netlist::Netlist(const CellLibrary* library, std::string name)
    : name_(std::move(name)),
      library_(library),
      arena_(std::make_shared<NameArena>()) {
  assert(library_ != nullptr);
}

GateId Netlist::add_gate(std::string_view name, int cell_index) {
  assert(cell_index >= 0 && cell_index < library_->num_cells());
  const auto name_of = [this](GateId g) {
    return gates_[static_cast<std::size_t>(g)].name.view();
  };
  assert(gate_name_index_.find(name, name_of) == NameIndex::kAbsent &&
         "duplicate gate name");
  const GateId id = static_cast<GateId>(gates_.size());
  const NameRef interned = arena_->intern(name);
  gates_.push_back(Gate{interned, cell_index});
  gate_name_index_.insert(interned.view(), id, name_of);
  const Cell& cell = library_->cell(cell_index);
  input_nets_.emplace_back(static_cast<std::size_t>(cell.num_inputs), kInvalidNet);
  output_nets_.emplace_back(static_cast<std::size_t>(cell.num_outputs), kInvalidNet);
  clock_nets_.push_back(kInvalidNet);
  return id;
}

GateId Netlist::add_gate_of_kind(std::string_view name, CellKind kind) {
  const auto cell = library_->find_kind(kind);
  assert(cell.has_value() && "library has no cell of requested kind");
  return add_gate(name, *cell);
}

NetId Netlist::net_for_output(GateId from, int out_pin, std::string_view fallback_name) {
  auto& outputs = output_nets_.at(static_cast<std::size_t>(from));
  assert(out_pin >= 0 && out_pin < static_cast<int>(outputs.size()));
  NetId& slot = outputs[static_cast<std::size_t>(out_pin)];
  if (slot == kInvalidNet) {
    slot = static_cast<NetId>(nets_.size());
    Net net;
    net.name = arena_->intern(fallback_name);
    net.driver = PinRef{from, out_pin};
    nets_.push_back(std::move(net));
  }
  return slot;
}

NetId Netlist::connect(GateId from, int out_pin, GateId to, int in_pin) {
  const Cell& sink_cell = cell_of(to);
  assert(in_pin >= 0 && in_pin < sink_cell.num_inputs);
  (void)sink_cell;
  auto& inputs = input_nets_.at(static_cast<std::size_t>(to));
  assert(inputs[static_cast<std::size_t>(in_pin)] == kInvalidNet &&
         "input pin already connected");
  const NetId net_id =
      net_for_output(from, out_pin, gate(from).name + "_o" + std::to_string(out_pin));
  nets_[static_cast<std::size_t>(net_id)].sinks.push_back(PinRef{to, in_pin});
  inputs[static_cast<std::size_t>(in_pin)] = net_id;
  return net_id;
}

NetId Netlist::connect_clock(GateId from, int out_pin, GateId to) {
  assert(cell_of(to).is_clocked() && "clock connection to unclocked cell");
  assert(clock_nets_.at(static_cast<std::size_t>(to)) == kInvalidNet &&
         "clock pin already connected");
  const NetId net_id =
      net_for_output(from, out_pin, gate(from).name + "_o" + std::to_string(out_pin));
  nets_[static_cast<std::size_t>(net_id)].sinks.push_back(PinRef{to, kClockPin});
  clock_nets_[static_cast<std::size_t>(to)] = net_id;
  return net_id;
}

GateId Netlist::find_gate(std::string_view name) const {
  return gate_name_index_.find(name, [this](GateId g) {
    return gates_[static_cast<std::size_t>(g)].name.view();
  });
}

bool Netlist::is_io(GateId id) const { return is_io_kind(cell_of(id).kind); }

int Netlist::num_partitionable_gates() const {
  int count = 0;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (is_partitionable(g)) ++count;
  }
  return count;
}

NetId Netlist::output_net(GateId id, int out_pin) const {
  const auto& outputs = output_nets_.at(static_cast<std::size_t>(id));
  assert(out_pin >= 0 && out_pin < static_cast<int>(outputs.size()));
  return outputs[static_cast<std::size_t>(out_pin)];
}

NetId Netlist::input_net(GateId id, int in_pin) const {
  const auto& inputs = input_nets_.at(static_cast<std::size_t>(id));
  assert(in_pin >= 0 && in_pin < static_cast<int>(inputs.size()));
  return inputs[static_cast<std::size_t>(in_pin)];
}

NetId Netlist::clock_net(GateId id) const {
  return clock_nets_.at(static_cast<std::size_t>(id));
}

int Netlist::fanout(GateId id) const {
  int count = 0;
  for (const NetId net_id : output_nets_.at(static_cast<std::size_t>(id))) {
    if (net_id != kInvalidNet) {
      count += static_cast<int>(net(net_id).sinks.size());
    }
  }
  return count;
}

std::vector<Connection> Netlist::connections() const {
  std::vector<Connection> out;
  for (const Net& n : nets_) {
    if (n.driver.gate == kInvalidGate) continue;
    for (const PinRef& sink : n.sinks) {
      out.push_back(Connection{n.driver.gate, sink.gate});
    }
  }
  return out;
}

std::vector<Connection> Netlist::unique_edges() const {
  // Linear time: the canonical (lo, hi) pairs are bucketed by lo with a
  // counting pass, then each bucket (about 1.5 entries on a mapped
  // netlist) is sorted by hi and deduplicated on its own. Reading the
  // buckets in lo order gives exactly what a global (lo, hi) sort plus
  // unique would.
  std::vector<char> partitionable_cell;
  for (int c = 0; c < library_->num_cells(); ++c) {
    partitionable_cell.push_back(!is_io_kind(library_->cell(c).kind));
  }
  const std::size_t n = gates_.size();
  std::vector<char> partitionable(n);
  for (std::size_t g = 0; g < n; ++g) {
    partitionable[g] =
        partitionable_cell[static_cast<std::size_t>(gates_[g].cell)];
  }
  const auto for_each_pair = [&](auto&& visit) {
    for (const Net& net : nets_) {
      const GateId driver = net.driver.gate;
      if (driver == kInvalidGate) continue;
      if (!partitionable[static_cast<std::size_t>(driver)]) continue;
      for (const PinRef& sink : net.sinks) {
        if (!partitionable[static_cast<std::size_t>(sink.gate)]) continue;
        if (sink.gate == driver) continue;  // self loops carry no cost
        visit(std::min(driver, sink.gate), std::max(driver, sink.gate));
      }
    }
  };

  // bucket[lo] first counts lo's pairs, then (prefix sums) marks the end
  // of its slice of `hi`; the scatter fills each slice from the back, so
  // afterwards bucket[lo] is the slice's begin and bucket[lo + 1] its end.
  std::vector<std::uint32_t> bucket(n + 1, 0);
  for_each_pair(
      [&](GateId lo, GateId) { ++bucket[static_cast<std::size_t>(lo)]; });
  for (std::size_t g = 1; g <= n; ++g) bucket[g] += bucket[g - 1];
  std::vector<GateId> hi(bucket[n]);
  for_each_pair([&](GateId lo, GateId h) {
    hi[--bucket[static_cast<std::size_t>(lo)]] = h;
  });

  // Reserved for every pair; only duplicate pairs leave slack.
  std::vector<Connection> edges;
  edges.reserve(hi.size());
  for (std::size_t lo = 0; lo < n; ++lo) {
    const auto first = hi.begin() + bucket[lo];
    const auto last = hi.begin() + bucket[lo + 1];
    std::sort(first, last);
    for (auto it = first; it != last; ++it) {
      if (it == first || *it != it[-1]) {
        edges.push_back(Connection{static_cast<GateId>(lo), *it});
      }
    }
  }
  return edges;
}

double Netlist::total_bias_ma() const {
  double total = 0.0;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (is_partitionable(g)) total += bias_of(g);
  }
  return total;
}

double Netlist::total_area_um2() const {
  double total = 0.0;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (is_partitionable(g)) total += area_of(g);
  }
  return total;
}

std::vector<GateId> Netlist::topological_order() const {
  // Kahn's algorithm over data edges (clock edges excluded: the clock
  // network may be generated after data-path construction and can reuse
  // splitters fed by logic, which must not create ordering constraints).
  std::vector<int> in_degree(static_cast<std::size_t>(num_gates()), 0);
  for (const Net& n : nets_) {
    if (n.driver.gate == kInvalidGate) continue;
    for (const PinRef& sink : n.sinks) {
      if (sink.pin == kClockPin) continue;
      ++in_degree[static_cast<std::size_t>(sink.gate)];
    }
  }
  std::vector<GateId> ready;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (in_degree[static_cast<std::size_t>(g)] == 0) ready.push_back(g);
  }
  std::vector<GateId> order;
  order.reserve(static_cast<std::size_t>(num_gates()));
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    const auto& outputs = output_nets_[static_cast<std::size_t>(g)];
    for (const NetId net_id : outputs) {
      if (net_id == kInvalidNet) continue;
      for (const PinRef& sink : net(net_id).sinks) {
        if (sink.pin == kClockPin) continue;
        if (--in_degree[static_cast<std::size_t>(sink.gate)] == 0) {
          ready.push_back(sink.gate);
        }
      }
    }
  }
  assert(static_cast<int>(order.size()) == num_gates() &&
         "combinational cycle in netlist");
  return order;
}

}  // namespace sfqpart
