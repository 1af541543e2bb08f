#include "def/def_parser.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "def/lexer.h"
#include "util/strings.h"

namespace sfqpart::def {
namespace {

PinDirection parse_direction(const std::string& text) {
  const std::string upper = to_upper(text);
  if (upper == "INPUT") return PinDirection::kInput;
  if (upper == "OUTPUT") return PinDirection::kOutput;
  if (upper == "INOUT") return PinDirection::kInout;
  return PinDirection::kUnknown;
}

Status parse_point(TokenStream& ts, DefPoint& point) {
  if (auto st = ts.expect("("); !st) return st;
  auto x = ts.take_int();
  if (!x) return x.status();
  auto y = ts.take_int();
  if (!y) return y.status();
  if (auto st = ts.expect(")"); !st) return st;
  point.x = *x;
  point.y = *y;
  return Status::ok();
}

// Skips the value tokens of an unknown `+ KEYWORD ...` property, stopping
// before the next `+` or the statement's `;`.
void skip_property(TokenStream& ts) {
  while (!ts.at_end() && ts.peek() != "+" && ts.peek() != ";") ts.take();
}

Status parse_component(TokenStream& ts, DefDesign& design) {
  if (ts.at_end()) return ts.error("component needs a name");
  DefComponent comp;
  comp.name = ts.take();
  if (ts.at_end()) return ts.error("component '" + comp.name + "' needs a macro");
  comp.macro = ts.take();
  while (ts.accept("+")) {
    if (ts.at_end()) return ts.error("dangling '+'");
    const std::string keyword = to_upper(ts.take());
    if (keyword == "PLACED" || keyword == "FIXED") {
      if (auto st = parse_point(ts, comp.location); !st) return st;
      if (ts.at_end()) return ts.error("placement needs an orientation");
      comp.orient = ts.take();
      comp.placed = true;
    } else if (keyword == "UNPLACED") {
      comp.placed = false;
    } else {
      skip_property(ts);
    }
  }
  if (auto st = ts.expect(";"); !st) return st;
  design.components.push_back(std::move(comp));
  return Status::ok();
}

Status parse_pin(TokenStream& ts, DefDesign& design) {
  if (ts.at_end()) return ts.error("pin needs a name");
  DefPin pin;
  pin.name = ts.take();
  while (ts.accept("+")) {
    if (ts.at_end()) return ts.error("dangling '+'");
    const std::string keyword = to_upper(ts.take());
    if (keyword == "NET") {
      if (ts.at_end()) return ts.error("NET needs a name");
      pin.net = ts.take();
    } else if (keyword == "DIRECTION") {
      if (ts.at_end()) return ts.error("DIRECTION needs a value");
      pin.direction = parse_direction(ts.take());
    } else {
      skip_property(ts);
    }
  }
  if (auto st = ts.expect(";"); !st) return st;
  design.pins.push_back(std::move(pin));
  return Status::ok();
}

Status parse_net(TokenStream& ts, DefDesign& design) {
  if (ts.at_end()) return ts.error("net needs a name");
  DefNet net;
  net.name = ts.take();
  while (!ts.at_end() && ts.peek() == "(") {
    ts.take();
    if (ts.at_end()) return ts.error("net term needs a component");
    DefNetConn conn;
    conn.component = ts.take();
    if (ts.at_end()) return ts.error("net term needs a pin");
    conn.pin = ts.take();
    if (auto st = ts.expect(")"); !st) return st;
    net.connections.push_back(std::move(conn));
  }
  while (ts.accept("+")) {
    if (ts.at_end()) return ts.error("dangling '+'");
    ts.take();  // keyword
    skip_property(ts);
  }
  if (auto st = ts.expect(";"); !st) return st;
  design.nets.push_back(std::move(net));
  return Status::ok();
}

// Parses a `COMPONENTS <n> ; - ... ; END COMPONENTS`-style section.
Status parse_section(TokenStream& ts, const std::string& section, DefDesign& design,
                     Status (*item_parser)(TokenStream&, DefDesign&)) {
  auto count = ts.take_int();
  if (!count) return count.status();
  if (auto st = ts.expect(";"); !st) return st;
  while (ts.accept("-")) {
    if (auto st = item_parser(ts, design); !st) return st;
  }
  if (auto st = ts.expect("END"); !st) return st;
  return ts.expect(section);
}

}  // namespace

const DefComponent* DefDesign::find_component(const std::string& comp_name) const {
  for (const DefComponent& comp : components) {
    if (comp.name == comp_name) return &comp;
  }
  return nullptr;
}

double DefDesign::die_area_mm2() const {
  const double w = static_cast<double>(die_hi.x - die_lo.x) / dbu_per_micron;
  const double h = static_cast<double>(die_hi.y - die_lo.y) / dbu_per_micron;
  return w * h * 1e-6;
}

StatusOr<DefDesign> parse_def(const std::string& text) {
  TokenStream ts = tokenize(text);
  DefDesign design;
  bool saw_design = false;
  while (!ts.at_end()) {
    const std::string word = to_upper(ts.take());
    if (word == "DESIGN") {
      if (ts.at_end()) return ts.error("DESIGN needs a name");
      design.name = ts.take();
      saw_design = true;
      if (auto st = ts.expect(";"); !st) return st;
    } else if (word == "UNITS") {
      if (auto st = ts.expect("DISTANCE"); !st) return st;
      if (auto st = ts.expect("MICRONS"); !st) return st;
      auto dbu = ts.take_int();
      if (!dbu) return dbu.status();
      if (*dbu <= 0) return ts.error("UNITS must be positive");
      design.dbu_per_micron = static_cast<int>(*dbu);
      if (auto st = ts.expect(";"); !st) return st;
    } else if (word == "DIEAREA") {
      if (auto st = parse_point(ts, design.die_lo); !st) return st;
      if (auto st = parse_point(ts, design.die_hi); !st) return st;
      if (auto st = ts.expect(";"); !st) return st;
    } else if (word == "COMPONENTS") {
      if (auto st = parse_section(ts, "COMPONENTS", design, parse_component); !st) return st;
    } else if (word == "PINS") {
      if (auto st = parse_section(ts, "PINS", design, parse_pin); !st) return st;
    } else if (word == "NETS") {
      if (auto st = parse_section(ts, "NETS", design, parse_net); !st) return st;
    } else if (word == "END") {
      if (!ts.at_end() && to_upper(ts.peek()) == "DESIGN") {
        ts.take();
        break;
      }
      return ts.error("unexpected END");
    } else {
      // VERSION, DIVIDERCHAR, BUSBITCHARS, TRACKS, ROW, ...
      ts.skip_statement();
    }
  }
  if (!saw_design) return Status::error("no DESIGN statement found");
  return design;
}

StatusOr<DefDesign> read_def_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_def(buffer.str());
}

// Inverts the standard pin naming convention for a library cell.
StatusOr<ResolvedPin> resolve_standard_pin(const Cell& cell,
                                           const std::string& pin_name) {
  ResolvedPin resolved;
  if (pin_name == kClockPinName) {
    if (!cell.is_clocked()) {
      return Status::error("cell " + cell.name + " has no clock pin");
    }
    resolved.is_clock = true;
    return resolved;
  }
  if (pin_name == "Q" && cell.num_outputs == 1) {
    resolved.is_output = true;
    return resolved;
  }
  if (pin_name.size() >= 2 && pin_name[0] == 'Q') {
    const auto index = parse_int(pin_name.substr(1));
    if (index && *index >= 0 && *index < cell.num_outputs) {
      resolved.is_output = true;
      resolved.index = static_cast<int>(*index);
      return resolved;
    }
  }
  if (!pin_name.empty() && pin_name[0] >= 'A' && pin_name[0] <= 'Z') {
    int index = pin_name[0] - 'A';
    if (pin_name.size() > 1) {
      const auto suffix = parse_int(pin_name.substr(1));
      if (!suffix) return Status::error("unknown pin name: " + pin_name);
      index += 26 * static_cast<int>(*suffix);
    }
    if (index < cell.num_inputs) {
      resolved.index = index;
      return resolved;
    }
  }
  return Status::error("cell " + cell.name + " has no pin '" + pin_name + "'");
}

StatusOr<Netlist> def_to_netlist(const DefDesign& design, const CellLibrary& library) {
  Netlist netlist(&library, design.name);

  std::unordered_map<std::string, GateId> comp_gate;
  comp_gate.reserve(design.components.size());
  for (const DefComponent& comp : design.components) {
    const auto cell = library.find(comp.macro);
    if (!cell) {
      return Status::error("component '" + comp.name + "': unknown macro '" +
                           comp.macro + "'");
    }
    if (netlist.find_gate(comp.name) != kInvalidGate) {
      return Status::error("duplicate component '" + comp.name + "'");
    }
    comp_gate.emplace(comp.name, netlist.add_gate(comp.name, *cell));
  }

  std::unordered_map<std::string, GateId> pin_gate;
  for (const DefPin& pin : design.pins) {
    CellKind kind;
    switch (pin.direction) {
      case PinDirection::kInput:
        kind = CellKind::kInput;
        break;
      case PinDirection::kOutput:
        kind = CellKind::kOutput;
        break;
      default:
        return Status::error("pin '" + pin.name + "': unsupported direction");
    }
    // Pins become gates named "pin:<pin>", so a repeated PIN and a
    // COMPONENT that already holds that name collide alike.
    const std::string gate_name = "pin:" + pin.name;
    if (netlist.find_gate(gate_name) != kInvalidGate) {
      return Status::error("pin '" + pin.name + "': gate name '" + gate_name +
                           "' is already taken");
    }
    pin_gate.emplace(pin.name, netlist.add_gate_of_kind(gate_name, kind));
  }

  for (const DefNet& net : design.nets) {
    struct Endpoint {
      GateId gate;
      ResolvedPin pin;
      const DefNetConn* conn;
    };
    Endpoint driver{kInvalidGate, {}, nullptr};
    std::vector<Endpoint> sinks;
    for (const DefNetConn& conn : net.connections) {
      GateId gate;
      ResolvedPin resolved;
      if (conn.is_top_pin()) {
        auto it = pin_gate.find(conn.pin);
        if (it == pin_gate.end()) {
          return Status::error("net '" + net.name + "': unknown top pin '" +
                               conn.pin + "'");
        }
        gate = it->second;
        // An INPUT chip pin drives the net; an OUTPUT chip pin sinks it.
        resolved.is_output = netlist.cell_of(gate).kind == CellKind::kInput;
      } else {
        auto it = comp_gate.find(conn.component);
        if (it == comp_gate.end()) {
          return Status::error("net '" + net.name + "': unknown component '" +
                               conn.component + "'");
        }
        gate = it->second;
        auto r = resolve_standard_pin(netlist.cell_of(gate), conn.pin);
        if (!r) return Status::error("net '" + net.name + "': " + r.status().message());
        resolved = *r;
      }
      if (resolved.is_output) {
        if (driver.gate != kInvalidGate) {
          return Status::error("net '" + net.name + "': multiple drivers");
        }
        driver = Endpoint{gate, resolved, &conn};
      } else {
        sinks.push_back(Endpoint{gate, resolved, &conn});
      }
    }
    if (driver.gate == kInvalidGate) {
      return Status::error("net '" + net.name + "': no driver");
    }
    for (const Endpoint& sink : sinks) {
      // An input or clock pin takes one net: a second (or the same pin
      // listed twice in one net) would overwrite the pin's net while
      // the first net kept the sink.
      const NetId taken = sink.pin.is_clock
                              ? netlist.clock_net(sink.gate)
                              : netlist.input_net(sink.gate, sink.pin.index);
      if (taken != kInvalidNet) {
        const DefNetConn& conn = *sink.conn;
        return Status::error(
            "net '" + net.name + "': " +
            (conn.is_top_pin() ? "pin '" + conn.pin + "'"
                               : "component '" + conn.component + "' pin '" +
                                     conn.pin + "'") +
            ": input pin connected twice");
      }
      if (sink.pin.is_clock) {
        netlist.connect_clock(driver.gate, driver.pin.index, sink.gate);
      } else {
        netlist.connect(driver.gate, driver.pin.index, sink.gate, sink.pin.index);
      }
    }
  }
  return netlist;
}

}  // namespace sfqpart::def
