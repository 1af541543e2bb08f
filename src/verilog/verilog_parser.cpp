#include "verilog/verilog_parser.h"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "def/def_parser.h"
#include "def/lexer.h"
#include "util/strings.h"

namespace sfqpart {
namespace {

using def::Token;
using def::TokenStream;

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

// Verilog tokenizer: identifiers (plain and escaped), punctuation
// ( ) , ; . and both comment styles. Escaped identifiers lose their
// leading backslash; the trailing whitespace terminator is consumed.
TokenStream tokenize_verilog(const std::string& text) {
  std::vector<Token> tokens;
  int line = 1;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= text.size() ? i + 2 : text.size();
      continue;
    }
    if (c == '\\') {  // escaped identifier: up to the next whitespace
      std::size_t j = i + 1;
      while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      tokens.push_back(Token{text.substr(i + 1, j - i - 1), line});
      i = j;
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t j = i;
      while (j < text.size() && (is_ident_char(text[j]) || text[j] == '[' ||
                                 text[j] == ']' || text[j] == ':')) {
        ++j;
      }
      tokens.push_back(Token{text.substr(i, j - i), line});
      i = j;
      continue;
    }
    tokens.push_back(Token{std::string(1, c), line});
    ++i;
  }
  return TokenStream(std::move(tokens));
}

Status parse_id_list(TokenStream& ts, std::vector<std::string>& out) {
  for (;;) {
    if (ts.at_end()) return ts.error("unexpected end of file in declaration");
    out.push_back(ts.take());
    if (ts.accept(";")) return Status::ok();
    if (auto st = ts.expect(","); !st) return st;
  }
}

Status parse_instance(TokenStream& ts, const std::string& cell, VerilogModule& module) {
  VerilogInstance instance;
  instance.cell = cell;
  if (ts.at_end()) return ts.error("instance of " + cell + " needs a name");
  instance.name = ts.take();
  if (auto st = ts.expect("("); !st) return st;
  if (!ts.accept(")")) {
    for (;;) {
      if (auto st = ts.expect("."); !st) return st;
      VerilogPortConn conn;
      if (ts.at_end()) return ts.error("port connection needs a pin name");
      conn.pin = ts.take();
      if (auto st = ts.expect("("); !st) return st;
      if (ts.at_end()) return ts.error("port connection needs a net");
      conn.net = ts.take();
      if (auto st = ts.expect(")"); !st) return st;
      instance.connections.push_back(std::move(conn));
      if (ts.accept(")")) break;
      if (auto st = ts.expect(","); !st) return st;
    }
  }
  if (auto st = ts.expect(";"); !st) return st;
  module.instances.push_back(std::move(instance));
  return Status::ok();
}

}  // namespace

StatusOr<VerilogModule> parse_verilog(const std::string& text) {
  TokenStream ts = tokenize_verilog(text);
  VerilogModule module;

  if (auto st = ts.expect("module"); !st) return st;
  if (ts.at_end()) return ts.error("module needs a name");
  module.name = ts.take();
  if (ts.accept("(")) {
    // Port list is redundant with the input/output declarations; skip it.
    while (!ts.at_end() && !ts.accept(")")) ts.take();
  }
  if (auto st = ts.expect(";"); !st) return st;

  while (!ts.at_end()) {
    const std::string word = ts.take();
    if (word == "endmodule") {
      return module;
    } else if (word == "input") {
      if (auto st = parse_id_list(ts, module.inputs); !st) return st;
    } else if (word == "output") {
      if (auto st = parse_id_list(ts, module.outputs); !st) return st;
    } else if (word == "wire") {
      if (auto st = parse_id_list(ts, module.wires); !st) return st;
    } else if (word == "assign" || word == "always" || word == "reg" ||
               word == "initial" || word == "module") {
      return ts.error("behavioral construct '" + word +
                      "' is not supported (structural netlists only)");
    } else {
      if (auto st = parse_instance(ts, word, module); !st) return st;
    }
  }
  return ts.error("missing endmodule");
}

StatusOr<VerilogModule> read_verilog_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_verilog(buffer.str());
}

StatusOr<Netlist> verilog_to_netlist(const VerilogModule& module,
                                     const CellLibrary& library) {
  Netlist netlist(&library, module.name);

  struct Endpoint {
    GateId gate;
    int pin;
    bool is_clock;
  };
  std::map<std::string, Endpoint> driver_of;
  std::map<std::string, std::vector<Endpoint>> sinks_of;

  // Ports become gates named "pin:<port>"; a port declared twice (as
  // input, output or both) would name two gates alike.
  const auto add_port = [&](const std::string& port,
                            CellKind kind) -> StatusOr<GateId> {
    const std::string name = "pin:" + port;
    if (netlist.find_gate(name) != kInvalidGate) {
      return Status::error("duplicate port '" + port + "'");
    }
    return netlist.add_gate_of_kind(name, kind);
  };
  for (const std::string& port : module.inputs) {
    const auto g = add_port(port, CellKind::kInput);
    if (!g) return g.status();
    driver_of.emplace(port, Endpoint{*g, 0, false});
  }
  for (const std::string& port : module.outputs) {
    const auto g = add_port(port, CellKind::kOutput);
    if (!g) return g.status();
    sinks_of[port].push_back(Endpoint{*g, 0, false});
  }

  for (const VerilogInstance& instance : module.instances) {
    const auto cell_index = library.find(instance.cell);
    if (!cell_index) {
      return Status::error("instance '" + instance.name + "': unknown cell '" +
                           instance.cell + "'");
    }
    if (netlist.find_gate(instance.name) != kInvalidGate) {
      return Status::error("duplicate instance name '" + instance.name + "'");
    }
    const GateId g = netlist.add_gate(instance.name, *cell_index);
    const Cell& cell = library.cell(*cell_index);
    for (const VerilogPortConn& conn : instance.connections) {
      auto resolved = def::resolve_standard_pin(cell, conn.pin);
      if (!resolved) {
        return Status::error("instance '" + instance.name + "': " +
                             resolved.status().message());
      }
      if (resolved->is_output) {
        if (driver_of.count(conn.net) != 0) {
          return Status::error("net '" + conn.net + "': multiple drivers");
        }
        driver_of.emplace(conn.net, Endpoint{g, resolved->index, false});
      } else {
        sinks_of[conn.net].push_back(Endpoint{g, resolved->index, resolved->is_clock});
      }
    }
  }

  for (const auto& [net, sinks] : sinks_of) {
    const auto driver = driver_of.find(net);
    if (driver == driver_of.end()) {
      return Status::error("net '" + net + "': no driver");
    }
    for (const Endpoint& sink : sinks) {
      const NetId taken = sink.is_clock ? netlist.clock_net(sink.gate)
                                        : netlist.input_net(sink.gate, sink.pin);
      if (taken != kInvalidNet) {
        return Status::error("gate '" + netlist.gate(sink.gate).name +
                             "': input pin connected twice");
      }
      if (sink.is_clock) {
        netlist.connect_clock(driver->second.gate, driver->second.pin, sink.gate);
      } else {
        netlist.connect(driver->second.gate, driver->second.pin, sink.gate, sink.pin);
      }
    }
  }
  return netlist;
}

}  // namespace sfqpart
