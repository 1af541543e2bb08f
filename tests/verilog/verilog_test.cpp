#include "verilog/verilog_parser.h"
#include "verilog/verilog_writer.h"

#include <gtest/gtest.h>

#include "gen/sim.h"
#include "gen/suite.h"
#include "netlist/stats.h"
#include "netlist/validate.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

constexpr const char* kSample = R"(
// hand-written sample
module demo (a, b, y);
  input a, b;
  output y;
  wire w1;  /* the AND output
               spans a block comment */
  wire w2;
  AND2T g1 (.A(a), .B(b), .Q(w1));
  DFFT  g2 (.A(w1), .Q(w2));
  JTL   g3 (.A(w2), .Q(y));
endmodule
)";

TEST(VerilogParser, ParsesSampleModule) {
  auto module = parse_verilog(kSample);
  ASSERT_TRUE(module.is_ok()) << module.status().message();
  EXPECT_EQ(module->name, "demo");
  EXPECT_EQ(module->inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(module->outputs, (std::vector<std::string>{"y"}));
  EXPECT_EQ(module->wires.size(), 2u);
  ASSERT_EQ(module->instances.size(), 3u);
  EXPECT_EQ(module->instances[0].cell, "AND2T");
  EXPECT_EQ(module->instances[0].name, "g1");
  ASSERT_EQ(module->instances[0].connections.size(), 3u);
  EXPECT_EQ(module->instances[0].connections[0].pin, "A");
  EXPECT_EQ(module->instances[0].connections[0].net, "a");
}

TEST(VerilogParser, EscapedIdentifiers) {
  const char* text =
      "module m (\\a[0] );\n  input \\a[0] ;\n"
      "  SFQDC g (.A(\\a[0] ));\nendmodule\n";
  auto module = parse_verilog(text);
  ASSERT_TRUE(module.is_ok()) << module.status().message();
  EXPECT_EQ(module->inputs[0], "a[0]");
  EXPECT_EQ(module->instances[0].connections[0].net, "a[0]");
}

TEST(VerilogParser, RejectsBehavioralConstructs) {
  const auto result =
      parse_verilog("module m ();\n  assign x = y;\nendmodule\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("behavioral"), std::string::npos);
}

TEST(VerilogParser, RejectsTruncatedModule) {
  EXPECT_FALSE(parse_verilog("module m ();\n  wire w;\n").is_ok());
  EXPECT_FALSE(parse_verilog("").is_ok());
}

TEST(VerilogToNetlist, BuildsConnectivity) {
  auto module = parse_verilog(kSample);
  ASSERT_TRUE(module.is_ok());
  auto netlist = verilog_to_netlist(*module, default_sfq_library());
  ASSERT_TRUE(netlist.is_ok()) << netlist.status().message();
  EXPECT_EQ(netlist->num_partitionable_gates(), 3);
  const GateId g1 = netlist->find_gate("g1");
  const GateId g2 = netlist->find_gate("g2");
  ASSERT_NE(g1, kInvalidGate);
  const NetId w1 = netlist->output_net(g1, 0);
  ASSERT_NE(w1, kInvalidNet);
  EXPECT_EQ(netlist->net(w1).sinks[0].gate, g2);
  EXPECT_TRUE(validate(*netlist).ok());
}

TEST(VerilogToNetlist, ErrorsAreStatuses) {
  {
    auto module = parse_verilog(
        "module m ();\n  NOSUCH g (.A(x));\nendmodule\n");
    ASSERT_TRUE(module.is_ok());
    EXPECT_FALSE(verilog_to_netlist(*module, default_sfq_library()).is_ok());
  }
  {
    auto module = parse_verilog(
        "module m (y);\n  output y;\n  DFFT g (.A(nowhere), .Q(y));\nendmodule\n");
    ASSERT_TRUE(module.is_ok());
    EXPECT_FALSE(verilog_to_netlist(*module, default_sfq_library()).is_ok());
  }
  {
    auto module = parse_verilog(
        "module m (a);\n  input a;\n  DFFT g1 (.A(a), .Q(x));\n"
        "  DFFT g1 (.A(x), .Q(z));\nendmodule\n");
    ASSERT_TRUE(module.is_ok());
    EXPECT_FALSE(verilog_to_netlist(*module, default_sfq_library()).is_ok());
  }
}

// Ports become gates named "pin:<port>": a port declared twice would
// name two gates alike, so it is an error naming the port.
TEST(VerilogToNetlist, RejectsDuplicatePorts) {
  for (const char* text :
       {"module m (a, y);\n  input a;\n  input a;\n  output y;\n"
        "  JTL g (.A(a), .Q(y));\nendmodule\n",
        "module m (a);\n  input a, a;\n  output y;\n"
        "  JTL g (.A(a), .Q(y));\nendmodule\n",
        "module m (a);\n  input a;\n  output a;\nendmodule\n"}) {
    auto module = parse_verilog(text);
    ASSERT_TRUE(module.is_ok()) << module.status().message();
    const auto netlist = verilog_to_netlist(*module, default_sfq_library());
    ASSERT_FALSE(netlist.is_ok()) << text;
    EXPECT_NE(netlist.status().message().find("duplicate port 'a'"),
              std::string::npos)
        << netlist.status().message();
  }
}

class VerilogRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(VerilogRoundTrip, PreservesStructureAndFunction) {
  const Netlist original = build_mapped(GetParam());
  const std::string text = write_verilog(original);
  auto module = parse_verilog(text);
  ASSERT_TRUE(module.is_ok()) << module.status().message();
  auto parsed = verilog_to_netlist(*module, original.library());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();

  const NetlistStats before = compute_stats(original);
  const NetlistStats after = compute_stats(*parsed);
  EXPECT_EQ(after.num_gates, before.num_gates);
  EXPECT_EQ(after.num_connections, before.num_connections);
  EXPECT_EQ(after.by_kind, before.by_kind);
  EXPECT_TRUE(validate(*parsed).ok());

  // Word-level function survives the round trip.
  if (std::string(GetParam()) == "ksa4") {
    Rng rng(1);
    for (int trial = 0; trial < 10; ++trial) {
      SignalValues in;
      set_word(in, "a", 4, rng.uniform_index(16));
      set_word(in, "b", 4, rng.uniform_index(16));
      EXPECT_EQ(simulate(original, in), simulate(*parsed, in));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, VerilogRoundTrip,
                         ::testing::Values("ksa4", "mult4"),
                         [](const auto& info) { return std::string(info.param); });

TEST(VerilogWriter, EmitsEscapedIdentifiersForBusBits) {
  const Netlist netlist = build_mapped("ksa4");
  const std::string text = write_verilog(netlist);
  EXPECT_NE(text.find("\\a[0] "), std::string::npos);
  EXPECT_NE(text.find("module ksa4"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_EQ(text.find("pin:"), std::string::npos);
}

}  // namespace
}  // namespace sfqpart
