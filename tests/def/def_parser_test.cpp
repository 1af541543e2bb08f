#include "def/def_parser.h"

#include <string>

#include <gtest/gtest.h>

namespace sfqpart::def {
namespace {

constexpr const char* kSampleDef = R"(
VERSION 5.8 ;
DIVIDERCHAR "/" ;
DESIGN demo ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 300000 300000 ) ;

COMPONENTS 3 ;
  - g1 DFFT + PLACED ( 1000 2000 ) N ;
  - g2 SPLITT + PLACED ( 45000 2000 ) FS ;
  - g3 DFFT + UNPLACED ;
END COMPONENTS

PINS 2 ;
  - a + NET na + DIRECTION INPUT + USE SIGNAL ;
  - y + NET ny + DIRECTION OUTPUT ;
END PINS

NETS 4 ;
  - na ( PIN a ) ( g1 A ) + USE SIGNAL ;
  - n1 ( g1 Q ) ( g2 A ) ;
  - n2 ( g2 Q0 ) ( g3 A ) ;
  - ny ( g3 Q ) ( PIN y ) ;
END NETS

END DESIGN
)";

TEST(DefParser, ParsesHeaderAndSections) {
  auto design = parse_def(kSampleDef);
  ASSERT_TRUE(design.is_ok());
  EXPECT_EQ(design->name, "demo");
  EXPECT_EQ(design->dbu_per_micron, 1000);
  EXPECT_EQ(design->die_hi.x, 300000);
  EXPECT_DOUBLE_EQ(design->die_area_mm2(), 0.09);
  EXPECT_EQ(design->components.size(), 3u);
  EXPECT_EQ(design->pins.size(), 2u);
  EXPECT_EQ(design->nets.size(), 4u);
}

TEST(DefParser, ComponentPlacement) {
  auto design = parse_def(kSampleDef);
  ASSERT_TRUE(design.is_ok());
  const DefComponent* g1 = design->find_component("g1");
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->macro, "DFFT");
  EXPECT_TRUE(g1->placed);
  EXPECT_EQ(g1->location, (DefPoint{1000, 2000}));
  EXPECT_EQ(g1->orient, "N");
  const DefComponent* g2 = design->find_component("g2");
  ASSERT_NE(g2, nullptr);
  EXPECT_EQ(g2->orient, "FS");
  const DefComponent* g3 = design->find_component("g3");
  ASSERT_NE(g3, nullptr);
  EXPECT_FALSE(g3->placed);
}

TEST(DefParser, PinsAndNets) {
  auto design = parse_def(kSampleDef);
  ASSERT_TRUE(design.is_ok());
  EXPECT_EQ(design->pins[0].direction, PinDirection::kInput);
  EXPECT_EQ(design->pins[0].net, "na");
  EXPECT_EQ(design->pins[1].direction, PinDirection::kOutput);
  const DefNet& na = design->nets[0];
  ASSERT_EQ(na.connections.size(), 2u);
  EXPECT_TRUE(na.connections[0].is_top_pin());
  EXPECT_EQ(na.connections[0].pin, "a");
  EXPECT_EQ(na.connections[1].component, "g1");
  EXPECT_EQ(na.connections[1].pin, "A");
}

TEST(DefParser, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(parse_def("VERSION 5.8 ;").is_ok());          // no DESIGN
  EXPECT_FALSE(parse_def("DESIGN x ;\nCOMPONENTS 1 ;\n- g1 FOO ;\n").is_ok());
  EXPECT_FALSE(parse_def("DESIGN x ;\nUNITS DISTANCE MICRONS 0 ;\nEND DESIGN").is_ok());
}

TEST(DefToNetlist, BuildsConnectivity) {
  auto design = parse_def(kSampleDef);
  ASSERT_TRUE(design.is_ok());
  auto netlist = def_to_netlist(*design, sfqpart::default_sfq_library());
  ASSERT_TRUE(netlist.is_ok()) << netlist.status().message();
  EXPECT_EQ(netlist->num_gates(), 5);  // 3 components + 2 pin gates
  EXPECT_EQ(netlist->num_partitionable_gates(), 3);
  const GateId g1 = netlist->find_gate("g1");
  const GateId g2 = netlist->find_gate("g2");
  ASSERT_NE(g1, kInvalidGate);
  ASSERT_NE(g2, kInvalidGate);
  const NetId n1 = netlist->output_net(g1, 0);
  ASSERT_NE(n1, kInvalidNet);
  EXPECT_EQ(netlist->net(n1).sinks[0].gate, g2);
  EXPECT_EQ(netlist->find_gate("pin:a"), 3);
}

TEST(DefToNetlist, ClockPinsWireAsClocks) {
  const char* text = R"(
DESIGN clk ;
COMPONENTS 2 ;
  - src DCSFQ ;
  - d DFFT ;
END COMPONENTS
PINS 0 ;
END PINS
NETS 2 ;
  - nc ( src Q ) ( d CLK ) ;
END NETS
END DESIGN
)";
  auto design = parse_def(text);
  ASSERT_TRUE(design.is_ok());
  auto netlist = def_to_netlist(*design, sfqpart::default_sfq_library());
  ASSERT_TRUE(netlist.is_ok()) << netlist.status().message();
  const GateId d = netlist->find_gate("d");
  EXPECT_NE(netlist->clock_net(d), kInvalidNet);
  EXPECT_EQ(netlist->input_net(d, 0), kInvalidNet);
}

TEST(DefToNetlist, RejectsBadReferences) {
  {
    auto design = parse_def(
        "DESIGN x ;\nCOMPONENTS 1 ;\n- g1 NOSUCHMACRO ;\nEND COMPONENTS\nEND DESIGN");
    ASSERT_TRUE(design.is_ok());
    EXPECT_FALSE(def_to_netlist(*design, sfqpart::default_sfq_library()).is_ok());
  }
  {
    auto design = parse_def(
        "DESIGN x ;\nCOMPONENTS 1 ;\n- g1 DFFT ;\nEND COMPONENTS\n"
        "NETS 1 ;\n- n ( g1 NOPIN ) ;\nEND NETS\nEND DESIGN");
    ASSERT_TRUE(design.is_ok());
    EXPECT_FALSE(def_to_netlist(*design, sfqpart::default_sfq_library()).is_ok());
  }
  {
    // Two drivers on one net.
    auto design = parse_def(
        "DESIGN x ;\nCOMPONENTS 2 ;\n- g1 DFFT ;\n- g2 DFFT ;\nEND COMPONENTS\n"
        "NETS 1 ;\n- n ( g1 Q ) ( g2 Q ) ;\nEND NETS\nEND DESIGN");
    ASSERT_TRUE(design.is_ok());
    EXPECT_FALSE(def_to_netlist(*design, sfqpart::default_sfq_library()).is_ok());
  }
}

// Gate names are the join key of the ECO diff and of warm-start CSVs, so
// a name two gates would share is an input error naming the duplicate.
TEST(DefToNetlist, RejectsDuplicateGateNames) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& needle) {
    auto design = parse_def(text);
    ASSERT_TRUE(design.is_ok()) << design.status().message();
    const auto netlist =
        def_to_netlist(*design, sfqpart::default_sfq_library());
    ASSERT_FALSE(netlist.is_ok()) << needle;
    EXPECT_NE(netlist.status().message().find(needle), std::string::npos)
        << netlist.status().message();
  };
  // A repeated COMPONENT.
  expect_rejected(
      "DESIGN x ;\nCOMPONENTS 2 ;\n- g1 DFFT ;\n- g1 JTL ;\n"
      "END COMPONENTS\nEND DESIGN",
      "'g1'");
  // A repeated PIN.
  expect_rejected(
      "DESIGN x ;\nPINS 2 ;\n- a + NET n + DIRECTION INPUT ;\n"
      "- a + NET m + DIRECTION INPUT ;\nEND PINS\nEND DESIGN",
      "'pin:a'");
  // A COMPONENT named like the gate a PIN becomes.
  expect_rejected(
      "DESIGN x ;\nCOMPONENTS 1 ;\n- pin:a DFFT ;\nEND COMPONENTS\n"
      "PINS 1 ;\n- a + NET n + DIRECTION INPUT ;\nEND PINS\nEND DESIGN",
      "'pin:a'");
}

// An input or clock pin takes one net: a second would overwrite the
// pin's net while the first net kept the sink.
TEST(DefToNetlist, RejectsAnInputPinConnectedTwice) {
  const std::string components =
      "DESIGN x ;\nCOMPONENTS 4 ;\n- g1 DFFT ;\n- g2 DFFT ;\n- g3 DFFT ;\n"
      "- src DCSFQ ;\nEND COMPONENTS\n";
  const auto message = [&](const std::string& pins, const std::string& nets) {
    auto design = parse_def(components + pins + "NETS 2 ;\n" + nets +
                            "END NETS\nEND DESIGN");
    EXPECT_TRUE(design.is_ok()) << design.status().message();
    if (!design.is_ok()) return std::string();
    const auto netlist = def_to_netlist(*design, sfqpart::default_sfq_library());
    return netlist.is_ok() ? std::string() : netlist.status().message();
  };
  // Two nets feed g3's data pin A: the error names the second net, the
  // component and the pin.
  EXPECT_EQ(message("", "- n1 ( g1 Q ) ( g3 A ) ;\n- n2 ( g2 Q ) ( g3 A ) ;\n"),
            "net 'n2': component 'g3' pin 'A': input pin connected twice");
  // Two nets feed g3's clock pin.
  EXPECT_EQ(
      message("", "- n1 ( g1 Q ) ( g3 CLK ) ;\n- n2 ( src Q ) ( g3 CLK ) ;\n"),
      "net 'n2': component 'g3' pin 'CLK': input pin connected twice");
  // One net lists the same pin twice.
  EXPECT_EQ(message("", "- n1 ( g1 Q ) ( g3 A ) ( g3 A ) ;\n"),
            "net 'n1': component 'g3' pin 'A': input pin connected twice");
  // Two nets feed one OUTPUT chip pin.
  EXPECT_EQ(message("PINS 1 ;\n- y + NET n1 + DIRECTION OUTPUT ;\nEND PINS\n",
                    "- n1 ( g1 Q ) ( PIN y ) ;\n- n2 ( g2 Q ) ( PIN y ) ;\n"),
            "net 'n2': pin 'y': input pin connected twice");
  // Distinct pins of one gate are fine: g3's data pin and its clock.
  EXPECT_EQ(message("", "- n1 ( g1 Q ) ( g3 A ) ;\n- n2 ( src Q ) ( g3 CLK ) ;\n"),
            "");
}

}  // namespace
}  // namespace sfqpart::def
