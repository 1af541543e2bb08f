#include "netlist/netlist.h"

#include <algorithm>
#include <ranges>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_logic.h"
#include "gen/scaled.h"

namespace sfqpart {
namespace {

// The edge set E by its definition: every connection between two
// distinct partitionable gates, canonicalized, globally sorted, deduped.
std::vector<Connection> reference_unique_edges(const Netlist& netlist) {
  std::vector<Connection> edges;
  for (const Connection& c : netlist.connections()) {
    if (c.from == c.to || !netlist.is_partitionable(c.from) ||
        !netlist.is_partitionable(c.to)) {
      continue;
    }
    edges.push_back(
        Connection{std::min(c.from, c.to), std::max(c.from, c.to)});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Connection& x, const Connection& y) {
              return x.from != y.from ? x.from < y.from : x.to < y.to;
            });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// in -> DFF(d0) -> SPLIT(s0) -> {DFF(d1), out}; builds the tiny physical
// netlist most tests here share.
struct Fixture {
  Netlist netlist{&default_sfq_library(), "tiny"};
  GateId in, d0, s0, d1, out;

  Fixture() {
    in = netlist.add_gate_of_kind("pin:a", CellKind::kInput);
    d0 = netlist.add_gate_of_kind("d0", CellKind::kDff);
    s0 = netlist.add_gate_of_kind("s0", CellKind::kSplit);
    d1 = netlist.add_gate_of_kind("d1", CellKind::kDff);
    out = netlist.add_gate_of_kind("pin:y", CellKind::kOutput);
    netlist.connect(in, 0, d0, 0);
    netlist.connect(d0, 0, s0, 0);
    netlist.connect(s0, 0, d1, 0);
    netlist.connect(s0, 1, out, 0);
  }
};

TEST(Netlist, ConstructionBasics) {
  Fixture f;
  EXPECT_EQ(f.netlist.num_gates(), 5);
  EXPECT_EQ(f.netlist.num_nets(), 4);
  EXPECT_EQ(f.netlist.find_gate("s0"), f.s0);
  EXPECT_EQ(f.netlist.find_gate("missing"), kInvalidGate);
  EXPECT_EQ(f.netlist.cell_of(f.s0).kind, CellKind::kSplit);
}

TEST(Netlist, PinConnectivityQueries) {
  Fixture f;
  const NetId net = f.netlist.output_net(f.s0, 0);
  ASSERT_NE(net, kInvalidNet);
  EXPECT_EQ(f.netlist.net(net).driver, (PinRef{f.s0, 0}));
  ASSERT_EQ(f.netlist.net(net).sinks.size(), 1u);
  EXPECT_EQ(f.netlist.net(net).sinks[0], (PinRef{f.d1, 0}));
  EXPECT_EQ(f.netlist.input_net(f.d1, 0), net);
  EXPECT_EQ(f.netlist.output_net(f.d1, 0), kInvalidNet);  // dangling output
  EXPECT_EQ(f.netlist.fanout(f.s0), 2);
  EXPECT_EQ(f.netlist.fanout(f.d0), 1);
}

TEST(Netlist, IoGatesExcludedFromPartitionableSet) {
  Fixture f;
  EXPECT_TRUE(f.netlist.is_io(f.in));
  EXPECT_TRUE(f.netlist.is_io(f.out));
  EXPECT_FALSE(f.netlist.is_io(f.d0));
  EXPECT_EQ(f.netlist.num_partitionable_gates(), 3);
}

TEST(Netlist, TotalsCoverOnlyPartitionableGates) {
  Fixture f;
  const CellLibrary& lib = default_sfq_library();
  const double dff_bias = lib.cell(*lib.find_kind(CellKind::kDff)).bias_ma;
  const double split_bias = lib.cell(*lib.find_kind(CellKind::kSplit)).bias_ma;
  EXPECT_DOUBLE_EQ(f.netlist.total_bias_ma(), 2 * dff_bias + split_bias);
  EXPECT_GT(f.netlist.total_area_um2(), 0.0);
}

TEST(Netlist, UniqueEdgesExcludeIoAndDeduplicate) {
  Fixture f;
  const auto edges = f.netlist.unique_edges();
  // in->d0 and s0->out dropped (I/O); d0->s0 and s0->d1 remain.
  ASSERT_EQ(edges.size(), 2u);
  for (const Connection& edge : edges) {
    EXPECT_LT(edge.from, edge.to);  // canonical order
  }
  EXPECT_EQ(edges, reference_unique_edges(f.netlist));

  // b -> a and a -> b are one edge; the self-loop b -> b is none.
  const GateId a = f.netlist.add_gate_of_kind("a", CellKind::kMerge);
  const GateId b = f.netlist.add_gate_of_kind("b", CellKind::kMerge);
  f.netlist.connect(b, 0, a, 0);
  f.netlist.connect(a, 0, b, 0);
  f.netlist.connect(b, 0, b, 1);
  const auto grown = f.netlist.unique_edges();
  EXPECT_EQ(grown.size(), 3u);  // d0-s0, s0-d1, a-b
  EXPECT_EQ(grown, reference_unique_edges(f.netlist));

  // Generated netlists: a mapped chip and an unmapped logic cloud with
  // wide fanout (larger per-gate buckets).
  ScaledParams chip;
  chip.num_gates = 20000;
  const Netlist scaled = build_scaled(chip);
  EXPECT_EQ(scaled.unique_edges(), reference_unique_edges(scaled));
  const Netlist logic = build_random_logic(RandomLogicParams{});
  EXPECT_EQ(logic.unique_edges(), reference_unique_edges(logic));
}

TEST(Netlist, ParallelConnectionsCollapseToOneEdge) {
  Netlist netlist(&default_sfq_library(), "par");
  const GateId s = netlist.add_gate_of_kind("s", CellKind::kSplit);
  const GateId m = netlist.add_gate_of_kind("m", CellKind::kMerge);
  netlist.connect(s, 0, m, 0);
  netlist.connect(s, 1, m, 1);
  EXPECT_EQ(netlist.connections().size(), 2u);
  EXPECT_EQ(netlist.unique_edges().size(), 1u);
  EXPECT_EQ(netlist.unique_edges(), reference_unique_edges(netlist));
}

TEST(Netlist, TopologicalOrderRespectsDataEdges) {
  Fixture f;
  const auto order = f.netlist.topological_order();
  ASSERT_EQ(order.size(), 5u);
  auto position = [&](GateId g) {
    return std::find(order.begin(), order.end(), g) - order.begin();
  };
  EXPECT_LT(position(f.in), position(f.d0));
  EXPECT_LT(position(f.d0), position(f.s0));
  EXPECT_LT(position(f.s0), position(f.d1));
  EXPECT_LT(position(f.s0), position(f.out));
}

TEST(Netlist, ClockEdgesDoNotConstrainTopologicalOrder) {
  Netlist netlist(&default_sfq_library(), "clk");
  const GateId src = netlist.add_gate_of_kind("pin:clk", CellKind::kInput);
  const GateId d = netlist.add_gate_of_kind("d", CellKind::kDff);
  netlist.connect(src, 0, d, 0);
  netlist.connect_clock(src, 0, d);
  EXPECT_EQ(netlist.clock_net(d), netlist.input_net(d, 0));
  EXPECT_EQ(netlist.topological_order().size(), 2u);
  EXPECT_EQ(netlist.fanout(src), 2);
}

// unique_edges() is memoized; every mutator must drop the memo, so the
// edges read after a mutation are the mutated netlist's.
TEST(Netlist, EveryMutationRebuildsTheEdges) {
  Fixture f;
  EXPECT_EQ(f.netlist.unique_edges(), reference_unique_edges(f.netlist));

  const GateId m = f.netlist.add_gate_of_kind("m", CellKind::kMerge);
  EXPECT_EQ(f.netlist.unique_edges(), reference_unique_edges(f.netlist));

  f.netlist.connect(f.d1, 0, m, 0);  // new edge d1-m
  EXPECT_EQ(f.netlist.unique_edges().size(), 3u);
  EXPECT_EQ(f.netlist.unique_edges(), reference_unique_edges(f.netlist));

  const GateId c = f.netlist.add_gate_of_kind("c", CellKind::kSplit);
  EXPECT_EQ(f.netlist.unique_edges(), reference_unique_edges(f.netlist));
  f.netlist.connect_clock(c, 0, f.d1);  // new edge d1-c
  EXPECT_EQ(f.netlist.unique_edges().size(), 4u);
  EXPECT_EQ(f.netlist.unique_edges(), reference_unique_edges(f.netlist));
}

static_assert(std::is_copy_constructible_v<Netlist> &&
              std::is_copy_assignable_v<Netlist> &&
              std::is_move_constructible_v<Netlist> &&
              std::is_move_assignable_v<Netlist>);

TEST(Netlist, CopiesAndMovesKeepTheirOwnEdges) {
  ScaledParams chip;
  chip.num_gates = 2000;
  const Netlist original = build_scaled(chip);
  const std::vector<Connection> expected = reference_unique_edges(original);
  const std::vector<Connection>* memo = &original.unique_edges();
  ASSERT_EQ(*memo, expected);

  Netlist copy = original;  // copied after the build
  EXPECT_EQ(copy.unique_edges(), expected);
  Netlist assigned(&default_sfq_library(), "assigned");
  assigned = copy;
  EXPECT_EQ(assigned.unique_edges(), expected);
  Netlist moved = std::move(copy);
  EXPECT_EQ(moved.unique_edges(), expected);
  Netlist move_assigned(&default_sfq_library(), "move_assigned");
  EXPECT_TRUE(move_assigned.unique_edges().empty());
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.unique_edges(), expected);
  const Netlist fresh = build_scaled(chip);  // edges not built yet
  EXPECT_EQ(Netlist(fresh).unique_edges(), expected);

  // Mutating a copy rebuilds only the copy's edges.
  const GateId a = move_assigned.add_gate_of_kind("extra_a", CellKind::kJtl);
  const GateId b = move_assigned.add_gate_of_kind("extra_b", CellKind::kJtl);
  move_assigned.connect(a, 0, b, 0);
  EXPECT_EQ(move_assigned.unique_edges(),
            reference_unique_edges(move_assigned));
  EXPECT_EQ(move_assigned.unique_edges().size(), expected.size() + 1);
  EXPECT_EQ(&original.unique_edges(), memo);
  EXPECT_EQ(original.unique_edges(), expected);
}

// Concurrent const readers build the memo once and all read one vector.
TEST(Netlist, ConcurrentReadersShareOneEdgeBuild) {
  ScaledParams chip;
  chip.num_gates = 20000;
  const Netlist netlist = build_scaled(chip);
  constexpr int kReaders = 8;
  std::vector<const std::vector<Connection>*> seen(kReaders, nullptr);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&netlist, &seen, t] {
      seen[static_cast<std::size_t>(t)] = &netlist.unique_edges();
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (const std::vector<Connection>* edges : seen) {
    EXPECT_EQ(edges, seen[0]);
  }
  EXPECT_EQ(*seen[0], reference_unique_edges(netlist));
}

// Every structural answer of a netlist, in comparable form: each net's
// name, driver and sinks in order, and each gate's pin-to-net maps.
struct Snapshot {
  std::vector<std::string> net_names;
  std::vector<PinRef> drivers;
  std::vector<std::vector<PinRef>> sinks;
  std::vector<std::vector<NetId>> pins;  // inputs, outputs, then the clock

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Netlist& netlist) {
  Snapshot out;
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(n);
    out.net_names.emplace_back(net.name);
    out.drivers.push_back(net.driver);
    out.sinks.emplace_back(net.sinks.begin(), net.sinks.end());
  }
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Cell& cell = netlist.cell_of(g);
    std::vector<NetId> pins;
    for (int i = 0; i < cell.num_inputs; ++i) pins.push_back(netlist.input_net(g, i));
    for (int o = 0; o < cell.num_outputs; ++o) pins.push_back(netlist.output_net(g, o));
    pins.push_back(netlist.clock_net(g));
    out.pins.push_back(std::move(pins));
  }
  return out;
}

static_assert(std::ranges::contiguous_range<const SinkList> &&
              std::ranges::sized_range<const SinkList>);
static_assert(std::is_nothrow_move_constructible_v<SinkList> &&
              std::is_nothrow_move_assignable_v<SinkList>);
// One sink in place costs no more than the pointer a spilled list holds.
static_assert(sizeof(SinkList) == 16);

// One net's sinks through fanout 0, 1, 2 and many: the first sink sits
// in place, the second spills to the heap, and order, `[]`, `front`,
// range-for and std::span read alike throughout.
TEST(Netlist, SinksFillInPlaceThenSpill) {
  const SinkList none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_EQ(none.heap_bytes(), 0u);
  EXPECT_TRUE(std::span<const PinRef>(none).empty());

  Netlist netlist(&default_sfq_library(), "fan");
  const GateId driver = netlist.add_gate_of_kind("driver", CellKind::kJtl);
  constexpr int kSinks = 37;
  std::vector<PinRef> expected;
  for (int k = 0; k < kSinks; ++k) {
    const GateId sink =
        netlist.add_gate_of_kind("m" + std::to_string(k), CellKind::kMerge);
    const NetId net_id = netlist.connect(driver, 0, sink, k % 2);
    expected.push_back(PinRef{sink, k % 2});
    EXPECT_EQ(net_id, 0);
    EXPECT_EQ(netlist.num_nets(), 1);

    const SinkList& sinks = netlist.net(net_id).sinks;
    ASSERT_EQ(sinks.size(), expected.size());
    EXPECT_FALSE(sinks.empty());
    EXPECT_EQ(sinks.front(), expected.front());
    EXPECT_EQ(sinks[sinks.size() - 1], expected.back());
    EXPECT_TRUE(std::equal(sinks.begin(), sinks.end(), expected.begin()));
    const std::span<const PinRef> span(sinks);
    EXPECT_EQ(span.data(), sinks.data());
    EXPECT_TRUE(std::ranges::equal(span, expected));
    std::vector<PinRef> walked;
    for (const PinRef& pin : sinks) walked.push_back(pin);
    EXPECT_EQ(walked, expected);

    EXPECT_EQ(sinks.heap_bytes() == 0, sinks.size() == 1) << sinks.size();
    if (sinks.size() > 1) {
      EXPECT_GE(sinks.heap_bytes(), sinks.size() * sizeof(PinRef));
    }
    EXPECT_EQ(netlist.storage_bytes().sinks, sinks.heap_bytes());
    EXPECT_EQ(netlist.fanout(driver), static_cast<int>(expected.size()));
  }
  EXPECT_EQ(netlist.fanout(netlist.find_gate("m0")), 0);
}

// Copies are deep: a copy, a copy-assigned, a moved-to and a
// move-assigned netlist each answer as the source did, and mutating one
// (spilling an in-place net, growing a spilled one, filling a free pin)
// leaves the others' sinks and pin maps as they were.
TEST(Netlist, CopiesAndMovesOwnTheirSinksAndPinMaps) {
  Netlist original(&default_sfq_library(), "own");
  const GateId in = original.add_gate_of_kind("pin:a", CellKind::kInput);
  const GateId s = original.add_gate_of_kind("s", CellKind::kSplit);
  const GateId m = original.add_gate_of_kind("m", CellKind::kMerge);
  const GateId d = original.add_gate_of_kind("d", CellKind::kDff);
  const GateId j = original.add_gate_of_kind("j", CellKind::kJtl);
  original.connect(in, 0, s, 0);     // one sink, in place
  original.connect(s, 0, m, 0);      // three sinks, spilled
  original.connect(s, 0, m, 1);
  original.connect(s, 0, d, 0);
  original.connect(s, 1, j, 0);      // one sink, in place
  const Snapshot before = snapshot(original);

  // Grows a spilled net, spills an in-place one and fills a free pin.
  const auto mutate = [&](Netlist& netlist) {
    const GateId x = netlist.add_gate_of_kind("x", CellKind::kMerge);
    netlist.connect(s, 0, x, 0);
    netlist.connect(in, 0, x, 1);
    netlist.connect_clock(j, 0, d);
    EXPECT_NE(snapshot(netlist), before);
  };

  Netlist copy = original;
  EXPECT_EQ(snapshot(copy), before);
  Netlist assigned(&default_sfq_library(), "assigned");
  assigned = copy;
  EXPECT_EQ(snapshot(assigned), before);
  mutate(copy);
  EXPECT_EQ(snapshot(original), before);
  EXPECT_EQ(snapshot(assigned), before);
  mutate(assigned);
  EXPECT_EQ(snapshot(original), before);
  EXPECT_EQ(snapshot(assigned), snapshot(copy));

  Netlist source = original;
  const PinRef* spilled = source.net(source.output_net(s, 0)).sinks.data();
  Netlist moved = std::move(source);
  EXPECT_EQ(snapshot(moved), before);
  // A move hands the spilled array over instead of copying it.
  EXPECT_EQ(moved.net(moved.output_net(s, 0)).sinks.data(), spilled);
  Netlist move_assigned(&default_sfq_library(), "move_assigned");
  move_assigned = std::move(moved);
  EXPECT_EQ(snapshot(move_assigned), before);
  mutate(move_assigned);
  EXPECT_EQ(snapshot(original), before);

  // Copy- and move-assigning a SinkList over one that already spilled.
  const SinkList& three = original.net(original.output_net(s, 0)).sinks;
  const SinkList& one = original.net(original.output_net(in, 0)).sinks;
  SinkList list = three;
  EXPECT_NE(list.data(), three.data());
  EXPECT_TRUE(std::ranges::equal(list, three));
  list = one;
  EXPECT_TRUE(std::ranges::equal(list, one));
  EXPECT_EQ(list.heap_bytes(), 0u);
  list = three;
  SinkList taken = std::move(list);
  EXPECT_TRUE(std::ranges::equal(taken, three));
  EXPECT_TRUE(list.empty());  // a moved-from list is empty
  taken = SinkList(one);
  EXPECT_TRUE(std::ranges::equal(taken, one));
}

// The flat pin maps give each gate exactly its cell's slots, whatever
// the pin counts of its neighbours: 0 to 4 inputs, 0 to 3 outputs, with
// and without a clock.
TEST(Netlist, PinMapsAcrossCellsWithZeroToManyPins) {
  CellLibrary library("pins");
  const auto add = [&library](const char* name, CellKind kind, int inputs,
                              int outputs) {
    Cell cell;
    cell.name = name;
    cell.kind = kind;
    cell.num_inputs = inputs;
    cell.num_outputs = outputs;
    return library.add_cell(cell);
  };
  const std::vector<int> cells = {
      add("NONE", CellKind::kJtl, 0, 0),   add("SRC", CellKind::kInput, 0, 1),
      add("SNK", CellKind::kOutput, 1, 0), add("FAN3", CellKind::kSplit, 1, 3),
      add("JOIN4", CellKind::kMerge, 4, 1), add("DFF2", CellKind::kDff, 2, 2)};
  Netlist netlist(&library, "pins");
  std::vector<PinRef> inputs;
  std::vector<PinRef> outputs;
  for (int round = 0; round < 2; ++round) {
    for (const int cell : cells) {
      const GateId g = netlist.add_gate(
          library.cell(cell).name + std::to_string(round), cell);
      for (int i = 0; i < library.cell(cell).num_inputs; ++i) {
        inputs.push_back(PinRef{g, i});
      }
      for (int o = 0; o < library.cell(cell).num_outputs; ++o) {
        outputs.push_back(PinRef{g, o});
      }
    }
  }
  ASSERT_EQ(inputs.size(), 16u);
  ASSERT_EQ(outputs.size(), 14u);
  for (const PinRef& pin : inputs) {
    EXPECT_EQ(netlist.input_net(pin.gate, pin.pin), kInvalidNet);
  }
  for (const PinRef& pin : outputs) {
    EXPECT_EQ(netlist.output_net(pin.gate, pin.pin), kInvalidNet);
  }

  // Output k feeds input k through a net of its own, in reverse order so
  // that no pin's net number matches its position by accident.
  for (std::size_t k = outputs.size(); k-- > 0;) {
    netlist.connect(outputs[k].gate, outputs[k].pin, inputs[k].gate,
                    inputs[k].pin);
  }
  const GateId dff0 = netlist.find_gate("DFF20");
  const GateId dff1 = netlist.find_gate("DFF21");
  netlist.connect_clock(outputs[0].gate, outputs[0].pin, dff1);
  ASSERT_EQ(netlist.num_nets(), 14);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const NetId feeding = netlist.input_net(inputs[k].gate, inputs[k].pin);
    if (k >= outputs.size()) {
      EXPECT_EQ(feeding, kInvalidNet) << k;
      continue;
    }
    const NetId driven = netlist.output_net(outputs[k].gate, outputs[k].pin);
    EXPECT_EQ(feeding, static_cast<NetId>(outputs.size() - 1 - k));
    EXPECT_EQ(driven, feeding);
    EXPECT_EQ(netlist.net(driven).driver, outputs[k]);
    EXPECT_EQ(netlist.net(driven).sinks.front(), inputs[k]);
  }
  EXPECT_EQ(netlist.clock_net(dff1), netlist.output_net(outputs[0].gate, 0));
  EXPECT_EQ(netlist.clock_net(dff0), kInvalidNet);
  EXPECT_EQ(netlist.net(netlist.clock_net(dff1)).sinks[1], (PinRef{dff1, kClockPin}));
  const GateId fan = netlist.find_gate("FAN30");
  EXPECT_EQ(netlist.fanout(fan), 3);
  EXPECT_EQ(netlist.fanout(netlist.find_gate("NONE0")), 0);
  EXPECT_EQ(netlist.fanout(netlist.find_gate("SNK1")), 0);
}

// 164 B per gate on the chip below (10,442 gates, 14,543 nets), vector
// growth slack included. Storage that gave each gate's pin maps their own
// vectors again would add 48 B per gate before any heap block.
constexpr double kScaledBytesPerGateBound = 180.0;

// The whole netlist's storage on a mapped chip: every net has one sink,
// so no sink array spills, and a gate with its nets, pin maps and names
// stays within a fixed byte budget. The per-part figures add up to the
// total, and the names part is name_table_bytes().
TEST(Netlist, ScaledChipStorageStaysFlat) {
  ScaledParams chip;
  chip.num_gates = 10000;
  const Netlist netlist = build_scaled(chip);
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    ASSERT_EQ(netlist.net(n).sinks.size(), 1u) << n;
  }
  const NetlistBytes bytes = netlist.storage_bytes();
  EXPECT_EQ(bytes.sinks, 0u);
  EXPECT_EQ(bytes.names, netlist.name_table_bytes());
  EXPECT_EQ(bytes.edges, 0u);  // the memo is not built yet
  EXPECT_GE(bytes.nets, netlist.num_nets() * sizeof(Net));
  EXPECT_EQ(bytes.total(), bytes.gates + bytes.nets + bytes.sinks +
                               bytes.pin_maps + bytes.names + bytes.edges);
  const double per_gate =
      static_cast<double>(bytes.total()) / netlist.num_gates();
  EXPECT_LT(per_gate, kScaledBytesPerGateBound) << per_gate;
  EXPECT_GE(netlist.storage_bytes().edges,
            netlist.unique_edges().size() * sizeof(Connection));
}

TEST(Netlist, AddGateOfKindUsesLibrary) {
  Netlist netlist(&default_sfq_library(), "kinds");
  const GateId g = netlist.add_gate_of_kind("x", CellKind::kXor2);
  EXPECT_EQ(netlist.cell_of(g).kind, CellKind::kXor2);
  EXPECT_EQ(netlist.cell_of(g).name, "XOR2T");
}

}  // namespace
}  // namespace sfqpart
