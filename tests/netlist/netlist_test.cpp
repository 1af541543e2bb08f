#include "netlist/netlist.h"

#include <algorithm>
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

TEST(Netlist, AddGateOfKindUsesLibrary) {
  Netlist netlist(&default_sfq_library(), "kinds");
  const GateId g = netlist.add_gate_of_kind("x", CellKind::kXor2);
  EXPECT_EQ(netlist.cell_of(g).kind, CellKind::kXor2);
  EXPECT_EQ(netlist.cell_of(g).name, "XOR2T");
}

}  // namespace
}  // namespace sfqpart
