#include "core/constraints.h"

// compile_constraints contract: uniform kInvalidArgument on anything
// infeasible, deterministic group election, and the engine-facing
// guarantee that every registry engine honors compiled pins.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/partition.h"
#include "netlist/netlist.h"

namespace sfqpart {
namespace {

// A small netlist every engine (including `exact`) accepts: a JTL chain
// g0 -> g1 -> ... -> g(n-1) with two extra converging edges into a merge
// gate, plus one primary input to exercise the I/O rejection paths.
Netlist tiny_netlist(int chain = 8) {
  Netlist netlist;
  std::vector<GateId> gates;
  for (int i = 0; i < chain; ++i) {
    gates.push_back(
        netlist.add_gate_of_kind("g" + std::to_string(i), CellKind::kJtl));
  }
  const GateId merge = netlist.add_gate_of_kind("m0", CellKind::kMerge);
  const GateId pad = netlist.add_gate_of_kind("in0", CellKind::kInput);
  for (int i = 0; i + 1 < chain; ++i) {
    netlist.connect(gates[static_cast<std::size_t>(i)], 0,
                    gates[static_cast<std::size_t>(i + 1)], 0);
  }
  netlist.connect(gates[2], 0, merge, 0);
  netlist.connect(gates[static_cast<std::size_t>(chain - 1)], 0, merge, 1);
  netlist.connect(pad, 0, gates[0], 0);
  return netlist;
}

TEST(Constraints, EmptyDeclarationCompilesToNullPointers) {
  const Netlist netlist = tiny_netlist();
  const auto compiled = compile_constraints(netlist, GateConstraints{}, 3);
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_TRUE(compiled->empty());
  EXPECT_EQ(compiled->num_fixed, 0);
  EXPECT_EQ(compiled->compact_or_null(), nullptr);
  EXPECT_EQ(compiled->gate_or_null(), nullptr);

  // Only empty groups declare nothing either.
  GateConstraints empty_groups;
  empty_groups.groups = {{}, {}};
  const auto groups = compile_constraints(netlist, empty_groups, 3);
  ASSERT_TRUE(groups.is_ok());
  EXPECT_TRUE(groups->empty());
  EXPECT_EQ(groups->compact_or_null(), nullptr);
}

TEST(Constraints, PinsCompileIntoBothIndexings) {
  const Netlist netlist = tiny_netlist();
  GateConstraints constraints;
  constraints.pins = {{"g1", 2}, {"g4", 0}};
  const auto compiled = compile_constraints(netlist, constraints, 3);
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_EQ(compiled->num_fixed, 2);
  const GateId g1 = netlist.find_gate("g1");
  EXPECT_EQ(compiled->fixed_of_gate[static_cast<std::size_t>(g1)], 2);
  // Compact order is partitionable gates ascending GateId; g0..g7 then m0
  // (the input pad is skipped), so compact index == GateId here.
  EXPECT_EQ(compiled->fixed_compact[1], 2);
  EXPECT_EQ(compiled->fixed_compact[4], 0);
  EXPECT_EQ(compiled->fixed_compact[0], kUnassignedPlane);
}

TEST(Constraints, InfeasibleDeclarationsAreUniformInvalidArgument) {
  const Netlist netlist = tiny_netlist();
  const auto check = [&](GateConstraints constraints, const char* needle) {
    const auto compiled = compile_constraints(netlist, constraints, 3);
    ASSERT_FALSE(compiled.is_ok()) << needle;
    EXPECT_TRUE(compiled.status().is_invalid_argument()) << needle;
    EXPECT_NE(compiled.status().message().find("constraint"),
              std::string::npos)
        << compiled.status().message();
    EXPECT_NE(compiled.status().message().find(needle), std::string::npos)
        << compiled.status().message();
  };
  GateConstraints unknown;
  unknown.pins = {{"nope", 0}};
  check(unknown, "unknown gate");

  GateConstraints io;
  io.pins = {{"in0", 0}};
  check(io, "I/O");

  GateConstraints range;
  range.pins = {{"g0", 3}};
  check(range, "outside [0, 3)");

  GateConstraints negative;
  negative.pins = {{"g0", -1}};
  check(negative, "outside");

  GateConstraints conflict;
  conflict.pins = {{"g0", 0}, {"g0", 2}};
  check(conflict, "pinned to plane 0 and plane 2");

  GateConstraints group_conflict;
  group_conflict.pins = {{"g0", 0}, {"g1", 2}};
  group_conflict.groups = {{"g0", "g1"}};
  check(group_conflict, "pinned to plane 0 and plane 2");

  GateConstraints group_io;
  group_io.groups = {{"g0", "in0"}};
  check(group_io, "I/O");
}

TEST(Constraints, DuplicateAgreeingPinsAreTolerated) {
  const Netlist netlist = tiny_netlist();
  GateConstraints constraints;
  constraints.pins = {{"g0", 1}, {"g0", 1}};
  const auto compiled = compile_constraints(netlist, constraints, 3);
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_EQ(compiled->num_fixed, 1);
}

TEST(Constraints, GroupInheritsItsPinnedMembersPlane) {
  const Netlist netlist = tiny_netlist();
  GateConstraints constraints;
  constraints.pins = {{"g3", 2}};
  constraints.groups = {{"g3", "g5", "g6"}};
  const auto compiled = compile_constraints(netlist, constraints, 3);
  ASSERT_TRUE(compiled.is_ok());
  for (const char* name : {"g3", "g5", "g6"}) {
    const GateId g = netlist.find_gate(name);
    EXPECT_EQ(compiled->fixed_of_gate[static_cast<std::size_t>(g)], 2) << name;
  }
}

TEST(Constraints, UnpinnedGroupsAreElectedDeterministically) {
  const Netlist netlist = tiny_netlist();
  GateConstraints constraints;
  constraints.groups = {{"g0", "g1"}, {"g4", "g5", "g6"}};
  const auto first = compile_constraints(netlist, constraints, 3);
  ASSERT_TRUE(first.is_ok());
  // Each group shares one plane...
  const auto plane_of = [&](const char* name) {
    return first->fixed_of_gate[static_cast<std::size_t>(
        netlist.find_gate(name))];
  };
  EXPECT_EQ(plane_of("g0"), plane_of("g1"));
  EXPECT_EQ(plane_of("g4"), plane_of("g5"));
  EXPECT_EQ(plane_of("g4"), plane_of("g6"));
  // ... the heavier group is placed first onto the least-loaded plane, so
  // the two groups never collapse onto one plane ...
  EXPECT_NE(plane_of("g0"), plane_of("g4"));
  // ... and a rerun reproduces the election exactly (cache replays
  // depend on it).
  const auto second = compile_constraints(netlist, constraints, 3);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first->fixed_of_gate, second->fixed_of_gate);
}

// The engine-facing guarantee: every registry engine honors compiled
// pins, with certification on so the result is independently checked.
TEST(Constraints, EveryEngineHonorsPins) {
  const Netlist netlist = tiny_netlist();
  // eco refuses to run cold: an all-unassigned warm start makes the whole
  // netlist the dirty region (pins still win inside the adapter).
  InitialPartition warm;
  warm.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                       kUnassignedPlane);
  for (const std::string& name : EngineRegistry::names()) {
    const auto engine = EngineRegistry::create(name);
    ASSERT_TRUE(engine.is_ok());
    EngineContext context;
    context.num_planes = 3;
    context.restarts = 1;
    context.certify = true;
    if (name == "eco") context.warm_start = &warm;
    context.constraints.pins = {{"g1", 2}, {"g4", 0}, {"m0", 1}};
    const auto run = (*engine)->run(netlist, context);
    ASSERT_TRUE(run.is_ok()) << name << ": " << run.status().message();
    EXPECT_EQ(run->partition.plane(netlist.find_gate("g1")), 2) << name;
    EXPECT_EQ(run->partition.plane(netlist.find_gate("g4")), 0) << name;
    EXPECT_EQ(run->partition.plane(netlist.find_gate("m0")), 1) << name;
    EXPECT_EQ(run->counter("certify_verdict"), 0.0) << name;
  }
}

TEST(Constraints, EveryEngineHonorsGroups) {
  const Netlist netlist = tiny_netlist();
  InitialPartition warm;
  warm.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                       kUnassignedPlane);
  for (const std::string& name : EngineRegistry::names()) {
    const auto engine = EngineRegistry::create(name);
    ASSERT_TRUE(engine.is_ok());
    EngineContext context;
    context.num_planes = 3;
    context.restarts = 1;
    context.certify = true;
    if (name == "eco") context.warm_start = &warm;
    context.constraints.groups = {{"g2", "g6", "m0"}};
    const auto run = (*engine)->run(netlist, context);
    ASSERT_TRUE(run.is_ok()) << name << ": " << run.status().message();
    const int plane = run->partition.plane(netlist.find_gate("g2"));
    EXPECT_EQ(run->partition.plane(netlist.find_gate("g6")), plane) << name;
    EXPECT_EQ(run->partition.plane(netlist.find_gate("m0")), plane) << name;
  }
}

// Infeasible pins come back as the same kInvalidArgument from every
// engine — the compile happens once in the shared adapter.
TEST(Constraints, EveryEngineRejectsInfeasiblePinsUniformly) {
  const Netlist netlist = tiny_netlist();
  for (const std::string& name : EngineRegistry::names()) {
    const auto engine = EngineRegistry::create(name);
    ASSERT_TRUE(engine.is_ok());
    EngineContext context;
    context.num_planes = 3;
    context.constraints.pins = {{"g0", 7}};
    const auto run = (*engine)->run(netlist, context);
    ASSERT_FALSE(run.is_ok()) << name;
    EXPECT_TRUE(run.status().is_invalid_argument()) << name;
    EXPECT_NE(run.status().message().find("constraint"), std::string::npos)
        << name << ": " << run.status().message();
  }
}

// Pinning must not perturb the unconstrained code path: a run with an
// empty declaration, or one that holds only empty groups, is
// bit-identical to a run with no declaration.
TEST(Constraints, EmptyConstraintsAreByteIdenticalNoOp) {
  const Netlist netlist = tiny_netlist();
  InitialPartition warm;
  warm.plane_of.assign(static_cast<std::size_t>(netlist.num_gates()),
                       kUnassignedPlane);
  for (const std::string& name : EngineRegistry::names()) {
    const auto engine = EngineRegistry::create(name);
    ASSERT_TRUE(engine.is_ok());
    EngineContext plain;
    plain.num_planes = 3;
    plain.restarts = 1;
    if (name == "eco") plain.warm_start = &warm;
    EngineContext declared = plain;
    declared.constraints = GateConstraints{};
    EngineContext empty_groups = plain;
    empty_groups.constraints.groups = {{}, {}};
    const auto a = (*engine)->run(netlist, plain);
    const auto b = (*engine)->run(netlist, declared);
    const auto c = (*engine)->run(netlist, empty_groups);
    ASSERT_TRUE(a.is_ok()) << name;
    ASSERT_TRUE(b.is_ok()) << name;
    ASSERT_TRUE(c.is_ok()) << name;
    EXPECT_EQ(a->partition.plane_of, b->partition.plane_of) << name;
    EXPECT_EQ(a->partition.plane_of, c->partition.plane_of) << name;
  }
}

}  // namespace
}  // namespace sfqpart
