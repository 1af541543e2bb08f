// Netlist delta, mutation harness and the end-to-end ECO path
// (core/delta.h + gen/mutate.h + engine "eco").
#include "core/delta.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/vcycle.h"
#include "gen/mutate.h"
#include "gen/scaled.h"
#include "netlist/netlist.h"
#include "util/hash.h"

namespace sfqpart {
namespace {

constexpr int kPlanes = 4;

Netlist small_scaled(std::uint64_t seed = 1) {
  ScaledParams params;
  params.name = "delta2000";
  params.num_gates = 2000;
  params.seed = seed;
  return build_scaled(params);
}

TEST(Mutate, DeterministicForAFixedSeed) {
  const Netlist before = small_scaled();
  MutateParams params;
  params.remove_fraction = 0.02;
  params.add_fraction = 0.02;
  params.seed = 7;
  MutateStats first_stats;
  MutateStats second_stats;
  const Netlist first = mutate_netlist(before, params, &first_stats);
  const Netlist second = mutate_netlist(before, params, &second_stats);
  EXPECT_EQ(first_stats.removed, second_stats.removed);
  EXPECT_EQ(first_stats.added, second_stats.added);
  ASSERT_EQ(first.num_gates(), second.num_gates());
  for (GateId g = 0; g < first.num_gates(); ++g) {
    EXPECT_EQ(first.gate(g).name, second.gate(g).name);
  }
  // A different seed mutates a different gate set.
  params.seed = 8;
  const Netlist third = mutate_netlist(before, params, nullptr);
  EXPECT_EQ(third.num_gates(), first.num_gates());
  bool any_difference = false;
  for (GateId g = 0; g < first.num_gates() && !any_difference; ++g) {
    any_difference = first.gate(g).name != third.gate(g).name;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Delta, IdenticalNetlistsHaveEmptyDelta) {
  const Netlist netlist = small_scaled();
  const NetlistDelta delta = compute_delta(netlist, netlist);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_TRUE(delta.changed.empty());
  EXPECT_EQ(delta.dirty(), 0);
  EXPECT_EQ(delta.unchanged, netlist.num_partitionable_gates());
}

TEST(Delta, MatchesTheMutationStats) {
  const Netlist before = small_scaled();
  MutateParams params;
  params.seed = 3;
  MutateStats stats;
  const Netlist after = mutate_netlist(before, params, &stats);
  const NetlistDelta delta = compute_delta(before, after);
  EXPECT_EQ(static_cast<int>(delta.added.size()), stats.added);
  EXPECT_EQ(static_cast<int>(delta.removed.size()), stats.removed);
  // Rewired survivors show up as changed; blast radius stays a small
  // multiple of the direct edit for a 1% mutation.
  EXPECT_GT(stats.removed, 0);
  EXPECT_LT(delta.dirty(), before.num_gates() / 4);
}

TEST(Delta, WarmStartKeepsUnchangedPlanesAndLeavesDirtyUnassigned) {
  const Netlist before = small_scaled();
  VcycleOptions options;
  const VcycleResult parent = vcycle_partition(before, kPlanes, options);

  MutateParams params;
  params.seed = 5;
  const Netlist after = mutate_netlist(before, params, nullptr);
  const NetlistDelta delta = compute_delta(before, after);
  const InitialPartition warm =
      warm_start_from(parent.partition, before, after);
  ASSERT_EQ(static_cast<int>(warm.plane_of.size()), after.num_gates());

  std::vector<bool> dirty(static_cast<std::size_t>(after.num_gates()), false);
  for (const GateId g : delta.added) dirty[static_cast<std::size_t>(g)] = true;
  for (const GateId g : delta.changed) {
    dirty[static_cast<std::size_t>(g)] = true;
  }
  int inherited = 0;
  for (GateId g = 0; g < after.num_gates(); ++g) {
    const int plane = warm.plane_of[static_cast<std::size_t>(g)];
    if (!after.is_partitionable(g) || dirty[static_cast<std::size_t>(g)]) {
      EXPECT_EQ(plane, kUnassignedPlane) << after.gate(g).name;
      continue;
    }
    const GateId old = before.find_gate(after.gate(g).name.view());
    ASSERT_NE(old, kInvalidGate);
    EXPECT_EQ(plane, parent.partition.plane(old)) << after.gate(g).name;
    ++inherited;
  }
  EXPECT_EQ(inherited, delta.unchanged);
}

// FNV-1a over all four fields of a delta, in list order.
std::uint64_t delta_hash(const NetlistDelta& delta) {
  Fnv1a64 hash;
  for (const GateId g : delta.added) hash.update(std::to_string(g) + ",");
  hash.update("|");
  for (const std::string& name : delta.removed) hash.update(name + ",");
  hash.update("|");
  for (const GateId g : delta.changed) hash.update(std::to_string(g) + ",");
  hash.update("|" + std::to_string(delta.unchanged));
  return hash.digest();
}

std::uint64_t label_hash(const std::vector<int>& labels) {
  std::string bytes;
  bytes.reserve(labels.size());
  for (const int label : labels) bytes.push_back(static_cast<char>(label));
  return Fnv1a64::of(bytes);
}

// Golden deltas and warm starts: the diff may get faster, never
// different. The hashes were recorded with a global sort of the edge
// list, one name hash per edge endpoint and a second name lookup in the
// warm start. The parent partition is scaled_20k's pinned band-1
// V-cycle (vcycle_test).
TEST(Delta, ReproducesPinnedDeltasAndWarmStarts) {
  struct Pin {
    std::uint64_t mutation_seed;
    std::uint64_t delta;
    std::uint64_t warm;
  };
  ScaledParams chip;
  chip.name = "scaled20k";
  chip.num_gates = 20000;
  chip.seed = 3;
  const Netlist before = build_scaled(chip);
  const VcycleResult parent = vcycle_partition(before, 5);
  const Pin pins[] = {{11, 0x3a4ed1c9f7772129ull, 0xb8ae4b81cb30e892ull},
                      {12, 0x63dae4d725b8115aull, 0xa505bcafb99fa70cull},
                      {13, 0xd64ca56d5f154a02ull, 0xaab6d5dad6810f7dull}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.mutation_seed);
    MutateParams params;
    params.seed = pin.mutation_seed;
    const Netlist after = mutate_netlist(before, params, nullptr);
    const NetlistDelta delta = compute_delta(before, after);
    const InitialPartition warm =
        warm_start_from(parent.partition, before, after);
    EXPECT_EQ(delta_hash(delta), pin.delta) << std::hex << delta_hash(delta);
    EXPECT_EQ(label_hash(warm.plane_of), pin.warm)
        << std::hex << label_hash(warm.plane_of);

    // Unassigned are exactly the added and changed gates plus I/O.
    std::vector<bool> dirty(static_cast<std::size_t>(after.num_gates()));
    for (const std::vector<GateId>* list : {&delta.added, &delta.changed}) {
      for (const GateId g : *list) dirty[static_cast<std::size_t>(g)] = true;
    }
    for (GateId g = 0; g < after.num_gates(); ++g) {
      const bool unassigned =
          dirty[static_cast<std::size_t>(g)] || !after.is_partitionable(g);
      EXPECT_EQ(warm.plane(g) == kUnassignedPlane, unassigned)
          << after.gate(g).name;
    }
  }
}

// A copy of `source` whose gates are added in `order` (a permutation of
// its GateIds) under the names `name_of(gate)` gives, with every net
// rewired alike.
template <typename NameOf>
Netlist rebuild(const Netlist& source, const std::vector<GateId>& order,
                NameOf&& name_of) {
  Netlist out(&source.library(), source.name());
  std::vector<GateId> new_id(static_cast<std::size_t>(source.num_gates()),
                             kInvalidGate);
  for (const GateId g : order) {
    new_id[static_cast<std::size_t>(g)] =
        out.add_gate(name_of(g), source.gate(g).cell);
  }
  for (NetId n = 0; n < source.num_nets(); ++n) {
    const Net& net = source.net(n);
    if (net.driver.gate == kInvalidGate) continue;
    const GateId from = new_id[static_cast<std::size_t>(net.driver.gate)];
    for (const PinRef& sink : net.sinks) {
      const GateId to = new_id[static_cast<std::size_t>(sink.gate)];
      if (sink.pin == kClockPin) {
        out.connect_clock(from, net.driver.pin, to);
      } else {
        out.connect(from, net.driver.pin, to, sink.pin);
      }
    }
  }
  return out;
}

// Each gate's partitionable neighbors by name, sorted.
std::vector<std::vector<std::string_view>> neighbor_names(
    const Netlist& netlist) {
  std::vector<std::vector<std::string_view>> names(
      static_cast<std::size_t>(netlist.num_gates()));
  for (const Connection& edge : netlist.unique_edges()) {
    names[static_cast<std::size_t>(edge.from)].push_back(
        netlist.gate(edge.to).name.view());
    names[static_cast<std::size_t>(edge.to)].push_back(
        netlist.gate(edge.from).name.view());
  }
  for (auto& list : names) std::sort(list.begin(), list.end());
  return names;
}

struct ReferenceDiff {
  NetlistDelta delta;
  InitialPartition warm;
};

// The diff by its definition: every name looked up in the index, and a
// gate changed when its cell or its set of neighbor names differs,
// compared as sets rather than hashed signatures.
ReferenceDiff reference_diff(const Partition& before_partition,
                             const Netlist& before, const Netlist& after) {
  const auto before_neighbors = neighbor_names(before);
  const auto after_neighbors = neighbor_names(after);
  ReferenceDiff out;
  out.warm.plane_of.assign(static_cast<std::size_t>(after.num_gates()),
                           kUnassignedPlane);
  std::vector<char> matched(static_cast<std::size_t>(before.num_gates()), 0);
  for (GateId g = 0; g < after.num_gates(); ++g) {
    if (!after.is_partitionable(g)) continue;
    const GateId old = before.find_gate(after.gate(g).name.view());
    if (old == kInvalidGate || !before.is_partitionable(old)) {
      out.delta.added.push_back(g);
      continue;
    }
    matched[static_cast<std::size_t>(old)] = 1;
    if (before.gate(old).cell != after.gate(g).cell ||
        before_neighbors[static_cast<std::size_t>(old)] !=
            after_neighbors[static_cast<std::size_t>(g)]) {
      out.delta.changed.push_back(g);
    } else {
      ++out.delta.unchanged;
      out.warm.plane_of[static_cast<std::size_t>(g)] =
          before_partition.plane(old);
    }
  }
  for (GateId g = 0; g < before.num_gates(); ++g) {
    if (before.is_partitionable(g) && !matched[static_cast<std::size_t>(g)]) {
      out.delta.removed.push_back(std::string(before.gate(g).name));
    }
  }
  return out;
}

// The join tries the `before` gate after the previous match first. A
// revision in reversed gate order misses on every gate, a prior with I/O
// gates between its logic gates misses after each of them, and renamed
// I/O gates (one of whose names a logic gate takes over) miss too; every
// miss falls back to the name index, and the delta and the warm start
// must be the index-only join's.
TEST(Delta, OrderedJoinFallbackMatchesAnIndexOnlyJoin) {
  const Netlist base = small_scaled();
  std::vector<GateId> io;
  std::vector<GateId> logic;
  for (GateId g = 0; g < base.num_gates(); ++g) {
    (base.is_io(g) ? io : logic).push_back(g);
  }
  ASSERT_FALSE(io.empty());
  std::vector<GateId> interleaved;
  std::size_t next_io = 0;
  for (std::size_t i = 0; i < logic.size(); ++i) {
    interleaved.push_back(logic[i]);
    if (i % 7 == 0 && next_io < io.size()) interleaved.push_back(io[next_io++]);
  }
  interleaved.insert(interleaved.end(), io.begin() + static_cast<long>(next_io),
                     io.end());
  const auto same_name = [](const Netlist& netlist) {
    return [source = &netlist](GateId g) {
      return std::string(source->gate(g).name);
    };
  };
  const Netlist before = rebuild(base, interleaved, same_name(base));
  const VcycleResult parent = vcycle_partition(before, kPlanes);

  MutateParams params;
  params.seed = 4;
  const Netlist mutated = mutate_netlist(before, params, nullptr);
  std::vector<GateId> order(static_cast<std::size_t>(mutated.num_gates()));
  std::iota(order.begin(), order.end(), GateId{0});
  const Netlist ordered = rebuild(mutated, order, same_name(mutated));
  std::reverse(order.begin(), order.end());
  const Netlist reversed = rebuild(mutated, order, same_name(mutated));
  std::reverse(order.begin(), order.end());
  // Every I/O gate renamed; the first logic gate takes the first I/O
  // gate's old name, so it joins an I/O gate and counts as added.
  GateId first_io = kInvalidGate;
  GateId first_logic = kInvalidGate;
  for (GateId g = mutated.num_gates() - 1; g >= 0; --g) {
    (mutated.is_io(g) ? first_io : first_logic) = g;
  }
  const Netlist renamed = rebuild(mutated, order, [&](GateId g) {
    if (mutated.is_io(g)) return std::string(mutated.gate(g).name) + "_r";
    if (g == first_logic) return std::string(mutated.gate(first_io).name);
    return std::string(mutated.gate(g).name);
  });

  for (const Netlist* after : {&ordered, &reversed, &renamed}) {
    SCOPED_TRACE(after == &ordered    ? "ordered"
                 : after == &reversed ? "reversed"
                                      : "renamed");
    const ReferenceDiff expected =
        reference_diff(parent.partition, before, *after);
    const NetlistDelta delta = compute_delta(before, *after);
    EXPECT_EQ(delta.added, expected.delta.added);
    EXPECT_EQ(delta.removed, expected.delta.removed);
    EXPECT_EQ(delta.changed, expected.delta.changed);
    EXPECT_EQ(delta.unchanged, expected.delta.unchanged);
    EXPECT_GT(delta.unchanged, 0);
    EXPECT_EQ(warm_start_from(parent.partition, before, *after).plane_of,
              expected.warm.plane_of);
  }
  const GateId taken = renamed.find_gate(mutated.gate(first_io).name.view());
  ASSERT_NE(taken, kInvalidGate);
  EXPECT_TRUE(renamed.is_partitionable(taken));
  const NetlistDelta delta = compute_delta(before, renamed);
  EXPECT_NE(std::find(delta.added.begin(), delta.added.end(), taken),
            delta.added.end());
}

TEST(Delta, RepartitionRejectsAMismatchedPartition) {
  const Netlist before = small_scaled();
  MutateParams params;
  params.seed = 9;
  const Netlist after = mutate_netlist(before, params, nullptr);
  Partition truncated;
  truncated.num_planes = kPlanes;
  truncated.plane_of.assign(10, 0);
  EngineContext context;
  context.num_planes = kPlanes;
  const auto run = repartition(before, truncated, after, context);
  ASSERT_FALSE(run.is_ok());
  EXPECT_TRUE(run.status().is_invalid_argument());
  const std::string& message = run.status().message();
  EXPECT_NE(message.find("covers 10 gates"), std::string::npos) << message;
  EXPECT_NE(message.find("has " + std::to_string(before.num_gates())),
            std::string::npos)
      << message;
}

TEST(Delta, RepartitionRunsTheEcoEngineEndToEnd) {
  const Netlist before = small_scaled();
  VcycleOptions options;
  const VcycleResult parent = vcycle_partition(before, kPlanes, options);

  MutateParams params;
  params.seed = 9;
  const Netlist after = mutate_netlist(before, params, nullptr);
  const NetlistDelta delta = compute_delta(before, after);

  EngineContext context;
  context.num_planes = kPlanes;
  context.compare_scratch = true;
  auto run = repartition(before, parent.partition, after, context);
  ASSERT_TRUE(run.is_ok()) << run.status().message();
  for (GateId g = 0; g < after.num_gates(); ++g) {
    const int plane = run->partition.plane(g);
    if (after.is_partitionable(g)) {
      EXPECT_GE(plane, 0);
      EXPECT_LT(plane, kPlanes);
    } else {
      EXPECT_EQ(plane, kUnassignedPlane);
    }
  }
  EXPECT_EQ(run->counter("dirty_seeds"), static_cast<double>(delta.dirty()));
  EXPECT_GE(run->counter("dirty_gates"), run->counter("dirty_seeds"));
  // The incremental result tracks the scratch solve; a gross divergence
  // means the dirty-region restriction broke the cost model.
  EXPECT_LT(std::abs(run->counter("cost_drift_pct")), 25.0);
  // Determinism: the same ECO twice is bit-identical.
  auto again = repartition(before, parent.partition, after, context);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(run->partition.plane_of, again->partition.plane_of);
}

}  // namespace
}  // namespace sfqpart
