#include "core/certify.h"

// Certifier contract (DESIGN.md section 13): the independent
// re-derivation agrees with the production CostModel / metrics pipeline
// on every engine's real output, and every tampering of a result —
// moved label, out-of-range plane, wrong plane count, wrong cost claim,
// violated pin — produces its specific structured verdict instead of an
// assert.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/engine.h"
#include "gen/scaled.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "netlist/netlist.h"
#include "recycling/coupling.h"

namespace sfqpart {
namespace {

// The seed circuit the heuristics are exercised on; `exact` gets a tiny
// chain instead (it rejects anything above max_gates by design).
Netlist exact_sized_netlist() {
  Netlist netlist;
  std::vector<GateId> gates;
  for (int i = 0; i < 8; ++i) {
    gates.push_back(
        netlist.add_gate_of_kind("g" + std::to_string(i), CellKind::kJtl));
  }
  for (int i = 0; i + 1 < 8; ++i) {
    netlist.connect(gates[static_cast<std::size_t>(i)], 0,
                    gates[static_cast<std::size_t>(i + 1)], 0);
  }
  const GateId merge = netlist.add_gate_of_kind("m0", CellKind::kMerge);
  netlist.connect(gates[1], 0, merge, 0);
  netlist.connect(gates[6], 0, merge, 1);
  return netlist;
}

Netlist netlist_for(const std::string& engine) {
  return engine == "exact" ? exact_sized_netlist() : build_mapped("ksa4");
}

struct EngineOutput {
  Netlist netlist;
  Partition partition;
  CertifyExpectation expect;
};

EngineOutput run_engine(const std::string& name, int num_planes) {
  EngineOutput out{netlist_for(name), {}, {}};
  const auto engine = EngineRegistry::create(name);
  EXPECT_TRUE(engine.is_ok()) << name;
  EngineContext context;
  context.num_planes = num_planes;
  context.restarts = 1;
  // eco refuses to run cold; an all-unassigned warm start marks the whole
  // netlist dirty, so its output covers the generic certification path.
  InitialPartition warm;
  if (name == "eco") {
    warm.plane_of.assign(static_cast<std::size_t>(out.netlist.num_gates()),
                         kUnassignedPlane);
    context.warm_start = &warm;
  }
  const auto run = (*engine)->run(out.netlist, context);
  EXPECT_TRUE(run.is_ok()) << name << ": " << run.status().message();
  out.partition = run->partition;
  out.expect.terms = run->discrete_terms;
  out.expect.total = run->discrete_total;
  return out;
}

int first_partitionable(const Netlist& netlist) {
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) return g;
  }
  return kInvalidGate;
}

TEST(Certify, VerdictNamesAreStable) {
  EXPECT_STREQ(certify_verdict_name(CertifyVerdict::kValid), "valid");
  EXPECT_STREQ(certify_verdict_name(CertifyVerdict::kLabelOutOfRange),
               "label_out_of_range");
  EXPECT_STREQ(certify_verdict_name(CertifyVerdict::kPlaneCountMismatch),
               "plane_count_mismatch");
  EXPECT_STREQ(certify_verdict_name(CertifyVerdict::kCostMismatch),
               "cost_mismatch");
  EXPECT_STREQ(certify_verdict_name(CertifyVerdict::kConstraintViolation),
               "constraint_violation");
}

// The tentpole guarantee: the certifier validates every registry
// engine's output, cost terms included, through its own derivation.
TEST(Certify, ValidatesEveryEngineOutputOnSeedCircuit) {
  const int num_planes = 3;
  for (const std::string& name : EngineRegistry::names()) {
    const EngineOutput out = run_engine(name, num_planes);
    const CertifyReport report =
        certify_partition(out.netlist, out.partition, num_planes,
                          CostWeights{}, &out.expect);
    EXPECT_TRUE(report.valid())
        << name << ": " << certify_verdict_name(report.verdict) << ": "
        << report.message;
  }
}

// Every class of tampering produces its specific verdict, for every
// engine's real output.
TEST(Certify, TamperedOutputsProduceSpecificVerdicts) {
  const int num_planes = 3;
  for (const std::string& name : EngineRegistry::names()) {
    const EngineOutput out = run_engine(name, num_planes);
    const int gate = first_partitionable(out.netlist);
    ASSERT_NE(gate, kInvalidGate);
    const auto ug = static_cast<std::size_t>(gate);

    // Moved label, unchanged cost claim -> the re-derived terms disagree.
    Partition moved = out.partition;
    moved.plane_of[ug] = (moved.plane_of[ug] + 1) % num_planes;
    const CertifyReport moved_report = certify_partition(
        out.netlist, moved, num_planes, CostWeights{}, &out.expect);
    EXPECT_EQ(moved_report.verdict, CertifyVerdict::kCostMismatch) << name;
    EXPECT_FALSE(moved_report.message.empty()) << name;

    // A plane outside [0, K).
    Partition out_of_range = out.partition;
    out_of_range.plane_of[ug] = num_planes;
    EXPECT_EQ(certify_partition(out.netlist, out_of_range, num_planes,
                                CostWeights{})
                  .verdict,
              CertifyVerdict::kLabelOutOfRange)
        << name;

    // An I/O gate assigned to a plane (ksa4 has pads; the tiny chain has
    // none, so skip there).
    for (GateId g = 0; g < out.netlist.num_gates(); ++g) {
      if (out.netlist.is_partitionable(g)) continue;
      Partition io_assigned = out.partition;
      io_assigned.plane_of[static_cast<std::size_t>(g)] = 0;
      EXPECT_EQ(certify_partition(out.netlist, io_assigned, num_planes,
                                  CostWeights{})
                    .verdict,
                CertifyVerdict::kLabelOutOfRange)
          << name;
      break;
    }

    // Plane count disagreeing with the request.
    Partition wrong_k = out.partition;
    wrong_k.num_planes = num_planes + 1;
    EXPECT_EQ(certify_partition(out.netlist, wrong_k, num_planes,
                                CostWeights{})
                  .verdict,
              CertifyVerdict::kPlaneCountMismatch)
        << name;
    Partition truncated = out.partition;
    truncated.plane_of.pop_back();
    EXPECT_EQ(certify_partition(out.netlist, truncated, num_planes,
                                CostWeights{})
                  .verdict,
              CertifyVerdict::kPlaneCountMismatch)
        << name;

    // Correct labels, inflated cost claim.
    CertifyExpectation inflated = out.expect;
    inflated.terms.f1 += 0.5;
    EXPECT_EQ(certify_partition(out.netlist, out.partition, num_planes,
                                CostWeights{}, &inflated)
                  .verdict,
              CertifyVerdict::kCostMismatch)
        << name;

    // A pinned gate on the wrong plane.
    GateConstraints pins;
    pins.pins = {{out.netlist.gate(gate).name,
                  (out.partition.plane(gate) + 1) % num_planes}};
    const auto compiled = compile_constraints(out.netlist, pins, num_planes);
    ASSERT_TRUE(compiled.is_ok()) << name;
    const CertifyReport pin_report =
        certify_partition(out.netlist, out.partition, num_planes,
                          CostWeights{}, nullptr, &*compiled);
    EXPECT_EQ(pin_report.verdict, CertifyVerdict::kConstraintViolation)
        << name;
    EXPECT_NE(pin_report.message.find(out.netlist.gate(gate).name),
              std::string::npos)
        << name << ": " << pin_report.message;
  }
}

// Cost tolerance: a relative perturbation below 1e-9 still certifies
// (the engines and the certifier sum in different orders).
TEST(Certify, CostComparisonUsesRelativeTolerance) {
  const EngineOutput out = run_engine("gradient", 3);
  CertifyExpectation nudged = out.expect;
  nudged.total += nudged.total * 1e-12;
  EXPECT_TRUE(certify_partition(out.netlist, out.partition, 3, CostWeights{},
                                &nudged)
                  .valid());
  CertifyExpectation off = out.expect;
  off.total += 1e-6;
  EXPECT_EQ(certify_partition(out.netlist, out.partition, 3, CostWeights{},
                              &off)
                .verdict,
            CertifyVerdict::kCostMismatch);
}

// The re-derived physical quantities agree with the production metrics
// and coupling pipelines — two code paths, one physics.
TEST(Certify, PhysicalQuantitiesMatchMetricsPipeline) {
  const EngineOutput out = run_engine("gradient", 3);
  const CertifyReport report =
      certify_partition(out.netlist, out.partition, 3, CostWeights{});
  ASSERT_TRUE(report.valid()) << report.message;

  const PartitionMetrics metrics = compute_metrics(out.netlist, out.partition);
  EXPECT_NEAR(report.icomp_ma, metrics.icomp_ma, 1e-9 * (1.0 + metrics.icomp_ma));
  EXPECT_NEAR(report.afs_um2, metrics.afs_um2, 1e-9 * (1.0 + metrics.afs_um2));

  const CouplingReport coupling = plan_coupling(out.netlist, out.partition);
  EXPECT_EQ(report.coupling_pairs,
            static_cast<long long>(coupling.total_pairs));
}

// And the re-derived terms agree with the shared CostModel on arbitrary
// (not engine-produced) labelings.
TEST(Certify, TermsMatchCostModelOnArbitraryLabels) {
  const Netlist netlist = build_mapped("ksa4");
  const int num_planes = 4;
  const PartitionProblem problem =
      PartitionProblem::from_netlist(netlist, num_planes);
  const CostModel model(problem, CostWeights{});
  const CertifiedInstance instance =
      build_certified_instance(netlist, num_planes, CostWeights{});
  ASSERT_EQ(instance.num_gates(), problem.num_gates);

  std::vector<int> labels(static_cast<std::size_t>(problem.num_gates));
  for (int i = 0; i < problem.num_gates; ++i) {
    labels[static_cast<std::size_t>(i)] = (i * 7) % num_planes;
  }
  const CostTerms expected = model.evaluate_discrete(labels);
  const CostTerms derived = instance.terms_of(labels, CostWeights{});
  EXPECT_NEAR(derived.f1, expected.f1, 1e-9 * (1.0 + std::abs(expected.f1)));
  EXPECT_NEAR(derived.f2, expected.f2, 1e-9 * (1.0 + std::abs(expected.f2)));
  EXPECT_NEAR(derived.f3, expected.f3, 1e-9 * (1.0 + std::abs(expected.f3)));
  EXPECT_NEAR(derived.f4, expected.f4, 1e-9 * (1.0 + std::abs(expected.f4)));
}

// With context.certify the adapter records the verdict as counters and
// fails the run on a non-valid one; a valid run reports verdict 0.
TEST(Certify, AdapterRecordsVerdictCounters) {
  const Netlist netlist = build_mapped("ksa4");
  const auto engine = EngineRegistry::create("gradient");
  ASSERT_TRUE(engine.is_ok());
  EngineContext context;
  context.num_planes = 3;
  context.restarts = 1;
  context.certify = true;
  const auto run = (*engine)->run(netlist, context);
  ASSERT_TRUE(run.is_ok()) << run.status().message();
  EXPECT_EQ(run->counter("certified"), 1.0);
  EXPECT_EQ(run->counter("certify_verdict"),
            static_cast<double>(CertifyVerdict::kValid));
}

// The certifier's edge set, in compact indices, sorted — against the
// netlist's own unique_edges().
void expect_dedup_matches_unique_edges(const Netlist& netlist) {
  const CertifiedInstance instance =
      build_certified_instance(netlist, 3, CostWeights{});
  std::vector<std::pair<int, int>> derived = instance.edges;
  std::sort(derived.begin(), derived.end());
  std::vector<std::pair<int, int>> reference;
  for (const Connection& edge : netlist.unique_edges()) {
    const int a = instance.compact_of_gate[static_cast<std::size_t>(edge.from)];
    const int b = instance.compact_of_gate[static_cast<std::size_t>(edge.to)];
    reference.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(derived, reference);
}

// A splitter feeding both inputs of one merge: two nets, one edge.
TEST(CertifyDedup, SplitterIntoBothMergeInputsIsOneEdge) {
  Netlist netlist;
  const GateId a = netlist.add_gate_of_kind("a", CellKind::kJtl);
  const GateId split = netlist.add_gate_of_kind("s", CellKind::kSplit);
  const GateId merge = netlist.add_gate_of_kind("m", CellKind::kMerge);
  netlist.connect(a, 0, split, 0);
  netlist.connect(split, 0, merge, 0);
  netlist.connect(split, 1, merge, 1);
  expect_dedup_matches_unique_edges(netlist);
  EXPECT_EQ(build_certified_instance(netlist, 3, CostWeights{}).edges.size(),
            2u);
}

// a -> b and b -> a: one undirected edge.
TEST(CertifyDedup, TwoGateLoopIsOneEdge) {
  Netlist netlist;
  const GateId a = netlist.add_gate_of_kind("a", CellKind::kJtl);
  const GateId b = netlist.add_gate_of_kind("b", CellKind::kJtl);
  netlist.connect(a, 0, b, 0);
  netlist.connect(b, 0, a, 0);
  expect_dedup_matches_unique_edges(netlist);
  EXPECT_EQ(build_certified_instance(netlist, 3, CostWeights{}).edges.size(),
            1u);
}

// A gate driving its own input carries no cost and is no edge.
TEST(CertifyDedup, SelfLoopIsNoEdge) {
  Netlist netlist;
  const GateId a = netlist.add_gate_of_kind("a", CellKind::kJtl);
  const GateId merge = netlist.add_gate_of_kind("m", CellKind::kMerge);
  netlist.connect(a, 0, merge, 0);
  netlist.connect(merge, 0, merge, 1);
  expect_dedup_matches_unique_edges(netlist);
  EXPECT_EQ(build_certified_instance(netlist, 3, CostWeights{}).edges.size(),
            1u);
}

// On a generated chip the table keeps every distinct edge once, in the
// order of its first sink (a std::set replay of the same walk).
TEST(CertifyDedup, KeepsFirstOccurrenceOrderOnAScaledChip) {
  ScaledParams params;
  params.num_gates = 5000;
  params.seed = 4;
  const Netlist netlist = build_scaled(params);
  expect_dedup_matches_unique_edges(netlist);

  const CertifiedInstance instance =
      build_certified_instance(netlist, 5, CostWeights{});
  std::set<std::pair<int, int>> seen;
  std::vector<std::pair<int, int>> first_order;
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(n);
    if (net.driver.gate == kInvalidGate) continue;
    const int from =
        instance.compact_of_gate[static_cast<std::size_t>(net.driver.gate)];
    if (from < 0) continue;
    for (const PinRef& sink : net.sinks) {
      const int to =
          instance.compact_of_gate[static_cast<std::size_t>(sink.gate)];
      if (to < 0 || to == from) continue;
      const std::pair<int, int> edge{std::min(from, to), std::max(from, to)};
      if (seen.insert(edge).second) first_order.push_back(edge);
    }
  }
  EXPECT_EQ(instance.edges, first_order);
}

}  // namespace
}  // namespace sfqpart
