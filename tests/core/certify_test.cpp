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
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/delta.h"
#include "core/engine.h"
#include "gen/mutate.h"
#include "gen/random_logic.h"
#include "gen/scaled.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "netlist/netlist.h"
#include "recycling/coupling.h"
#include "util/hash.h"

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

// The label check walks the gates in id order and reports the first
// offender, whichever of its two messages applies: an assigned I/O gate
// below an out-of-range partitionable label is reported, and the other
// way round.
TEST(Certify, LabelCheckReportsTheLowestOffendingGate) {
  const Netlist netlist = build_mapped("ksa4");
  const int num_planes = 3;
  Partition partition;
  partition.num_planes = num_planes;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    partition.plane_of.push_back(
        netlist.is_partitionable(g) ? g % num_planes : kUnassignedPlane);
  }
  ASSERT_TRUE(certify_partition(netlist, partition, num_planes, CostWeights{})
                  .valid());
  GateId io = kInvalidGate;
  GateId io_above = kInvalidGate;  // an I/O gate above a partitionable one
  GateId inner = kInvalidGate;     // a partitionable gate above `io`
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) {
      if (io == kInvalidGate) io = g;
      if (inner != kInvalidGate && io_above == kInvalidGate) io_above = g;
    } else if (io != kInvalidGate && inner == kInvalidGate) {
      inner = g;
    }
  }
  ASSERT_NE(inner, kInvalidGate);
  ASSERT_NE(io_above, kInvalidGate);

  Partition io_first = partition;
  io_first.plane_of[static_cast<std::size_t>(io)] = 1;
  io_first.plane_of[static_cast<std::size_t>(inner)] = num_planes;
  const CertifyReport io_report =
      certify_partition(netlist, io_first, num_planes, CostWeights{});
  EXPECT_EQ(io_report.verdict, CertifyVerdict::kLabelOutOfRange);
  EXPECT_EQ(io_report.message,
            "I/O gate " + std::to_string(io) + " ('" +
                netlist.gate(io).name.c_str() +
                "') was assigned plane 1; interface cells stay on the "
                "shared pad-ring ground");

  Partition inner_first = partition;
  inner_first.plane_of[static_cast<std::size_t>(inner)] = -2;
  inner_first.plane_of[static_cast<std::size_t>(io_above)] = 0;
  const CertifyReport inner_report =
      certify_partition(netlist, inner_first, num_planes, CostWeights{});
  EXPECT_EQ(inner_report.verdict, CertifyVerdict::kLabelOutOfRange);
  EXPECT_EQ(inner_report.message,
            "gate " + std::to_string(inner) + " ('" +
                netlist.gate(inner).name.c_str() +
                "') has plane -2 outside [0, 3)");
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

// The test above on any netlist: its std::set replay and its
// unique_edges() cross-check, for the inputs below.
void expect_first_occurrence_order(const Netlist& netlist) {
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
  EXPECT_EQ(instance.edges, first_order) << netlist.name();
}

// An unmapped logic cloud: nets with wide fanout, so lo groups of many
// pairs and repeats from one driver.
TEST(CertifyDedup, KeepsFirstOccurrenceOrderOnALogicCloud) {
  RandomLogicParams params;
  params.num_gates = 2000;
  params.seed = 7;
  const Netlist netlist = build_random_logic(params);
  expect_first_occurrence_order(netlist);
}

// A gen/mutate revision: removed gates leave undriven sinks behind and
// added gates append nets out of creation order.
TEST(CertifyDedup, KeepsFirstOccurrenceOrderOnAnEcoRevision) {
  ScaledParams params;
  params.num_gates = 5000;
  params.seed = 4;
  MutateParams mutation;
  mutation.seed = 9;
  const Netlist after = mutate_netlist(build_scaled(params), mutation);
  expect_first_occurrence_order(after);
}

// The Table I circuits: I/O endpoints and clock sinks.
TEST(CertifyDedup, KeepsFirstOccurrenceOrderOnTableICircuits) {
  for (const SuiteEntry& entry : benchmark_suite()) {
    const Netlist netlist = build_mapped(entry);
    expect_first_occurrence_order(netlist);
  }
}

// Bit pins of the certifier's report: FNV-1a over the raw bits of f1..f4,
// total, I_comp, A_FS and the coupling pairs, recorded before the
// streaming re-derivation (DESIGN.md section 13.1) replaced the hash-set
// dedup. The labels come from the engines, so a re-pin of their goldens
// re-pins these too.
struct ReportPin {
  const char* name;
  std::uint64_t hash;
};

// Without it gtest prints the raw bytes, name pointer included, so every
// load address would give the test another ctest name.
void PrintTo(const ReportPin& pin, std::ostream* os) { *os << pin.name; }

std::uint64_t report_hash(const CertifyReport& report) {
  Fnv1a64 hash;
  for (const double value :
       {report.terms.f1, report.terms.f2, report.terms.f3, report.terms.f4,
        report.total, report.icomp_ma, report.afs_um2}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    hash.update(&bits, sizeof bits);
  }
  hash.update(&report.coupling_pairs, sizeof report.coupling_pairs);
  return hash.digest();
}

EngineContext pin_context() {
  EngineContext context;
  context.num_planes = 5;
  context.seed = 1;
  return context;
}

Netlist pin_chip(std::uint64_t seed) {
  ScaledParams params;
  params.num_gates = 20000;
  params.seed = seed;
  return build_scaled(params);
}

// The certified report of one pin input: "chip<seed>" is a 2*10^4-gate
// chip with vcycle labels, "chip1_eco<seed>" a gen/mutate revision of
// chip 1 with eco labels, anything else a Table I circuit with gradient
// labels.
CertifyReport pinned_report(const std::string& name) {
  const EngineContext context = pin_context();
  auto certify = [&](const Netlist& netlist, const StatusOr<EngineRun>& run) {
    EXPECT_TRUE(run.is_ok()) << name << ": " << run.status().message();
    const CertifyExpectation expect{run->discrete_terms, run->discrete_total};
    const CertifyReport report = certify_partition(
        netlist, run->partition, context.num_planes, CostWeights{}, &expect);
    EXPECT_TRUE(report.valid()) << name << ": " << report.message;
    return report;
  };
  const auto vcycle = EngineRegistry::create("vcycle");
  if (name.rfind("chip1_eco", 0) == 0) {
    const Netlist before = pin_chip(1);
    const auto solved = (*vcycle)->run(before, context);
    MutateParams mutation;
    mutation.seed = std::stoull(name.substr(9));
    const Netlist after = mutate_netlist(before, mutation);
    return certify(after,
                   repartition(before, solved->partition, after, context));
  }
  if (name.rfind("chip", 0) == 0) {
    const Netlist netlist = pin_chip(std::stoull(name.substr(4)));
    return certify(netlist, (*vcycle)->run(netlist, context));
  }
  const Netlist netlist = build_mapped(name);
  return certify(netlist,
                 (*EngineRegistry::create("gradient"))->run(netlist, context));
}

class CertifyPin : public ::testing::TestWithParam<ReportPin> {};

TEST_P(CertifyPin, ReproducesPinnedReportBits) {
  const CertifyReport report = pinned_report(GetParam().name);
  EXPECT_EQ(report_hash(report), GetParam().hash)
      << std::hex << report_hash(report);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CertifyPin,
    ::testing::Values(
        ReportPin{"chip1", 0x038d54f13d0a5d89ull},
        ReportPin{"chip2", 0x75128ae3c9f0322aull},
        ReportPin{"chip3", 0x7de3843cf508e601ull},
        ReportPin{"chip1_eco1", 0x42fcc271a031c329ull},
        ReportPin{"chip1_eco2", 0x2362aaaa04448abbull},
        ReportPin{"ksa4", 0xd43ac1f6d06dccaaull},
        ReportPin{"ksa8", 0xf486b64ef167de3aull},
        ReportPin{"ksa16", 0x4d688005fdd24d75ull},
        ReportPin{"ksa32", 0x38420df0572d411dull},
        ReportPin{"mult4", 0xab110e6368fa1a3aull},
        ReportPin{"mult8", 0x88caaa044055796aull},
        ReportPin{"id4", 0xd8e764903f0264d1ull},
        ReportPin{"id8", 0xf62daa335622777full},
        ReportPin{"c432", 0x7ada382712e0d15bull},
        ReportPin{"c499", 0x0dab4c7a5365d006ull},
        ReportPin{"c1355", 0x5d7b47b36c0011feull},
        ReportPin{"c1908", 0x1de4624fd7d41b66ull},
        ReportPin{"c3540", 0x15e1fe867618ce5bull}),
    [](const ::testing::TestParamInfo<ReportPin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sfqpart
