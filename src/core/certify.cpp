#include "core/certify.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "util/strings.h"

namespace sfqpart {
namespace {

// Relative tolerance of the cost comparison. The engines and the
// certifier sum the same mathematical series in different orders, so
// agreement is to rounding, not to the bit.
constexpr double kRelTolerance = 1e-9;

bool close_enough(double expected, double derived) {
  const double scale =
      std::max({1.0, std::abs(expected), std::abs(derived)});
  return std::abs(expected - derived) <= kRelTolerance * scale;
}

// |d|^p by repeated multiplication (p >= 1, small).
double dist_pow(double d, int p) {
  double magnitude = std::abs(d);
  double result = 1.0;
  for (int i = 0; i < p; ++i) result *= magnitude;
  return result;
}

// Keeps the first occurrence of every undirected pair (lo < hi) in
// `pairs`, in order, and drops the repeats in place (DESIGN.md §13.1).
// A stable counting sort lists the pair indices by lo; walked in that
// order, a pair whose hi already carries the stamp of its own lo repeats
// an earlier pair of its group. There is no table over the keys: what it
// touches out of order is the pair list and two arrays of 4 B per gate.
void keep_first_occurrences(std::vector<std::pair<int, int>>& pairs,
                            int num_gates) {
  const auto g = static_cast<std::size_t>(num_gates);
  // next_slot[lo + 1] counts group lo; after the prefix sum next_slot[lo]
  // is the slot of group lo's next pair.
  std::vector<std::uint32_t> next_slot(g + 1, 0);
  for (const auto& pair : pairs) {
    ++next_slot[static_cast<std::size_t>(pair.first) + 1];
  }
  for (std::size_t lo = 1; lo <= g; ++lo) next_slot[lo] += next_slot[lo - 1];
  std::vector<std::uint32_t> by_lo(pairs.size());
  for (std::uint32_t i = 0; i < pairs.size(); ++i) {
    by_lo[next_slot[static_cast<std::size_t>(pairs[i].first)]++] = i;
  }

  std::vector<int> stamp(g, -1);
  std::size_t repeats = 0;
  for (const std::uint32_t i : by_lo) {
    std::pair<int, int>& pair = pairs[i];
    int& last_lo = stamp[static_cast<std::size_t>(pair.second)];
    if (last_lo == pair.first) {
      pair.first = -1;  // a repeat: dropped below
      ++repeats;
    } else {
      last_lo = pair.first;
    }
  }
  if (repeats > 0) {
    std::erase_if(pairs, [](const std::pair<int, int>& pair) {
      return pair.first < 0;
    });
  }
}

// What certify_partition reads beside the instance, gathered on the
// instance build's own walks: the compact labels and the coupling pairs.
struct Labeling {
  const int* plane_of = nullptr;  // GateId -> plane, range-checked
  std::vector<int> labels;        // compact -> plane
  long long coupling_pairs = 0;
};

// build_certified_instance's body: one walk over the gates, reading each
// cell record once, and one over the nets (DESIGN.md §13.1). With
// `labeling`, the gate walk also reads the compact labels and the net
// walk sums the coupling pairs: one directed link per net sink between
// assigned gates (clock edges, repeats and self-loops included), each
// crossing |plane(sink) - plane(driver)| boundaries and needing that
// many driver/receiver pairs.
CertifiedInstance derive_instance(const Netlist& netlist, int num_planes,
                                  const CostWeights& weights,
                                  Labeling* labeling) {
  CertifiedInstance instance;
  instance.num_planes = num_planes;
  const int num_gates = netlist.num_gates();
  const auto num_compact =
      static_cast<std::size_t>(netlist.num_partitionable_gates());
  instance.compact_of_gate.resize(static_cast<std::size_t>(num_gates));
  instance.gate_ids.reserve(num_compact);
  instance.bias.reserve(num_compact);
  instance.area.reserve(num_compact);
  if (labeling != nullptr) labeling->labels.reserve(num_compact);
  for (GateId g = 0; g < num_gates; ++g) {
    int& compact = instance.compact_of_gate[static_cast<std::size_t>(g)];
    if (netlist.is_io(g)) {
      compact = -1;
      continue;
    }
    const Cell& cell = netlist.cell_of(g);
    compact = static_cast<int>(instance.gate_ids.size());
    instance.gate_ids.push_back(g);
    instance.bias.push_back(cell.bias_ma);
    instance.area.push_back(cell.area_um2);
    instance.total_bias += cell.bias_ma;
    instance.total_area += cell.area_um2;
    if (labeling != nullptr) labeling->labels.push_back(labeling->plane_of[g]);
  }

  // The undirected connection set E, re-derived net by net: every
  // partitionable, non-self (lo, hi) occurrence in net and sink order,
  // then the repeats dropped (netlist.cpp buckets and sorts; a shared
  // dedup bug cannot survive two implementations). Edges keep
  // first-occurrence order, so the F1 sum of terms_of keeps its order.
  // SFQ nets have one sink each, so the net count sizes the list.
  const int* compact_of = instance.compact_of_gate.data();
  const int* label = labeling != nullptr ? labeling->labels.data() : nullptr;
  long long coupling_pairs = 0;
  std::vector<std::pair<int, int>>& edges = instance.edges;
  edges.reserve(static_cast<std::size_t>(netlist.num_nets()));
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(n);
    if (net.driver.gate == kInvalidGate) continue;
    const int from = compact_of[net.driver.gate];
    if (from < 0) continue;
    for (const PinRef& sink : net.sinks) {
      const int to = compact_of[sink.gate];
      if (to < 0) continue;
      if (label != nullptr) coupling_pairs += std::abs(label[to] - label[from]);
      if (to == from) continue;
      edges.emplace_back(std::min(from, to), std::max(from, to));
    }
  }
  if (labeling != nullptr) labeling->coupling_pairs = coupling_pairs;
  keep_first_occurrences(edges, instance.num_gates());

  const double k1 = static_cast<double>(num_planes - 1);
  const double mean_bias = instance.total_bias / num_planes;
  const double mean_area = instance.total_area / num_planes;
  instance.n1 = static_cast<double>(instance.edges.size()) *
                dist_pow(k1, weights.distance_exponent);
  instance.n2 = k1 * mean_bias * mean_bias;
  instance.n3 = k1 * mean_area * mean_area;
  instance.n4 = static_cast<double>(instance.num_gates()) * k1 * k1;
  if (instance.n1 <= 0.0) instance.n1 = 1.0;
  if (instance.n2 <= 0.0) instance.n2 = 1.0;
  if (instance.n3 <= 0.0) instance.n3 = 1.0;
  if (instance.n4 <= 0.0) instance.n4 = 1.0;
  const double kd = static_cast<double>(num_planes);
  instance.f4_constant = static_cast<double>(instance.num_gates()) *
                         (-(kd - 1.0) / (kd * kd)) / instance.n4;
  return instance;
}

// terms_of's body. It also hands back the per-plane bias and area sums,
// which I_comp and A_FS (equation 11) read.
CostTerms derive_terms(const CertifiedInstance& instance,
                       const std::vector<int>& labels,
                       const CostWeights& weights,
                       std::vector<double>& plane_bias,
                       std::vector<double>& plane_area) {
  CostTerms terms;
  for (const auto& [u, v] : instance.edges) {
    terms.f1 += dist_pow(labels[static_cast<std::size_t>(u)] -
                             labels[static_cast<std::size_t>(v)],
                         weights.distance_exponent);
  }
  terms.f1 /= instance.n1;

  const int num_planes = instance.num_planes;
  const auto kd = static_cast<double>(num_planes);
  plane_bias.assign(static_cast<std::size_t>(num_planes), 0.0);
  plane_area.assign(static_cast<std::size_t>(num_planes), 0.0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto plane = static_cast<std::size_t>(labels[i]);
    plane_bias[plane] += instance.bias[i];
    plane_area[plane] += instance.area[i];
  }
  const double mean_bias = instance.total_bias / kd;
  const double mean_area = instance.total_area / kd;
  for (int k = 0; k < num_planes; ++k) {
    const double db = plane_bias[static_cast<std::size_t>(k)] - mean_bias;
    const double da = plane_area[static_cast<std::size_t>(k)] - mean_area;
    terms.f2 += db * db;
    terms.f3 += da * da;
  }
  terms.f2 /= kd * instance.n2;
  terms.f3 /= kd * instance.n3;
  terms.f4 = instance.f4_constant;
  return terms;
}

}  // namespace

const char* certify_verdict_name(CertifyVerdict verdict) {
  switch (verdict) {
    case CertifyVerdict::kValid: return "valid";
    case CertifyVerdict::kLabelOutOfRange: return "label_out_of_range";
    case CertifyVerdict::kPlaneCountMismatch: return "plane_count_mismatch";
    case CertifyVerdict::kCostMismatch: return "cost_mismatch";
    case CertifyVerdict::kConstraintViolation: return "constraint_violation";
  }
  return "unknown";
}

CertifiedInstance build_certified_instance(const Netlist& netlist,
                                           int num_planes,
                                           const CostWeights& weights) {
  return derive_instance(netlist, num_planes, weights, nullptr);
}

CostTerms CertifiedInstance::terms_of(const std::vector<int>& labels,
                                      const CostWeights& weights) const {
  std::vector<double> plane_bias;
  std::vector<double> plane_area;
  return derive_terms(*this, labels, weights, plane_bias, plane_area);
}

CertifyReport certify_partition(const Netlist& netlist,
                                const Partition& partition, int num_planes,
                                const CostWeights& weights,
                                const CertifyExpectation* expect,
                                const CompiledConstraints* constraints) {
  CertifyReport report;

  // 1. Shape: the partition must cover every gate with the requested K.
  if (partition.num_planes != num_planes ||
      static_cast<int>(partition.plane_of.size()) != netlist.num_gates()) {
    report.verdict = CertifyVerdict::kPlaneCountMismatch;
    report.message = str_format(
        "partition has num_planes=%d over %zu gates; expected K=%d over %d "
        "gates",
        partition.num_planes, partition.plane_of.size(), num_planes,
        netlist.num_gates());
    return report;
  }

  // 2. Label range: partitionable gates in [0, K), I/O gates unassigned.
  // plane_of covers every gate (checked above), so it is read directly.
  const int* plane_of = partition.plane_of.data();
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const int plane = plane_of[g];
    if (!netlist.is_io(g)) {
      if (plane < 0 || plane >= num_planes) {
        report.verdict = CertifyVerdict::kLabelOutOfRange;
        report.message = str_format(
            "gate %d ('%s') has plane %d outside [0, %d)", g,
            netlist.gate(g).name.c_str(), plane, num_planes);
        return report;
      }
    } else if (plane != kUnassignedPlane) {
      report.verdict = CertifyVerdict::kLabelOutOfRange;
      report.message = str_format(
          "I/O gate %d ('%s') was assigned plane %d; interface cells stay "
          "on the shared pad-ring ground",
          g, netlist.gate(g).name.c_str(), plane);
      return report;
    }
  }

  // Labels are well-formed: re-derive everything (even when a later check
  // fails, the derived numbers are reported for diagnosis).
  Labeling labeling;
  labeling.plane_of = plane_of;
  const CertifiedInstance instance =
      derive_instance(netlist, num_planes, weights, &labeling);
  std::vector<double> plane_bias;
  std::vector<double> plane_area;
  report.terms = derive_terms(instance, labeling.labels, weights, plane_bias,
                              plane_area);
  report.total = report.terms.total(weights);

  // I_comp / A_FS (equation 11): per-plane bias/area sums vs the heaviest
  // plane.
  const double bmax = *std::max_element(plane_bias.begin(), plane_bias.end());
  const double amax = *std::max_element(plane_area.begin(), plane_area.end());
  for (int k = 0; k < num_planes; ++k) {
    report.icomp_ma += bmax - plane_bias[static_cast<std::size_t>(k)];
    report.afs_um2 += amax - plane_area[static_cast<std::size_t>(k)];
  }
  report.coupling_pairs = labeling.coupling_pairs;

  // 3. Constraints: every fixed gate on its required plane.
  if (constraints != nullptr && !constraints->empty()) {
    for (GateId g = 0; g < netlist.num_gates(); ++g) {
      const int required =
          constraints->fixed_of_gate[static_cast<std::size_t>(g)];
      if (required == kUnassignedPlane) continue;
      if (partition.plane(g) != required) {
        report.verdict = CertifyVerdict::kConstraintViolation;
        report.message = str_format(
            "gate %d ('%s') is constrained to plane %d but sits on plane %d",
            g, netlist.gate(g).name.c_str(), required, partition.plane(g));
        return report;
      }
    }
  }

  // 4. Cost agreement with the engine's claim.
  if (expect != nullptr) {
    const struct {
      const char* name;
      double expected;
      double derived;
    } checks[] = {
        {"f1", expect->terms.f1, report.terms.f1},
        {"f2", expect->terms.f2, report.terms.f2},
        {"f3", expect->terms.f3, report.terms.f3},
        {"f4", expect->terms.f4, report.terms.f4},
        {"total", expect->total, report.total},
    };
    for (const auto& check : checks) {
      if (!close_enough(check.expected, check.derived)) {
        report.verdict = CertifyVerdict::kCostMismatch;
        report.message = str_format(
            "reported %s=%.17g disagrees with the independent re-derivation "
            "%.17g (relative tolerance %g)",
            check.name, check.expected, check.derived, kRelTolerance);
        return report;
      }
    }
  }
  return report;
}

}  // namespace sfqpart
