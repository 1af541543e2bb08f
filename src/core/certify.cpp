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

// Insert-only set of undirected edge keys (lo << 32 | hi, lo < hi):
// open addressing with linear probing in a power-of-two table sized up
// front for `max_keys` inserts at load <= 1/2, so it never rehashes. The
// all-ones word (lo == hi) is never a key and marks an empty slot.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::size_t max_keys) {
    std::size_t capacity = std::size_t{1} << (64 - shift_);
    while (capacity < 2 * max_keys) {
      capacity <<= 1;
      --shift_;
    }
    slots_.assign(capacity, kEmpty);
  }

  // True when `key` was absent (and is now present).
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    for (std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> slots_;
  int shift_ = 60;  // 64 - log2(capacity)
};

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
  CertifiedInstance instance;
  instance.num_planes = num_planes;
  instance.compact_of_gate.assign(
      static_cast<std::size_t>(netlist.num_gates()), -1);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    instance.compact_of_gate[static_cast<std::size_t>(g)] =
        static_cast<int>(instance.gate_ids.size());
    instance.gate_ids.push_back(g);
    instance.bias.push_back(netlist.bias_of(g));
    instance.area.push_back(netlist.area_of(g));
    instance.total_bias += netlist.bias_of(g);
    instance.total_area += netlist.area_of(g);
  }

  // The undirected connection set E, re-derived net by net with hash-set
  // deduplication (netlist.cpp sorts a vector; a shared dedup bug cannot
  // survive two implementations). Edges keep first-occurrence order.
  std::size_t num_sinks = 0;
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    num_sinks += netlist.net(n).sinks.size();
  }
  EdgeKeySet seen(num_sinks);
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
      const int lo = std::min(from, to);
      const int hi = std::max(from, to);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) << 32) |
          static_cast<std::uint32_t>(hi);
      if (seen.insert(key)) instance.edges.emplace_back(lo, hi);
    }
  }

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

CostTerms CertifiedInstance::terms_of(const std::vector<int>& labels,
                                      const CostWeights& weights) const {
  CostTerms terms;
  for (const auto& [u, v] : edges) {
    terms.f1 += dist_pow(labels[static_cast<std::size_t>(u)] -
                             labels[static_cast<std::size_t>(v)],
                         weights.distance_exponent);
  }
  terms.f1 /= n1;

  const auto kd = static_cast<double>(num_planes);
  std::vector<double> plane_bias(static_cast<std::size_t>(num_planes), 0.0);
  std::vector<double> plane_area(static_cast<std::size_t>(num_planes), 0.0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto plane = static_cast<std::size_t>(labels[i]);
    plane_bias[plane] += bias[i];
    plane_area[plane] += area[i];
  }
  const double mean_bias = total_bias / kd;
  const double mean_area = total_area / kd;
  for (int k = 0; k < num_planes; ++k) {
    const double db = plane_bias[static_cast<std::size_t>(k)] - mean_bias;
    const double da = plane_area[static_cast<std::size_t>(k)] - mean_area;
    terms.f2 += db * db;
    terms.f3 += da * da;
  }
  terms.f2 /= kd * n2;
  terms.f3 /= kd * n3;
  terms.f4 = f4_constant;
  return terms;
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
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const int plane = partition.plane(g);
    if (netlist.is_partitionable(g)) {
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
  const CertifiedInstance instance =
      build_certified_instance(netlist, num_planes, weights);
  std::vector<int> labels(static_cast<std::size_t>(instance.num_gates()));
  for (int i = 0; i < instance.num_gates(); ++i) {
    labels[static_cast<std::size_t>(i)] =
        partition.plane(instance.gate_ids[static_cast<std::size_t>(i)]);
  }
  report.terms = instance.terms_of(labels, weights);
  report.total = report.terms.total(weights);

  // I_comp / A_FS (equation 11): per-plane bias/area sums vs the heaviest
  // plane.
  {
    std::vector<double> plane_bias(static_cast<std::size_t>(num_planes), 0.0);
    std::vector<double> plane_area(static_cast<std::size_t>(num_planes), 0.0);
    for (int i = 0; i < instance.num_gates(); ++i) {
      const auto plane = static_cast<std::size_t>(labels[static_cast<std::size_t>(i)]);
      plane_bias[plane] += instance.bias[static_cast<std::size_t>(i)];
      plane_area[plane] += instance.area[static_cast<std::size_t>(i)];
    }
    const double bmax = *std::max_element(plane_bias.begin(), plane_bias.end());
    const double amax = *std::max_element(plane_area.begin(), plane_area.end());
    for (int k = 0; k < num_planes; ++k) {
      report.icomp_ma += bmax - plane_bias[static_cast<std::size_t>(k)];
      report.afs_um2 += amax - plane_area[static_cast<std::size_t>(k)];
    }
  }

  // Coupling pairs: one directed link per net sink (clock edges
  // included), each crossing |plane(sink) - plane(driver)| boundaries and
  // needing that many driver/receiver pairs.
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(n);
    if (net.driver.gate == kInvalidGate) continue;
    if (!partition.assigned(net.driver.gate)) continue;
    const int from = partition.plane(net.driver.gate);
    for (const PinRef& sink : net.sinks) {
      if (!partition.assigned(sink.gate)) continue;
      report.coupling_pairs += std::abs(partition.plane(sink.gate) - from);
    }
  }

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
