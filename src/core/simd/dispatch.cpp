#include "core/simd/dispatch.h"

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "core/simd/kernels_scalar.h"

namespace sfqpart::simd {
namespace {

// ---- probe workload --------------------------------------------------
// A synthetic problem exercising every alignment path: odd gate counts
// (vector-block tails), a K that part-fills the last plane group at both
// lane widths, a second K spanning multiple groups, and a CSR incidence
// with mixed degrees — sparse (degree ~2, weights 1..3) or dense around
// a hub (degree >= 64, weights 1..9, as on coarse graphs). Values come
// from a fixed LCG, not util/rng, so the probe has no dependency on (and
// can never perturb) the solver's pinned streams.

struct LcgDouble {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  double next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

constexpr std::size_t kRowAlign = 8;  // util/matrix.h kRowAlignDoubles

std::size_t padded(std::size_t k) {
  return (k + kRowAlign - 1) / kRowAlign * kRowAlign;
}

struct ProbeProblem {
  std::size_t gates;
  std::size_t k;
  std::size_t stride;
  std::vector<double> w;     // gates x stride, padding zero
  std::vector<double> grad;  // same shape, padding zero
  std::vector<double> bias;
  std::vector<double> area;
  std::vector<std::pair<int, int>> edges;
  std::vector<std::int32_t> weights;  // 1..3 sparse, 1..9 with a hub
  std::vector<std::uint32_t> slot_of_first;
  std::vector<std::uint32_t> slot_of_second;
  std::vector<std::uint32_t> inc_offsets;

  ProbeProblem(std::size_t gates_in, std::size_t k_in, std::size_t num_edges,
               bool hub = false)
      : gates(gates_in), k(k_in), stride(padded(k_in)) {
    LcgDouble rng;
    w.assign(gates * stride, 0.0);
    grad.assign(gates * stride, 0.0);
    for (std::size_t i = 0; i < gates; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        w[i * stride + kk] = rng.next();
        grad[i * stride + kk] = rng.next() - 0.5;
      }
    }
    bias.resize(gates);
    area.resize(gates);
    for (std::size_t i = 0; i < gates; ++i) {
      bias[i] = 1.0 + rng.next();
      area[i] = 2.0 + rng.next();
    }
    for (std::size_t e = 0; e < num_edges; ++e) {
      int a = static_cast<int>((e * 7 + 1) % gates);
      int b = static_cast<int>((e * 13 + 3) % gates);
      if (b == a) b = (b + 1) % static_cast<int>(gates);
      // Hub: three of every four edges touch gate 0, as either endpoint.
      if (hub && e % 4 != 3) {
        a = 0;
        b = 1 + static_cast<int>(e % (gates - 1));
        if (e % 2 == 1) std::swap(a, b);
      }
      edges.emplace_back(a, b);
      weights.push_back(
          static_cast<std::int32_t>(hub ? 1 + e * 5 % 9 : 1 + e % 3));
    }
    // CSR incidence in ascending edge order per gate, matching
    // core/problem_view.h.
    std::vector<std::uint32_t> degree(gates, 0);
    for (const auto& [a, b] : edges) {
      ++degree[static_cast<std::size_t>(a)];
      ++degree[static_cast<std::size_t>(b)];
    }
    inc_offsets.assign(gates + 1, 0);
    for (std::size_t i = 0; i < gates; ++i) {
      inc_offsets[i + 1] = inc_offsets[i] + degree[i];
    }
    std::vector<std::uint32_t> cursor(inc_offsets.begin(),
                                      inc_offsets.end() - 1);
    slot_of_first.resize(edges.size());
    slot_of_second.resize(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      slot_of_first[e] = cursor[static_cast<std::size_t>(edges[e].first)]++;
      slot_of_second[e] = cursor[static_cast<std::size_t>(edges[e].second)]++;
    }
  }
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Runs one kernel table over the probe problem; all outputs collected so
// the caller can compare tables bitwise.
struct ProbeResult {
  std::vector<double> labels, row_mean, bias_acc, area_acc;
  std::vector<double> slot_grad, grad, stepped_w;
  double f4_agg = 0.0, f4_step = 0.0, f4_fill = 0.0;
  double f1 = 0.0, f1_grad = 0.0, grad_max = 0.0;

  bool operator==(const ProbeResult& o) const {
    return bits_equal(labels, o.labels) && bits_equal(row_mean, o.row_mean) &&
           bits_equal(bias_acc, o.bias_acc) &&
           bits_equal(area_acc, o.area_acc) &&
           bits_equal(slot_grad, o.slot_grad) && bits_equal(grad, o.grad) &&
           bits_equal(stepped_w, o.stepped_w) &&
           bits_equal(f4_agg, o.f4_agg) && bits_equal(f4_step, o.f4_step) &&
           bits_equal(f4_fill, o.f4_fill) && bits_equal(f1, o.f1) &&
           bits_equal(f1_grad, o.f1_grad) && bits_equal(grad_max, o.grad_max);
  }
};

ProbeResult run_probe(const KernelTable& t, const ProbeProblem& p,
                      int exponent) {
  ProbeResult r;
  r.labels.assign(p.gates, 0.0);
  r.row_mean.assign(p.gates, 0.0);
  r.bias_acc.assign(p.stride, 0.0);
  r.area_acc.assign(p.stride, 0.0);

  AggregateArgs agg{p.w.data(),    p.stride,          p.k,
                    p.bias.data(), p.area.data(),     r.labels.data(),
                    r.row_mean.data()};
  t.aggregate(agg, 0, p.gates, r.bias_acc.data(), r.area_acc.data(),
              &r.f4_agg);

  EdgeArgs ea{p.edges.data(), r.labels.data(), exponent, p.weights.data()};
  r.f1 = t.f1_term(ea, 0, p.edges.size());

  r.slot_grad.assign(2 * p.edges.size(), 0.0);
  EdgeGradArgs eg{p.edges.data(),
                  r.labels.data(),
                  p.slot_of_first.data(),
                  p.slot_of_second.data(),
                  r.slot_grad.data(),
                  exponent,
                  3.5,
                  true,
                  p.weights.data()};
  r.f1_grad = t.edge_grad(eg, 0, p.edges.size());

  // Plane diffs: any padded-to-stride values work for identity purposes.
  std::vector<double> plane_diff(2 * p.stride, 0.0);
  LcgDouble diff_rng{0x2545f4914f6cdd1dull};
  for (std::size_t kk = 0; kk < p.k; ++kk) {
    plane_diff[kk] = diff_rng.next() - 0.5;
    plane_diff[p.stride + kk] = diff_rng.next() - 0.5;
  }
  r.grad.assign(p.gates * p.stride, 0.0);
  FusedGateArgs fg{p.w.data(),
                   r.grad.data(),
                   p.stride,
                   p.k,
                   r.row_mean.data(),
                   p.bias.data(),
                   p.area.data(),
                   plane_diff.data(),
                   plane_diff.data() + p.stride,
                   r.slot_grad.data(),
                   p.inc_offsets.data(),
                   0.9,
                   0.07,
                   0.05,
                   0.8,
                   true};
  r.grad_max = t.fused_gate(fg, 0, p.gates, &r.f4_fill);

  r.stepped_w = p.w;
  std::vector<double> step_labels(p.gates, 0.0);
  std::vector<double> step_mean(p.gates, 0.0);
  std::vector<double> step_bias(p.stride, 0.0);
  std::vector<double> step_area(p.stride, 0.0);
  AggregateArgs sagg{r.stepped_w.data(), p.stride,          p.k,
                     p.bias.data(),      p.area.data(),     step_labels.data(),
                     step_mean.data()};
  t.step_aggregate(sagg, r.stepped_w.data(), r.grad.data(), 0.37, 0, p.gates,
                   step_bias.data(), step_area.data(), &r.f4_step);
  // Fold the step pass outputs into the compared vectors.
  r.labels.insert(r.labels.end(), step_labels.begin(), step_labels.end());
  r.row_mean.insert(r.row_mean.end(), step_mean.begin(), step_mean.end());
  r.bias_acc.insert(r.bias_acc.end(), step_bias.begin(), step_bias.end());
  r.area_acc.insert(r.area_acc.end(), step_area.begin(), step_area.end());
  return r;
}

bool probe_matches_scalar(const KernelTable& table) {
  // K=5 part-fills a 4-lane and an 8-lane group; K=11 spans multiple
  // groups at both widths; K=7 leaves a 3-lane and a 7-lane group. 67
  // and 75 gates leave tails at both block sizes; 89 and 53 edges leave
  // edge-pass tails of 1 and 5, and the hub shapes' 96..103 edges every
  // tail mod 8 (so mod 4 too).
  std::vector<ProbeProblem> shapes;
  shapes.emplace_back(67, 5, 89);
  shapes.emplace_back(35, 11, 53);
  for (std::size_t edges = 96; edges < 104; ++edges) {
    shapes.emplace_back(75, 7, edges, /*hub=*/true);
  }
  const KernelTable& scalar = scalar_kernels();
  for (const ProbeProblem& p : shapes) {
    for (int exponent : {4, 2}) {
      if (!(run_probe(table, p, exponent) == run_probe(scalar, p, exponent))) {
        return false;
      }
    }
  }
  return true;
}

// ---- tier selection --------------------------------------------------

bool cpu_supports(Tier tier) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
  }
  return false;
#else
  return tier == Tier::kScalar;
#endif
}

struct DispatchState {
  DispatchInfo info;
  const KernelTable* table = &scalar_kernels();
};

const KernelTable* table_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return &scalar_kernels();
    case Tier::kAvx2:
      return avx2_kernels();
    case Tier::kAvx512:
      return avx512_kernels();
  }
  return nullptr;
}

Tier lower(Tier tier) {
  return tier == Tier::kAvx512 ? Tier::kAvx2 : Tier::kScalar;
}

DispatchState compute_state() {
  DispatchState s;
  Tier detected = Tier::kScalar;
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (table_for(t) != nullptr && cpu_supports(t)) detected = t;
  }
  s.info.detected = detected;

  Tier requested = detected;
  if (const char* env = std::getenv("SFQPART_KERNELS")) {
    if (const auto parsed = parse_tier(env)) {
      s.info.env_override = true;
      // Clamp up-requests: the override can only narrow, never enable an
      // ISA this machine cannot execute.
      requested = static_cast<int>(*parsed) < static_cast<int>(detected)
                      ? *parsed
                      : detected;
    }
  }
  s.info.requested = requested;

  Tier active = requested;
  while (active != Tier::kScalar &&
         !probe_matches_scalar(*table_for(active))) {
    active = lower(active);
    s.info.probe_demoted = true;
  }
  s.info.active = active;
  s.table = table_for(active);
  return s;
}

DispatchState& state() {
  static DispatchState s = compute_state();
  return s;
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<Tier> parse_tier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  return std::nullopt;
}

bool tier_available(Tier tier) {
  return table_for(tier) != nullptr && cpu_supports(tier);
}

const KernelTable* tier_kernels(Tier tier) { return table_for(tier); }

const DispatchInfo& dispatch_info() { return state().info; }

const KernelTable& kernels() { return *state().table; }

bool probe_tier(Tier tier) {
  if (tier == Tier::kScalar) return true;
  if (!tier_available(tier)) return false;
  return probe_matches_scalar(*table_for(tier));
}

Tier force_tier_for_testing(Tier tier) {
  while (tier != Tier::kScalar && !tier_available(tier)) tier = lower(tier);
  DispatchState& s = state();
  s.info.active = tier;
  s.info.forced = true;
  s.table = table_for(tier);
  return tier;
}

void reset_dispatch_for_testing() { state() = compute_state(); }

}  // namespace sfqpart::simd
