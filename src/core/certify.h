// Independent partition certifier.
//
// Every number downstream of a partition — the compensation current
// I_comp, the free-space area A_FS, the inductive coupling-pair count,
// the weighted cost an engine reports — is re-derived here from the raw
// Netlist, deliberately *not* through CostModel / compute_metrics /
// plan_coupling. Those modules and the engines share code and therefore
// share bugs; the certifier is the second implementation that has to
// agree (DESIGN.md §13). It never asserts on malformed input: an
// out-of-range label or a violated pin comes back as a structured
// verdict, so the daemon and CI can reject a bad result instead of
// crashing on it.
//
// The same independent re-derivation doubles as the scoring oracle of
// the `exact` branch-and-bound engine (core/engine_exact.cpp):
// CertifiedInstance precomputes the normalization constants and exposes
// score(labels) over compact indices.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/cost_model.h"
#include "core/partition.h"
#include "netlist/netlist.h"

namespace sfqpart {

enum class CertifyVerdict {
  kValid = 0,
  // A partitionable gate is outside [0, K), or a non-partitionable (I/O)
  // gate was assigned a plane.
  kLabelOutOfRange = 1,
  // partition.num_planes or plane_of.size() disagree with the request.
  kPlaneCountMismatch = 2,
  // The engine-reported cost terms disagree with the independent
  // re-derivation beyond tolerance.
  kCostMismatch = 3,
  // A pinned or grouped gate sits on the wrong plane.
  kConstraintViolation = 4,
};

const char* certify_verdict_name(CertifyVerdict verdict);

// What the engine claimed; the certifier re-derives and compares.
struct CertifyExpectation {
  CostTerms terms;
  double total = 0.0;
};

struct CertifyReport {
  CertifyVerdict verdict = CertifyVerdict::kValid;
  // Human-readable detail of the first failure; empty when valid.
  std::string message;

  // Independently re-derived quantities (populated only when the labels
  // themselves are well-formed, i.e. the verdict is not
  // kLabelOutOfRange / kPlaneCountMismatch).
  CostTerms terms;
  double total = 0.0;           // terms.total(weights)
  double icomp_ma = 0.0;        // sum_k (B_max - B_k), equation 11
  double afs_um2 = 0.0;         // sum_k (A_max - A_k)
  long long coupling_pairs = 0; // driver/receiver pairs (sum of distances)

  bool valid() const { return verdict == CertifyVerdict::kValid; }
};

// The compact instance the certifier re-derives from the raw netlist:
// partitionable gates in ascending GateId order, the deduplicated
// undirected connection set, and the paper's normalization constants —
// all rebuilt here (not copied from PartitionProblem / CostModel) so a
// bug in the production derivation cannot certify itself.
struct CertifiedInstance {
  int num_planes = 0;
  std::vector<GateId> gate_ids;            // compact -> GateId
  std::vector<int> compact_of_gate;        // GateId -> compact, -1 for I/O
  std::vector<double> bias;                // b_i [mA]
  std::vector<double> area;                // a_i [um^2]
  // Undirected, compact, from < to, in the order of each edge's first
  // net sink (net order, then sink order).
  std::vector<std::pair<int, int>> edges;
  double total_bias = 0.0;
  double total_area = 0.0;
  // Normalization constants of equations 4-6 and 9, re-derived.
  double n1 = 1.0;
  double n2 = 1.0;
  double n3 = 1.0;
  double n4 = 1.0;
  // F4 of any one-hot assignment is the constant -1 / (K^2 (K-1)): per
  // gate the constraint residual is sum_term^2 - variance/K with
  // sum_term = 0 and variance = 1 - 1/K, and N4 = G (K-1)^2.
  double f4_constant = 0.0;

  int num_gates() const { return static_cast<int>(gate_ids.size()); }

  // Cost terms / weighted total of a compact label vector (size G, every
  // label in [0, K)). The exact engine's scoring oracle.
  CostTerms terms_of(const std::vector<int>& labels,
                     const CostWeights& weights) const;
  double score(const std::vector<int>& labels,
               const CostWeights& weights) const {
    return terms_of(labels, weights).total(weights);
  }
};

CertifiedInstance build_certified_instance(const Netlist& netlist,
                                           int num_planes,
                                           const CostWeights& weights);

// Certifies `partition` against `netlist`. Checks, in order: plane-count
// consistency, label range (I/O gates must stay unassigned), pinned /
// grouped constraints (when `constraints` is non-null), and — when
// `expect` is non-null — agreement of the engine-reported cost terms
// with the independent re-derivation to relative tolerance 1e-9.
// I_comp / A_FS / coupling pairs are always re-derived for a well-formed
// labeling and reported even when the verdict is a cost mismatch.
CertifyReport certify_partition(const Netlist& netlist,
                                const Partition& partition, int num_planes,
                                const CostWeights& weights,
                                const CertifyExpectation* expect = nullptr,
                                const CompiledConstraints* constraints = nullptr);

}  // namespace sfqpart
