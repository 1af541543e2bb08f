// Heavy-edge-matching coarsening — the level builder behind the
// multilevel and V-cycle engines.
//
// Extracted from core/multilevel.cpp so every multilevel-style engine
// shares one implementation: coarsen_once() contracts a matching of the
// weighted graph into the next coarser PartitionProblem, and
// build_level_stack() iterates it into an explicit LevelStack — the
// per-level problems plus the fine->coarse projection arrays the
// uncoarsening sweep walks back up.
//
// Two match-visit orders are provided:
//
//  * kLegacyShuffle reproduces the historical multilevel engine bit for
//    bit: the visit order is an Rng shuffle, coarse ids are assigned in
//    that same shuffled order, and the Rng draws happen even for a level
//    the stall check later discards. The golden-label parity tests in
//    tests/core/engine_test.cpp pin this path.
//  * kDegreeSorted is the determinism-contract order the V-cycle uses:
//    vertices are visited by descending weighted degree (the sum of
//    incident edge weights) with ascending-index tie-break. No Rng is
//    consumed, so the level shape is a pure function of the graph — the
//    historical Rng-shuffled order made level shape depend on how many
//    draws earlier stages had consumed, which is exactly the
//    iteration-order dependence the determinism contract (DESIGN.md
//    section 7) forbids.
//
// Matching is the classic heavy-edge rule: visit vertices in order,
// match each unmatched vertex to its unmatched neighbor of maximal edge
// weight (first such neighbor in adjacency order wins ties). A second,
// two-hop pass then pairs vertices left single that share the same
// heaviest neighbor — the leaves of a splitter fanout tree or star, which
// heavy-edge matching cannot pair because their one neighbor is taken
// (DESIGN.md section 12.5). Matched pairs merge; parallel inter-cluster
// edges collapse into one edge carrying their summed weight, so a coarse
// edge of weight w costs what its w fine edges cost. Bias and area
// accumulate through merges, so every coarse problem optimizes the same
// F1..F3 objective.
#pragma once

#include <functional>
#include <vector>

#include "core/partition.h"

namespace sfqpart {

class ProblemView;
class Rng;

enum class MatchOrder {
  kLegacyShuffle,  // Rng-shuffled visit order (bit-compatible legacy path)
  kDegreeSorted,   // weighted-degree-descending, index tie-break; Rng-free
};

// One coarsening step: the coarser problem plus the projection array.
// parent_of_fine is total (every fine vertex has a coarse parent) and
// onto (every coarse id 0..num_gates-1 owns at least one fine vertex).
struct CoarseLevel {
  PartitionProblem problem;
  std::vector<int> parent_of_fine;  // fine vertex -> coarse vertex
  // Coarse-level fixed planes (-1 = free), present only when the fine
  // level was coarsened under constraints: a merged vertex inherits the
  // fixed plane of its pinned child (matching never pairs two vertices
  // pinned to different planes, so the inheritance is conflict-free).
  std::vector<int> fixed;

  // Projects labels of this level's coarse problem onto its fine problem.
  std::vector<int> project(const std::vector<int>& coarse_labels) const;
};

struct CoarsenOptions {
  // Stop coarsening at this many vertices (never below 4*K).
  int coarse_target = 160;
  // Safety cap on coarsening levels.
  int max_levels = 20;
  // Stop when a level shrinks by less than this percentage (matching
  // stalls on graphs of isolated vertices or of pinned-apart stars).
  int min_shrink_percent = 5;
  MatchOrder order = MatchOrder::kLegacyShuffle;
};

// The explicit level hierarchy. levels[i] coarsens problem i into problem
// i+1, where problem 0 is the caller's finest problem and problem i+1 is
// levels[i].problem; levels.back().problem is the coarsest.
struct LevelStack {
  std::vector<CoarseLevel> levels;

  int num_levels() const { return static_cast<int>(levels.size()); }
  const PartitionProblem& coarsest(const PartitionProblem& finest) const {
    return levels.empty() ? finest : levels.back().problem;
  }
  // The coarsest level's fixed-plane array (null when unconstrained);
  // `finest_fixed` is the caller's finest-level array, returned verbatim
  // when no coarsening happened.
  const std::vector<int>* coarsest_fixed(
      const std::vector<int>* finest_fixed) const {
    if (levels.empty()) return finest_fixed;
    return levels.back().fixed.empty() ? nullptr : &levels.back().fixed;
  }
};

// One heavy-edge plus two-hop matching contraction of the viewed
// problem. `rng` is consumed (one shuffle) only by kLegacyShuffle and may
// be null for kDegreeSorted. `fixed` (per fine vertex, -1 = free; null =
// unconstrained) forbids matching two vertices pinned to different
// planes, in either pass, and fills CoarseLevel::fixed.
CoarseLevel coarsen_once(const ProblemView& fine, MatchOrder order,
                         Rng* rng = nullptr,
                         const std::vector<int>* fixed = nullptr);

// Builds the full hierarchy: repeat coarsen_once until the vertex count
// reaches max(coarse_target, 4*K), max_levels is hit, or matching stalls
// (a discarded stalled level still consumes its kLegacyShuffle Rng draws,
// preserving the legacy draw sequence). `on_level` (optional) observes
// each accepted level: (1-based level index, the coarse problem).
// `fixed` pins finest-level vertices; the pins propagate level by level.
LevelStack build_level_stack(
    const PartitionProblem& finest, const CoarsenOptions& options,
    Rng* rng = nullptr,
    const std::function<void(int, const PartitionProblem&)>& on_level = {},
    const std::vector<int>* fixed = nullptr);

}  // namespace sfqpart
