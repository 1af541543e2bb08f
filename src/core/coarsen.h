// Heavy-edge-matching coarsening — the level builder behind the V-cycle
// engines (core/vcycle.h).
//
// coarsen_once() contracts a matching of the weighted graph into the next
// coarser PartitionProblem, and build_level_stack() iterates it into an
// explicit LevelStack — the per-level problems plus the fine->coarse
// projection arrays the uncoarsening sweep walks back up.
//
// Vertices are visited by descending weighted degree (the sum of incident
// edge weights) with ascending-index tie-break, placed by one counting
// sort over the integer degrees. No Rng is consumed, so the level shape is
// a pure function of the graph: a random visit order would make it depend
// on how many draws earlier stages had consumed, which is exactly the
// iteration-order dependence the determinism contract (DESIGN.md
// section 7) forbids.
//
// Matching is the classic heavy-edge rule: visit vertices in order,
// match each unmatched vertex to its unmatched neighbor of maximal edge
// weight, the smallest such neighbor index winning ties. Both passes read
// the shared ProblemView's CSR slots directly; a problem with parallel
// edges (only a hand-built finest problem can have them) is collapsed
// once, for the matcher only, so every neighbor appears in one slot
// carrying its summed weight (DESIGN.md section 12.5). A second, two-hop
// pass then pairs vertices left single that share the same heaviest
// neighbor — the leaves of a splitter fanout tree or star, which
// heavy-edge matching cannot pair because their one neighbor is taken
// (DESIGN.md section 12.5). Matched pairs merge; parallel inter-cluster
// edges collapse into one edge carrying their summed weight, so a coarse
// edge of weight w costs what its w fine edges cost. Bias and area
// accumulate through merges, so every coarse problem optimizes the same
// F1..F3 objective.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/partition.h"
#include "core/problem_view.h"

namespace sfqpart {

// The one visit order (weighted-degree-descending, index tie-break).
enum class MatchOrder {
  kDegreeSorted,
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
  // Read by nothing: kept only because sfqbench/sfqbench.cpp still
  // assigns it.
  MatchOrder order = MatchOrder::kDegreeSorted;
};

// The explicit level hierarchy. levels[i] coarsens problem i into problem
// i+1, where problem 0 is the caller's finest problem and problem i+1 is
// levels[i].problem; levels.back().problem is the coarsest.
//
// The stack keeps the CSR view (core/problem_view.h) of every problem it
// coarsened: it borrows the finest one and owns the coarse ones, each
// built once, during coarsening, and read again by uncoarsening's cost
// model and move evaluator. A view points at its problem, so the levels
// live in a deque (growth never relocates an element) and the stack is
// move-only (a move relocates none either).
struct LevelStack {
  std::deque<CoarseLevel> levels;

  LevelStack() = default;
  LevelStack(LevelStack&&) = default;
  LevelStack& operator=(LevelStack&&) = default;

  int num_levels() const { return static_cast<int>(levels.size()); }
  // The view of problem i, for 0 <= i < num_levels(): the problems that
  // were coarsened. The coarsest problem has none.
  const ProblemView& view(int i) const {
    return i == 0 ? *finest_view_
                  : coarse_views_[static_cast<std::size_t>(i) - 1];
  }
  // Drops the coarsest level and the view of the problem it coarsened
  // (the finest view stays with its owner): uncoarsening's release of a
  // level it has refined.
  void pop_level() {
    levels.pop_back();
    if (!coarse_views_.empty()) coarse_views_.pop_back();
  }
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

 private:
  friend LevelStack build_level_stack(
      const ProblemView&, const CoarsenOptions&,
      const std::function<void(int, const PartitionProblem&)>&,
      const std::vector<int>*);
  friend LevelStack build_level_stack(
      const PartitionProblem&, const CoarsenOptions&,
      const std::function<void(int, const PartitionProblem&)>&,
      const std::vector<int>*);

  const ProblemView* finest_view_ = nullptr;
  std::unique_ptr<ProblemView> owned_finest_view_;  // bare-problem overload
  std::deque<ProblemView> coarse_views_;  // [i] views levels[i].problem
};

// One heavy-edge plus two-hop matching contraction of the viewed
// problem. `fixed` (per fine vertex, -1 = free; null = unconstrained)
// forbids matching two vertices pinned to different planes, in either
// pass, and fills CoarseLevel::fixed. A `fine` with parallel edges is
// collapsed for the matcher first; the contraction still reads its own
// edge list.
CoarseLevel coarsen_once(const ProblemView& fine,
                         const std::vector<int>* fixed = nullptr);

// Builds the full hierarchy: repeat coarsen_once until the vertex count
// reaches max(coarse_target, 4*K), max_levels is hit, or matching stalls.
// `on_level` (optional) observes each accepted level: (1-based level
// index, the coarse problem). `fixed` pins finest-level vertices; the
// pins propagate level by level. The stack borrows `finest`, which must
// outlive it.
LevelStack build_level_stack(
    const ProblemView& finest, const CoarsenOptions& options,
    const std::function<void(int, const PartitionProblem&)>& on_level = {},
    const std::vector<int>* fixed = nullptr);

// Same, on a bare problem: the stack builds and owns the finest view.
LevelStack build_level_stack(
    const PartitionProblem& finest, const CoarsenOptions& options,
    const std::function<void(int, const PartitionProblem&)>& on_level = {},
    const std::vector<int>* fixed = nullptr);

}  // namespace sfqpart
