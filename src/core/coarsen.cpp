#include "core/coarsen.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace sfqpart {
namespace {

// True when v and u may share a coarse vertex: never two vertices pinned
// to different planes, since the merged vertex could not honor both pins.
bool pins_compatible(const std::vector<int>* fixed, int v, int u) {
  if (fixed == nullptr) return true;
  const int fv = (*fixed)[static_cast<std::size_t>(v)];
  const int fu = (*fixed)[static_cast<std::size_t>(u)];
  return fv < 0 || fu < 0 || fv == fu;
}

// The contracted edge set: every fine edge between two different coarse
// vertices, parallel edges (either orientation) collapsed into one edge
// (lo, hi), lo < hi, whose weight is their summed weight. Coarse edges
// are ordered by lo, then by their first fine edge. Bucketing the fine
// edges by lo and stamping hi makes this O(E) without hashing, and the
// lo-major order lets the cost model's edge pass read one endpoint's
// label sequentially.
void contract_edges(const PartitionProblem& fine,
                    const std::vector<int>& parent_of_fine, int num_coarse,
                    PartitionProblem& coarse) {
  const auto n = static_cast<std::size_t>(num_coarse);
  const auto coarse_ends = [&](const std::pair<int, int>& edge) {
    const int ca = parent_of_fine[static_cast<std::size_t>(edge.first)];
    const int cb = parent_of_fine[static_cast<std::size_t>(edge.second)];
    return std::pair<int, int>{std::min(ca, cb), std::max(ca, cb)};
  };
  std::vector<std::uint32_t> bucket_offsets(n + 1, 0);
  for (const auto& edge : fine.edges) {
    const auto [lo, hi] = coarse_ends(edge);
    if (lo != hi) ++bucket_offsets[static_cast<std::size_t>(lo) + 1];
  }
  for (std::size_t c = 1; c <= n; ++c) {
    bucket_offsets[c] += bucket_offsets[c - 1];
  }
  // (hi, weight) per crossing fine edge, grouped by lo in fine edge order.
  std::vector<std::pair<int, int>> bucket(bucket_offsets[n]);
  std::vector<std::uint32_t> cursor(bucket_offsets.begin(),
                                    bucket_offsets.end() - 1);
  for (std::size_t e = 0; e < fine.edges.size(); ++e) {
    const auto [lo, hi] = coarse_ends(fine.edges[e]);
    if (lo == hi) continue;
    const std::uint32_t at = cursor[static_cast<std::size_t>(lo)]++;
    bucket[at] = {hi, fine.edge_weight(e)};
  }

  // edge_of[hi]: the coarse edge (lo, hi) of the current lo, or -1.
  std::vector<int> edge_of(n, -1);
  for (std::size_t lo = 0; lo < n; ++lo) {
    const std::size_t first = coarse.edges.size();
    for (std::uint32_t i = bucket_offsets[lo]; i < bucket_offsets[lo + 1];
         ++i) {
      const auto [hi, weight] = bucket[i];
      int& edge = edge_of[static_cast<std::size_t>(hi)];
      if (edge < 0) {
        edge = static_cast<int>(coarse.edges.size());
        coarse.edges.emplace_back(static_cast<int>(lo), hi);
        coarse.edge_weights.push_back(weight);
      } else {
        coarse.edge_weights[static_cast<std::size_t>(edge)] += weight;
      }
    }
    for (std::size_t e = first; e < coarse.edges.size(); ++e) {
      edge_of[static_cast<std::size_t>(coarse.edges[e].second)] = -1;
    }
  }
}

// True when some vertex meets one neighbor in two slots: the problem
// has parallel edges (self-loops aside, which the matcher skips). Coarse
// levels never do (contract_edges collapses them) and netlist problems
// never do (Netlist::unique_edges), so only a hand-built finest problem
// can.
bool has_parallel_edges(const ProblemView& view) {
  const int n = view.num_gates();
  const std::uint32_t* offsets = view.offsets();
  const std::int32_t* adj = view.neighbors();
  std::vector<int> seen_from(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    for (std::uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      const int u = adj[s];
      if (u == v) continue;
      int& seen = seen_from[static_cast<std::size_t>(u)];
      if (seen == v) return true;
      seen = v;
    }
  }
  return false;
}

// The edge set the matcher reads for a problem with parallel edges: each
// neighbor pair once, with its summed weight (contract_edges under the
// identity projection). Only the graph is kept; bias and area stay with
// the original problem.
PartitionProblem collapsed_graph(const PartitionProblem& problem) {
  PartitionProblem collapsed;
  collapsed.num_gates = problem.num_gates;
  collapsed.num_planes = problem.num_planes;
  std::vector<int> identity(static_cast<std::size_t>(problem.num_gates));
  std::iota(identity.begin(), identity.end(), 0);
  contract_edges(problem, identity, problem.num_gates, collapsed);
  return collapsed;
}

// The pinned visit order: descending weighted degree, ascending index
// among equal degrees. Degrees are non-negative integers, so one counting
// sort places every vertex in O(n + max degree): bucket d — counted from
// the top degree down — starts where the heavier buckets end, and the
// ascending vertex scan fills each bucket in index order.
std::vector<int> degree_sorted_order(const ProblemView& view) {
  const auto n = static_cast<std::size_t>(view.num_gates());
  std::vector<long long> degree(n);
  long long max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = view.weighted_degree(static_cast<int>(v));
    assert(degree[v] >= 0 && "edge weights are positive multiplicities");
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::uint32_t> bucket_start(
      static_cast<std::size_t>(max_degree) + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++bucket_start[static_cast<std::size_t>(max_degree - degree[v]) + 1];
  }
  for (std::size_t b = 1; b < bucket_start.size(); ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }
  std::vector<int> visit(n);
  for (std::size_t v = 0; v < n; ++v) {
    visit[bucket_start[static_cast<std::size_t>(max_degree - degree[v])]++] =
        static_cast<int>(v);
  }
  return visit;
}

// The matching tie rule: a neighbor beats the incumbent on a larger edge
// weight, or on an equal weight and a smaller index (a search starts from
// no neighbor, best = -1, at weight 0). Where each neighbor has one slot,
// this picks the first maximal-weight neighbor in ascending index order —
// the rule the matcher applied to its historical adjacency order.
bool heavier(int weight, int u, int best_weight, int best) {
  return weight > best_weight || (weight == best_weight && u < best);
}

// One contraction of `fine`, matching on `graph` — `fine`'s own view, or
// its collapsed graph when `fine` has parallel edges.
CoarseLevel coarsen_on(const ProblemView& fine, const ProblemView& graph,
                       const std::vector<int>* fixed) {
  const int n = fine.num_gates();
  const PartitionProblem& problem = fine.problem();
  const std::uint32_t* offsets = graph.offsets();
  const std::int32_t* adj = graph.neighbors();
  const std::int32_t* slot_weights = graph.slot_weights();

  // A pure function of the graph: no Rng draw, no dependence on how many
  // draws earlier stages consumed.
  const std::vector<int> visit = degree_sorted_order(fine);

  // Heavy-edge matching in visit order: the maximal-weight unmatched,
  // pin-compatible neighbor, the smallest index among equals.
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    int best = -1;
    int best_weight = 0;
    for (std::uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      const int u = adj[s];
      if (u == v || match[static_cast<std::size_t>(u)] >= 0) continue;
      if (!pins_compatible(fixed, v, u)) continue;
      if (heavier(slot_weights[s], u, best_weight, best)) {
        best_weight = slot_weights[s];
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // stays single
    }
  }

  // Two-hop (sibling) pass. Heavy-edge matching stalls on stars: a
  // splitter tree's hub takes one leaf and every other leaf is left
  // single, because its only neighbor is already matched. Leaves that
  // share their heaviest neighbor share one driver, so merging them adds
  // no coupling between them (DESIGN.md section 12.5). Visit the singles
  // in the same order and pair each with the previous still-waiting
  // single of the same heaviest neighbor (maximal weight, matched or not,
  // the smallest index among equals).
  std::vector<int> waiting(static_cast<std::size_t>(n), -1);  // by hub
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    int hub = -1;
    int hub_weight = 0;
    for (std::uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      const int u = adj[s];
      if (u != v && heavier(slot_weights[s], u, hub_weight, hub)) {
        hub_weight = slot_weights[s];
        hub = u;
      }
    }
    if (hub < 0) continue;  // isolated vertex
    int& sibling = waiting[static_cast<std::size_t>(hub)];
    if (sibling < 0) {
      sibling = v;
    } else if (pins_compatible(fixed, v, sibling)) {
      match[static_cast<std::size_t>(v)] = sibling;
      match[static_cast<std::size_t>(sibling)] = v;
      sibling = -1;
    }
  }

  // Contract matched pairs; coarse ids are assigned in visit order.
  CoarseLevel level;
  level.parent_of_fine.assign(static_cast<std::size_t>(n), -1);
  PartitionProblem& coarse = level.problem;
  coarse.num_planes = problem.num_planes;
  for (const int v : visit) {
    const auto uv = static_cast<std::size_t>(v);
    if (level.parent_of_fine[uv] >= 0) continue;
    const int partner = match[uv];
    const int coarse_id = coarse.num_gates++;
    level.parent_of_fine[uv] = coarse_id;
    if (partner != v) {
      level.parent_of_fine[static_cast<std::size_t>(partner)] = coarse_id;
    }
    coarse.bias.push_back(
        problem.bias[uv] +
        (partner != v ? problem.bias[static_cast<std::size_t>(partner)] : 0.0));
    coarse.area.push_back(
        problem.area[uv] +
        (partner != v ? problem.area[static_cast<std::size_t>(partner)] : 0.0));
    // gate_ids at coarse levels index the *fine* problem's vertices (the
    // representative); only the finest level's ids refer to the netlist.
    coarse.gate_ids.push_back(v);
    if (fixed != nullptr) {
      int plane = (*fixed)[uv];
      if (plane < 0 && partner != v) {
        plane = (*fixed)[static_cast<std::size_t>(partner)];
      }
      level.fixed.push_back(plane);
    }
  }
  contract_edges(problem, level.parent_of_fine, coarse.num_gates, coarse);
  return level;
}

}  // namespace

std::vector<int> CoarseLevel::project(
    const std::vector<int>& coarse_labels) const {
  std::vector<int> fine_labels(parent_of_fine.size());
  for (std::size_t v = 0; v < fine_labels.size(); ++v) {
    fine_labels[v] =
        coarse_labels[static_cast<std::size_t>(parent_of_fine[v])];
  }
  return fine_labels;
}

CoarseLevel coarsen_once(const ProblemView& fine,
                         const std::vector<int>* fixed) {
  if (!has_parallel_edges(fine)) return coarsen_on(fine, fine, fixed);
  const PartitionProblem collapsed = collapsed_graph(fine.problem());
  return coarsen_on(fine, ProblemView(collapsed), fixed);
}

LevelStack build_level_stack(
    const ProblemView& finest, const CoarsenOptions& options,
    const std::function<void(int, const PartitionProblem&)>& on_level,
    const std::vector<int>* fixed) {
  LevelStack stack;
  stack.finest_view_ = &finest;
  const PartitionProblem* current = &finest.problem();
  const std::vector<int>* current_fixed = fixed;
  const int floor_size =
      std::max(options.coarse_target, 4 * finest.num_planes());
  const int keep_percent = 100 - options.min_shrink_percent;
  while (current->num_gates > floor_size &&
         stack.num_levels() < options.max_levels) {
    CoarseLevel level;
    if (stack.levels.empty()) {
      level = coarsen_once(finest, current_fixed);
    } else {
      // A coarse level comes out of contract_edges collapsed, so its own
      // view is the matcher's graph. Uncoarsening reads the view again
      // (LevelStack::view).
      const ProblemView& view = stack.coarse_views_.emplace_back(*current);
      level = coarsen_on(view, view, current_fixed);
    }
    // Stop when progress fades: the two-hop pass merges the stars that
    // stall heavy-edge matching, but a graph of isolated vertices or of
    // stars whose leaves are pinned apart still cannot shrink.
    if (level.problem.num_gates > current->num_gates * keep_percent / 100) {
      // The stalled problem stays the coarsest, which keeps no view.
      if (!stack.levels.empty()) stack.coarse_views_.pop_back();
      break;
    }
    stack.levels.push_back(std::move(level));
    current = &stack.levels.back().problem;
    current_fixed =
        stack.levels.back().fixed.empty() ? nullptr : &stack.levels.back().fixed;
    if (on_level) on_level(stack.num_levels(), *current);
  }
  return stack;
}

LevelStack build_level_stack(
    const PartitionProblem& finest, const CoarsenOptions& options,
    const std::function<void(int, const PartitionProblem&)>& on_level,
    const std::vector<int>* fixed) {
  auto view = std::make_unique<ProblemView>(finest);
  LevelStack stack = build_level_stack(*view, options, on_level, fixed);
  stack.owned_finest_view_ = std::move(view);
  return stack;
}

}  // namespace sfqpart
