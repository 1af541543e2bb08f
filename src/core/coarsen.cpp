#include "core/coarsen.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/problem_view.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

// Per-vertex (neighbor, summed weight) lists in the historical append
// order the legacy coarsener produced by globally sorting canonicalized
// edges: for vertex v, neighbors u < v in ascending u first, then
// neighbors u > v in ascending u. Matching tie-breaks on list order, so
// this order is part of the golden-label contract.
struct WeightedAdjacency {
  std::vector<std::uint32_t> offsets;        // size n + 1
  std::vector<std::pair<int, int>> entries;  // (neighbor, weight)
};

WeightedAdjacency weighted_adjacency(const ProblemView& fine) {
  const int n = fine.num_gates();
  const std::uint32_t* offsets = fine.offsets();
  const std::int32_t* adj = fine.neighbors();
  const std::int32_t* slot_weights = fine.slot_weights();

  WeightedAdjacency out;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  out.entries.reserve(2 * fine.num_edges());

  // Stamp-accumulate each vertex's edge weights per neighbor from the
  // shared CSR view (parallel edges, if any, sum), then sort its few
  // entries into the historical order. O(E log d) total instead of the
  // legacy global edge sort's O(E log E).
  std::vector<int> slot_of(static_cast<std::size_t>(n), -1);
  std::vector<std::pair<int, int>> scratch;
  for (int v = 0; v < n; ++v) {
    scratch.clear();
    for (std::uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      const int u = adj[s];
      int& slot = slot_of[static_cast<std::size_t>(u)];
      if (slot < 0) {
        slot = static_cast<int>(scratch.size());
        scratch.emplace_back(u, slot_weights[s]);
      } else {
        scratch[static_cast<std::size_t>(slot)].second += slot_weights[s];
      }
    }
    for (const auto& [u, weight] : scratch) {
      slot_of[static_cast<std::size_t>(u)] = -1;
    }
    std::sort(scratch.begin(), scratch.end(),
              [v](const std::pair<int, int>& a, const std::pair<int, int>& b) {
                const bool a_low = a.first < v;
                const bool b_low = b.first < v;
                if (a_low != b_low) return a_low;
                return a.first < b.first;
              });
    out.entries.insert(out.entries.end(), scratch.begin(), scratch.end());
    out.offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<std::uint32_t>(out.entries.size());
  }
  return out;
}

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

CoarseLevel coarsen_once(const ProblemView& fine, MatchOrder order, Rng* rng,
                         const std::vector<int>* fixed) {
  const int n = fine.num_gates();
  const PartitionProblem& problem = fine.problem();
  const WeightedAdjacency adjacency = weighted_adjacency(fine);

  std::vector<int> visit(static_cast<std::size_t>(n));
  std::iota(visit.begin(), visit.end(), 0);
  if (order == MatchOrder::kLegacyShuffle) {
    assert(rng != nullptr && "kLegacyShuffle consumes one Rng shuffle");
    rng->shuffle(visit);
  } else {
    // Pinned order: heaviest vertices first (summed incident edge
    // weight), index tie-break. A pure function of the graph — no Rng
    // draw, no dependence on how many draws earlier stages consumed.
    std::vector<long long> degree(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      degree[static_cast<std::size_t>(v)] = fine.weighted_degree(v);
    }
    std::sort(visit.begin(), visit.end(), [&degree](int a, int b) {
      const long long da = degree[static_cast<std::size_t>(a)];
      const long long db = degree[static_cast<std::size_t>(b)];
      if (da != db) return da > db;
      return a < b;
    });
  }

  // Heavy-edge matching in visit order; the first maximal-weight
  // unmatched neighbor in adjacency order wins ties.
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    int best = -1;
    int best_weight = 0;
    for (std::uint32_t s = adjacency.offsets[static_cast<std::size_t>(v)];
         s < adjacency.offsets[static_cast<std::size_t>(v) + 1]; ++s) {
      const auto& [u, weight] = adjacency.entries[s];
      if (u == v || match[static_cast<std::size_t>(u)] >= 0) continue;
      if (!pins_compatible(fixed, v, u)) continue;
      if (weight > best_weight) {
        best_weight = weight;
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
  // single of the same heaviest neighbor (first maximal weight in
  // adjacency order, matched or not).
  std::vector<int> waiting(static_cast<std::size_t>(n), -1);  // by hub
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    int hub = -1;
    int hub_weight = 0;
    for (std::uint32_t s = adjacency.offsets[static_cast<std::size_t>(v)];
         s < adjacency.offsets[static_cast<std::size_t>(v) + 1]; ++s) {
      const auto& [u, weight] = adjacency.entries[s];
      if (u != v && weight > hub_weight) {
        hub_weight = weight;
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

LevelStack build_level_stack(
    const PartitionProblem& finest, const CoarsenOptions& options, Rng* rng,
    const std::function<void(int, const PartitionProblem&)>& on_level,
    const std::vector<int>* fixed) {
  LevelStack stack;
  const PartitionProblem* current = &finest;
  const std::vector<int>* current_fixed = fixed;
  const int floor_size = std::max(options.coarse_target, 4 * finest.num_planes);
  const int keep_percent = 100 - options.min_shrink_percent;
  while (current->num_gates > floor_size &&
         stack.num_levels() < options.max_levels) {
    const ProblemView view(*current);
    CoarseLevel level = coarsen_once(view, options.order, rng, current_fixed);
    // Stop when progress fades: the two-hop pass merges the stars that
    // stall heavy-edge matching, but a graph of isolated vertices or of
    // stars whose leaves are pinned apart still cannot shrink.
    // (A discarded level has already consumed its kLegacyShuffle draws —
    // deliberately, to preserve the legacy Rng sequence for the stages
    // that share the Rng downstream.)
    if (level.problem.num_gates > current->num_gates * keep_percent / 100) {
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

}  // namespace sfqpart
