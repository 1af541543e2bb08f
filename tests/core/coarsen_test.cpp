#include "core/coarsen.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem_view.h"
#include "gen/scaled.h"
#include "gen/suite.h"

namespace sfqpart {
namespace {

PartitionProblem mapped_problem(const char* circuit, int num_planes) {
  return PartitionProblem::from_netlist(build_mapped(circuit), num_planes);
}

// A hub (vertex 0) driving `leaves` leaves — the splitter-star shape that
// stalls plain heavy-edge matching.
PartitionProblem star_problem(int leaves, int num_planes) {
  PartitionProblem problem;
  problem.num_planes = num_planes;
  problem.num_gates = leaves + 1;
  for (int v = 0; v <= leaves; ++v) {
    problem.bias.push_back(1.0);
    problem.area.push_back(1.0);
    problem.gate_ids.push_back(v);
  }
  for (int leaf = 1; leaf <= leaves; ++leaf) problem.edges.emplace_back(0, leaf);
  return problem;
}

// The same graph with every edge of weight w repeated w times at unit
// weight.
PartitionProblem expanded_twin(const PartitionProblem& weighted) {
  PartitionProblem twin = weighted;
  twin.edges.clear();
  twin.edge_weights.clear();
  for (std::size_t e = 0; e < weighted.edges.size(); ++e) {
    for (int copy = 0; copy < weighted.edge_weight(e); ++copy) {
      twin.edges.push_back(weighted.edges[e]);
    }
  }
  return twin;
}

// A torus grid whose horizontal edges weigh 2 and vertical edges 1: every
// vertex has weighted degree 6 and two equally heavy neighbors, so the
// visit order and both matching passes are decided by index ties alone.
PartitionProblem weighted_torus(int side, int num_planes) {
  PartitionProblem problem;
  problem.num_planes = num_planes;
  problem.num_gates = side * side;
  for (int v = 0; v < problem.num_gates; ++v) {
    problem.bias.push_back(1.0);
    problem.area.push_back(1.0);
    problem.gate_ids.push_back(v);
  }
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const int v = r * side + c;
      problem.edges.emplace_back(v, r * side + (c + 1) % side);
      problem.edge_weights.push_back(2);
      problem.edges.emplace_back(v, ((r + 1) % side) * side + c);
      problem.edge_weights.push_back(1);
    }
  }
  return problem;
}

long long total_weight(const PartitionProblem& problem) {
  long long sum = 0;
  for (std::size_t e = 0; e < problem.edges.size(); ++e) {
    sum += problem.edge_weight(e);
  }
  return sum;
}

TEST(Coarsen, ProjectionIsTotalAndOnto) {
  const PartitionProblem fine = mapped_problem("c432", 5);
  const ProblemView view(fine);
  const CoarseLevel level = coarsen_once(view);

  ASSERT_EQ(level.parent_of_fine.size(), static_cast<std::size_t>(fine.num_gates));
  std::vector<int> owners(static_cast<std::size_t>(level.problem.num_gates), 0);
  for (const int parent : level.parent_of_fine) {
    ASSERT_GE(parent, 0);
    ASSERT_LT(parent, level.problem.num_gates);
    ++owners[static_cast<std::size_t>(parent)];
  }
  for (const int count : owners) {
    EXPECT_GE(count, 1);  // onto: every coarse vertex owns a fine one
    EXPECT_LE(count, 2);  // a matching contracts at most pairs
  }
}

TEST(Coarsen, ProjectExpandsCoarseLabels) {
  const PartitionProblem fine = mapped_problem("ksa8", 3);
  const ProblemView view(fine);
  const CoarseLevel level = coarsen_once(view);

  std::vector<int> coarse_labels(static_cast<std::size_t>(level.problem.num_gates));
  for (std::size_t i = 0; i < coarse_labels.size(); ++i) {
    coarse_labels[i] = static_cast<int>(i % 3);
  }
  const std::vector<int> fine_labels = level.project(coarse_labels);
  ASSERT_EQ(fine_labels.size(), static_cast<std::size_t>(fine.num_gates));
  for (int v = 0; v < fine.num_gates; ++v) {
    EXPECT_EQ(fine_labels[static_cast<std::size_t>(v)],
              coarse_labels[static_cast<std::size_t>(
                  level.parent_of_fine[static_cast<std::size_t>(v)])]);
  }
}

TEST(Coarsen, PreservesTotalBiasAndArea) {
  const PartitionProblem fine = mapped_problem("c1908", 5);
  const ProblemView view(fine);
  const CoarseLevel level = coarsen_once(view);

  double fine_bias = 0.0, coarse_bias = 0.0;
  for (const double b : fine.bias) fine_bias += b;
  for (const double b : level.problem.bias) coarse_bias += b;
  EXPECT_NEAR(fine_bias, coarse_bias, 1e-9 * fine_bias);

  double fine_area = 0.0, coarse_area = 0.0;
  for (const double a : fine.area) fine_area += a;
  for (const double a : level.problem.area) coarse_area += a;
  EXPECT_NEAR(fine_area, coarse_area, 1e-9 * fine_area);
}

// The degree-sorted visit order is a pure function of the graph, so
// repeated builds agree exactly — no Rng draw-count dependence.
TEST(Coarsen, DegreeSortedOrderIsReproducible) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  const ProblemView view(fine);
  const CoarseLevel a = coarsen_once(view);
  const CoarseLevel b = coarsen_once(view);
  EXPECT_EQ(a.parent_of_fine, b.parent_of_fine);
  EXPECT_EQ(a.problem.num_gates, b.problem.num_gates);
  EXPECT_EQ(a.problem.edges, b.problem.edges);
}

// Test-local references for the coarsener's two rules, written the
// obvious way from the edge list, independent of ProblemView.

// The pinned visit order as a comparison sort: descending weighted
// degree, ascending index.
std::vector<int> reference_visit_order(const PartitionProblem& problem) {
  std::vector<long long> degree(static_cast<std::size_t>(problem.num_gates));
  for (std::size_t e = 0; e < problem.edges.size(); ++e) {
    degree[static_cast<std::size_t>(problem.edges[e].first)] +=
        problem.edge_weight(e);
    degree[static_cast<std::size_t>(problem.edges[e].second)] +=
        problem.edge_weight(e);
  }
  std::vector<int> visit(static_cast<std::size_t>(problem.num_gates));
  std::iota(visit.begin(), visit.end(), 0);
  std::sort(visit.begin(), visit.end(), [&degree](int a, int b) {
    const long long da = degree[static_cast<std::size_t>(a)];
    const long long db = degree[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  return visit;
}

// The projection a matcher produces that visits in reference_visit_order
// and takes the first maximal-weight neighbor in ascending neighbor order
// (parallel edges summed), first by heavy-edge matching, then by the
// two-hop pass, never pairing vertices pinned to different planes; coarse
// ids follow the visit order.
std::vector<int> reference_parent_of_fine(const PartitionProblem& problem,
                                          const std::vector<int>* fixed) {
  const std::vector<int> visit = reference_visit_order(problem);
  const auto n = static_cast<std::size_t>(problem.num_gates);
  std::vector<std::map<int, int>> adjacency(n);
  for (std::size_t e = 0; e < problem.edges.size(); ++e) {
    const auto [a, b] = problem.edges[e];
    if (a == b) continue;
    adjacency[static_cast<std::size_t>(a)][b] += problem.edge_weight(e);
    adjacency[static_cast<std::size_t>(b)][a] += problem.edge_weight(e);
  }
  const auto compatible = [fixed](int v, int u) {
    if (fixed == nullptr) return true;
    const int fv = (*fixed)[static_cast<std::size_t>(v)];
    const int fu = (*fixed)[static_cast<std::size_t>(u)];
    return fv < 0 || fu < 0 || fv == fu;
  };
  std::vector<int> match(n, -1);
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    int best = -1;
    int best_weight = 0;
    for (const auto& [u, weight] : adjacency[static_cast<std::size_t>(v)]) {
      if (match[static_cast<std::size_t>(u)] >= 0) continue;
      if (!compatible(v, u)) continue;
      if (weight > best_weight) {
        best_weight = weight;
        best = u;
      }
    }
    match[static_cast<std::size_t>(v)] = best >= 0 ? best : v;
    if (best >= 0) match[static_cast<std::size_t>(best)] = v;
  }
  std::vector<int> waiting(n, -1);
  for (const int v : visit) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    int hub = -1;
    int hub_weight = 0;
    for (const auto& [u, weight] : adjacency[static_cast<std::size_t>(v)]) {
      if (weight > hub_weight) {
        hub_weight = weight;
        hub = u;
      }
    }
    if (hub < 0) continue;
    int& sibling = waiting[static_cast<std::size_t>(hub)];
    if (sibling < 0) {
      sibling = v;
    } else if (compatible(v, sibling)) {
      match[static_cast<std::size_t>(v)] = sibling;
      match[static_cast<std::size_t>(sibling)] = v;
      sibling = -1;
    }
  }
  std::vector<int> parent(n, -1);
  int next = 0;
  for (const int v : visit) {
    if (parent[static_cast<std::size_t>(v)] >= 0) continue;
    parent[static_cast<std::size_t>(v)] = next;
    parent[static_cast<std::size_t>(match[static_cast<std::size_t>(v)])] = next;
    ++next;
  }
  return parent;
}

// Every level of a kDegreeSorted stack over `fine` reproduces the
// references' projection on the level's fine problem and pins.
void expect_stack_matches_references(const PartitionProblem& fine,
                                     int coarse_target,
                                     const std::vector<int>* fixed) {
  CoarsenOptions options;
  options.coarse_target = coarse_target;
  const LevelStack stack =
      build_level_stack(fine, options, {}, fixed);
  ASSERT_GE(stack.num_levels(), 2);
  const PartitionProblem* problem = &fine;
  const std::vector<int>* level_fixed = fixed;
  for (const CoarseLevel& level : stack.levels) {
    EXPECT_EQ(level.parent_of_fine,
              reference_parent_of_fine(*problem, level_fixed))
        << problem->num_gates << "-vertex level";
    problem = &level.problem;
    level_fixed = level.fixed.empty() ? nullptr : &level.fixed;
  }
}

TEST(Coarsen, VisitOrderAndMatchingMatchTheReferences) {
  ScaledParams params;
  params.name = "scaled20k";
  params.num_gates = 20000;
  params.seed = 3;
  const PartitionProblem chip =
      PartitionProblem::from_netlist(build_scaled(params), 5);
  expect_stack_matches_references(chip, 64, nullptr);
  std::vector<int> chip_pins(static_cast<std::size_t>(chip.num_gates), -1);
  for (std::size_t v = 0; v < chip_pins.size(); v += 7) {
    chip_pins[v] = static_cast<int>(v % 5);
  }
  expect_stack_matches_references(chip, 64, &chip_pins);

  const PartitionProblem star = star_problem(64, 3);
  expect_stack_matches_references(star, 8, nullptr);
  std::vector<int> star_pins(static_cast<std::size_t>(star.num_gates), -1);
  for (int leaf = 1; leaf <= 64; ++leaf) {
    star_pins[static_cast<std::size_t>(leaf)] = leaf % 3 == 0 ? -1 : leaf % 2;
  }
  const ProblemView star_view(star);
  EXPECT_EQ(coarsen_once(star_view, &star_pins)
                .parent_of_fine,
            reference_parent_of_fine(star, &star_pins));

  expect_stack_matches_references(weighted_torus(40, 4), 64, nullptr);
}

// The stack's views outlive growth of `levels` and a move of the stack
// (sfqbench move-assigns a built stack into a default-constructed one):
// each still views its own level's problem, with the adjacency a fresh
// view builds.
TEST(Coarsen, LevelStackViewsSurviveGrowthAndMoves) {
  const PartitionProblem fine = mapped_problem("c1908", 5);
  CoarsenOptions options;
  options.coarse_target = 40;
  LevelStack stack;
  stack = build_level_stack(fine, options);
  ASSERT_GE(stack.num_levels(), 3);
  const auto expect_views = [&fine](const LevelStack& s) {
    for (int i = 0; i < s.num_levels(); ++i) {
      const PartitionProblem& problem =
          i == 0 ? fine : s.levels[static_cast<std::size_t>(i) - 1].problem;
      const ProblemView& view = s.view(i);
      EXPECT_EQ(&view.problem(), &problem) << "level " << i;
      const ProblemView fresh(problem);
      const auto slots = 2 * problem.edges.size();
      EXPECT_TRUE(std::equal(view.offsets(),
                             view.offsets() + problem.num_gates + 1,
                             fresh.offsets()))
          << "level " << i;
      EXPECT_TRUE(std::equal(view.neighbors(), view.neighbors() + slots,
                             fresh.neighbors()))
          << "level " << i;
    }
  };
  expect_views(stack);
  const LevelStack moved = std::move(stack);
  expect_views(moved);

  // On a caller's view, the stack borrows it as level 0.
  const ProblemView fine_view(fine);
  const LevelStack borrowed = build_level_stack(fine_view, options);
  EXPECT_EQ(&borrowed.view(0), &fine_view);
  EXPECT_EQ(borrowed.num_levels(), moved.num_levels());
}

TEST(Coarsen, LevelStackReachesTarget) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  CoarsenOptions options;
  options.coarse_target = 64;
  const LevelStack stack = build_level_stack(fine, options);
  ASSERT_GE(stack.num_levels(), 2);
  // Monotone shrink, and the floor 4*K is respected.
  int previous = fine.num_gates;
  for (const CoarseLevel& level : stack.levels) {
    EXPECT_LT(level.problem.num_gates, previous);
    EXPECT_GE(level.problem.num_gates, 4 * 5);
    previous = level.problem.num_gates;
  }
  EXPECT_EQ(&stack.coarsest(fine), &stack.levels.back().problem);
}

TEST(Coarsen, LevelStackCallbackSeesEveryLevel) {
  const PartitionProblem fine = mapped_problem("c1908", 5);
  CoarsenOptions options;
  options.coarse_target = 100;
  std::vector<int> seen_levels;
  std::vector<int> seen_sizes;
  const LevelStack stack = build_level_stack(
      fine, options, [&](int level, const PartitionProblem& problem) {
        seen_levels.push_back(level);
        seen_sizes.push_back(problem.num_gates);
      });
  ASSERT_EQ(seen_levels.size(), static_cast<std::size_t>(stack.num_levels()));
  for (int i = 0; i < stack.num_levels(); ++i) {
    EXPECT_EQ(seen_levels[static_cast<std::size_t>(i)], i + 1);
    EXPECT_EQ(seen_sizes[static_cast<std::size_t>(i)],
              stack.levels[static_cast<std::size_t>(i)].problem.num_gates);
  }
}

// Contraction conserves the summed weight of every edge that crosses
// clusters and leaves no parallel edge behind, in either orientation.
TEST(Coarsen, ConservesInterClusterEdgeWeight) {
  const PartitionProblem fine = mapped_problem("c1908", 5);
  const ProblemView view(fine);
  const CoarseLevel level = coarsen_once(view);
  const PartitionProblem& coarse = level.problem;

  long long crossing = 0;
  for (std::size_t e = 0; e < fine.edges.size(); ++e) {
    const auto& [a, b] = fine.edges[e];
    if (level.parent_of_fine[static_cast<std::size_t>(a)] !=
        level.parent_of_fine[static_cast<std::size_t>(b)]) {
      crossing += fine.edge_weight(e);
    }
  }
  ASSERT_EQ(coarse.edge_weights.size(), coarse.edges.size());
  EXPECT_EQ(total_weight(coarse), crossing);

  std::set<std::pair<int, int>> seen;
  for (const auto& [a, b] : coarse.edges) {
    EXPECT_NE(a, b);
    EXPECT_TRUE(seen.emplace(std::min(a, b), std::max(a, b)).second)
        << "parallel coarse edge " << a << "-" << b;
  }
  // The collapse is what keeps coarse levels sparse: level 2 would
  // otherwise carry every parallel edge of level 1 again.
  const ProblemView coarse_view(coarse);
  const CoarseLevel next = coarsen_once(coarse_view);
  EXPECT_LT(next.problem.edges.size(), coarse.edges.size());
}

// A weighted graph and its multiplicity-expanded twin are the same
// coarsening input: the visit order sorts by summed weight, not by slot
// count, and matching reads summed weights, so both give the same level.
TEST(Coarsen, WeightedGraphCoarsensLikeItsExpandedTwin) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  const ProblemView fine_view(fine);
  const PartitionProblem weighted =
      coarsen_once(fine_view).problem;
  ASSERT_GT(total_weight(weighted),
            static_cast<long long>(weighted.edges.size()));
  const PartitionProblem twin = expanded_twin(weighted);

  const ProblemView weighted_view(weighted);
  const ProblemView twin_view(twin);
  const CoarseLevel a = coarsen_once(weighted_view);
  const CoarseLevel b = coarsen_once(twin_view);
  EXPECT_EQ(a.parent_of_fine, b.parent_of_fine);
  EXPECT_EQ(a.problem.edges, b.problem.edges);
  EXPECT_EQ(a.problem.edge_weights, b.problem.edge_weights);
}

// Heavy-edge matching alone merges one leaf into the hub per level (a
// 1.5% shrink, below the 5% stall guard). The two-hop pass pairs the
// leaves that share the hub, so the star halves level after level.
TEST(Coarsen, StarCoarsensPastTheStallGuard) {
  const PartitionProblem star = star_problem(64, 2);
  const ProblemView view(star);
  const CoarseLevel level = coarsen_once(view);
  // hub + one leaf, 31 leaf pairs, one leaf left over.
  EXPECT_EQ(level.problem.num_gates, 33);

  CoarsenOptions options;
  options.coarse_target = 8;
  const LevelStack stack = build_level_stack(star, options);
  EXPECT_LE(stack.coarsest(star).num_gates, options.coarse_target);
}

// The two-hop pass honors pins like heavy-edge matching does: leaves
// pinned to different planes never share a coarse vertex, whatever hub
// they share.
TEST(Coarsen, TwoHopNeverPairsVerticesPinnedApart) {
  const PartitionProblem star = star_problem(64, 3);
  std::vector<int> fixed(static_cast<std::size_t>(star.num_gates), -1);
  for (int leaf = 1; leaf <= 64; ++leaf) {
    // Alternate pins 0/1 with a free leaf every third position.
    fixed[static_cast<std::size_t>(leaf)] = leaf % 3 == 0 ? -1 : leaf % 2;
  }
  const ProblemView view(star);
  const CoarseLevel level =
      coarsen_once(view, &fixed);

  std::vector<std::vector<int>> children(
      static_cast<std::size_t>(level.problem.num_gates));
  for (int v = 0; v < star.num_gates; ++v) {
    children[static_cast<std::size_t>(
                 level.parent_of_fine[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  int pairs = 0;
  for (std::size_t c = 0; c < children.size(); ++c) {
    std::set<int> pins;
    for (const int v : children[c]) {
      if (fixed[static_cast<std::size_t>(v)] >= 0) {
        pins.insert(fixed[static_cast<std::size_t>(v)]);
      }
    }
    EXPECT_LE(pins.size(), 1u) << "coarse vertex " << c;
    const int expected = pins.empty() ? -1 : *pins.begin();
    EXPECT_EQ(level.fixed[c], expected);
    if (children[c].size() == 2) ++pairs;
  }
  // The pass still merges: many leaves find a compatible sibling.
  EXPECT_GE(pairs, 16);
}

// The vcycle's default settings reach coarse_target on a generated chip
// instead of stopping at the stall guard.
TEST(Coarsen, ScaledChipReachesCoarseTarget) {
  ScaledParams params;
  params.name = "scaled20k";
  params.num_gates = 20000;
  params.seed = 3;
  const PartitionProblem fine =
      PartitionProblem::from_netlist(build_scaled(params), 5);
  CoarsenOptions options;
  options.coarse_target = 1024;
  options.max_levels = 64;
  const LevelStack stack = build_level_stack(fine, options);
  EXPECT_LE(stack.coarsest(fine).num_gates, options.coarse_target);
}

}  // namespace
}  // namespace sfqpart
