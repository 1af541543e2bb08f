#include "core/coarsen.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem_view.h"
#include "gen/scaled.h"
#include "gen/suite.h"
#include "util/rng.h"

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
  const CoarseLevel level = coarsen_once(view, MatchOrder::kDegreeSorted);

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
  const CoarseLevel level = coarsen_once(view, MatchOrder::kDegreeSorted);

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
  const CoarseLevel level = coarsen_once(view, MatchOrder::kDegreeSorted);

  double fine_bias = 0.0, coarse_bias = 0.0;
  for (const double b : fine.bias) fine_bias += b;
  for (const double b : level.problem.bias) coarse_bias += b;
  EXPECT_NEAR(fine_bias, coarse_bias, 1e-9 * fine_bias);

  double fine_area = 0.0, coarse_area = 0.0;
  for (const double a : fine.area) fine_area += a;
  for (const double a : level.problem.area) coarse_area += a;
  EXPECT_NEAR(fine_area, coarse_area, 1e-9 * fine_area);
}

// The satellite bugfix this PR pins: the kDegreeSorted visit order is a
// pure function of the graph, so repeated builds agree exactly — no Rng
// draw-count dependence.
TEST(Coarsen, DegreeSortedOrderIsReproducible) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  const ProblemView view(fine);
  const CoarseLevel a = coarsen_once(view, MatchOrder::kDegreeSorted);
  const CoarseLevel b = coarsen_once(view, MatchOrder::kDegreeSorted);
  EXPECT_EQ(a.parent_of_fine, b.parent_of_fine);
  EXPECT_EQ(a.problem.num_gates, b.problem.num_gates);
  EXPECT_EQ(a.problem.edges, b.problem.edges);
}

TEST(Coarsen, LegacyShuffleMatchesRngState) {
  // The legacy order is deterministic given the Rng seed (and only the
  // seed): two fresh Rngs with the same seed give the same level.
  const PartitionProblem fine = mapped_problem("c499", 5);
  const ProblemView view(fine);
  Rng rng_a(7), rng_b(7);
  const CoarseLevel a = coarsen_once(view, MatchOrder::kLegacyShuffle, &rng_a);
  const CoarseLevel b = coarsen_once(view, MatchOrder::kLegacyShuffle, &rng_b);
  EXPECT_EQ(a.parent_of_fine, b.parent_of_fine);
}

TEST(Coarsen, LevelStackReachesTarget) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  CoarsenOptions options;
  options.coarse_target = 64;
  options.order = MatchOrder::kDegreeSorted;
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
  options.order = MatchOrder::kDegreeSorted;
  std::vector<int> seen_levels;
  std::vector<int> seen_sizes;
  const LevelStack stack = build_level_stack(
      fine, options, nullptr, [&](int level, const PartitionProblem& problem) {
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
  const CoarseLevel level = coarsen_once(view, MatchOrder::kDegreeSorted);
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
  const CoarseLevel next = coarsen_once(coarse_view, MatchOrder::kDegreeSorted);
  EXPECT_LT(next.problem.edges.size(), coarse.edges.size());
}

// A weighted graph and its multiplicity-expanded twin are the same
// coarsening input: the visit order sorts by summed weight, not by slot
// count, and matching reads summed weights, so both give the same level.
TEST(Coarsen, WeightedGraphCoarsensLikeItsExpandedTwin) {
  const PartitionProblem fine = mapped_problem("c1355", 5);
  const ProblemView fine_view(fine);
  const PartitionProblem weighted =
      coarsen_once(fine_view, MatchOrder::kDegreeSorted).problem;
  ASSERT_GT(total_weight(weighted),
            static_cast<long long>(weighted.edges.size()));
  const PartitionProblem twin = expanded_twin(weighted);

  const ProblemView weighted_view(weighted);
  const ProblemView twin_view(twin);
  const CoarseLevel a = coarsen_once(weighted_view, MatchOrder::kDegreeSorted);
  const CoarseLevel b = coarsen_once(twin_view, MatchOrder::kDegreeSorted);
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
  const CoarseLevel level = coarsen_once(view, MatchOrder::kDegreeSorted);
  // hub + one leaf, 31 leaf pairs, one leaf left over.
  EXPECT_EQ(level.problem.num_gates, 33);

  CoarsenOptions options;
  options.coarse_target = 8;
  options.order = MatchOrder::kDegreeSorted;
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
      coarsen_once(view, MatchOrder::kDegreeSorted, nullptr, &fixed);

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
  options.order = MatchOrder::kDegreeSorted;
  const LevelStack stack = build_level_stack(fine, options);
  EXPECT_LE(stack.coarsest(fine).num_gates, options.coarse_target);
}

}  // namespace
}  // namespace sfqpart
