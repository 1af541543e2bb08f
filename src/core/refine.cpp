#include "core/refine.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <tuple>

#include "core/move_eval.h"
#include "obs/trace_sink.h"

namespace sfqpart {

RefineResult refine_partition(MoveEvaluator& eval, Rng& rng,
                              const RefineOptions& options,
                              const std::vector<int>* fixed,
                              obs::TraceSink* sink, int restart) {
  const int num_gates = eval.num_gates();
  const int num_planes = eval.num_planes();

  RefineResult result;
  std::vector<int> order(static_cast<std::size_t>(num_gates));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    rng.shuffle(order);
    int moves_this_pass = 0;
    for (const int gate : order) {
      if (fixed != nullptr && (*fixed)[static_cast<std::size_t>(gate)] >= 0) {
        continue;
      }
      int best_target = eval.label(gate);
      double best_delta = -1e-12;  // strict improvement only
      for (int target = 0; target < num_planes; ++target) {
        const double delta = eval.delta(gate, target);
        if (delta < best_delta) {
          best_delta = delta;
          best_target = target;
        }
      }
      if (best_target != eval.label(gate)) {
        eval.apply(gate, best_target);
        ++moves_this_pass;
      }
    }
    result.moves += moves_this_pass;
    result.passes = pass + 1;
    if (sink != nullptr && sink->enabled()) {
      sink->refine_pass({restart, pass, moves_this_pass, eval.current_cost()});
    }
    if (moves_this_pass < options.min_moves_per_pass) break;
  }
  return result;
}

namespace {

// Matches refine_partition / vcycle banded refinement: a move must beat
// this to enter the queue or be applied, so zero-delta oscillation is
// impossible.
constexpr double kBucketImprovementThreshold = -1e-12;

// One queued candidate move; the min-heap pops the lexicographically
// smallest (delta, gate, target), so ties in gain resolve by gate then
// target index — deterministic regardless of insertion order.
using QueuedMove = std::tuple<double, int, int>;

}  // namespace

BucketRefineStats bucket_refine(MoveEvaluator& eval, int band,
                                const RefineOptions& options,
                                const std::vector<int>* fixed,
                                const std::vector<int>* active) {
  const int n = eval.num_gates();
  const int k = eval.num_planes();
  BucketRefineStats stats;

  // Scope mask: movable gates are those not pinned and (when an active
  // set is given) inside it.
  std::vector<char> movable(static_cast<std::size_t>(n),
                            active == nullptr ? 1 : 0);
  if (active != nullptr) {
    for (const int gate : *active) {
      movable[static_cast<std::size_t>(gate)] = 1;
    }
  }
  if (fixed != nullptr) {
    for (int gate = 0; gate < n; ++gate) {
      if ((*fixed)[static_cast<std::size_t>(gate)] >= 0) {
        movable[static_cast<std::size_t>(gate)] = 0;
      }
    }
  }

  // Best strictly-improving in-band move of one gate ({0, -1} when none);
  // gain ties resolve to the lowest target plane. One neighbor walk
  // yields the F1 part of every in-band target.
  std::vector<double> f1(static_cast<std::size_t>(k));
  const auto best_move = [&](int gate) -> QueuedMove {
    const int source = eval.label(gate);
    const TargetBand targets = target_band(source, band, k);
    eval.f1_deltas(gate, band, f1.data());
    double best_delta = kBucketImprovementThreshold;
    int best = -1;
    for (int target = targets.first, j = 0; target <= targets.last;
         ++target) {
      if (target == source) continue;
      const double delta = eval.delta_from_f1(
          gate, target, f1[static_cast<std::size_t>(j++)]);
      if (delta < best_delta) {
        best_delta = delta;
        best = target;
      }
    }
    return {best == -1 ? 0.0 : best_delta, gate, best};
  };

  std::priority_queue<QueuedMove, std::vector<QueuedMove>,
                      std::greater<QueuedMove>>
      queue;
  long long movable_count = 0;
  for (int gate = 0; gate < n; ++gate) {
    if (!movable[static_cast<std::size_t>(gate)]) continue;
    ++movable_count;
    if (const QueuedMove move = best_move(gate); std::get<2>(move) >= 0) {
      queue.push(move);
    }
  }

  // Each applied move strictly improves the cost; the cap only guards
  // against pathologically long chains of ever-smaller gains.
  const long long move_cap =
      static_cast<long long>(options.max_passes) * std::max<long long>(
          movable_count, 1);
  while (!queue.empty() && stats.moves < move_cap) {
    const auto [delta, gate, target] = queue.top();
    queue.pop();
    // Lazy validation: re-derive the gate's current best move; a stale
    // entry (its gate moved, or a neighbor changed the gain surface) is
    // dropped and the fresh candidate requeued.
    const QueuedMove fresh = best_move(gate);
    if (std::get<2>(fresh) < 0) continue;
    if (std::get<0>(fresh) != delta || std::get<2>(fresh) != target) {
      ++stats.stale_pops;
      queue.push(fresh);
      continue;
    }
    eval.apply(gate, target);
    ++stats.moves;
    if (const QueuedMove next = best_move(gate); std::get<2>(next) >= 0) {
      queue.push(next);
    }
    const auto [begin, end] = eval.neighbors(gate);
    for (const std::int32_t* it = begin; it != end; ++it) {
      const int neighbor = *it;
      if (!movable[static_cast<std::size_t>(neighbor)]) continue;
      if (const QueuedMove move = best_move(neighbor);
          std::get<2>(move) >= 0) {
        queue.push(move);
      }
    }
  }
  return stats;
}

}  // namespace sfqpart
