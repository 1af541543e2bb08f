// Internal scaffolding for the built-in PartitionEngine adapters.
//
// EngineAdapter is the template method behind every built-in engine: it
// validates the context once, compacts the problem and builds its CSR
// view, delegates the actual solve to the subclass hook, then normalizes
// the outcome into an EngineRun — discrete CostTerms from the shared
// CostModel on that same view (so rows from different engines are
// directly comparable), wall-clock, and the subclass's counters. Engines
// that do not narrate an observer stream of their own (layered, random,
// eco) get a minimal run lifecycle emitted here, so a RunReport carries
// the `engine` field for every registry engine.
//
// Not part of the public surface; include core/engine.h instead.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "core/engine.h"
#include "core/problem_view.h"

namespace sfqpart::engine_detail {

class EngineAdapter : public PartitionEngine {
 public:
  StatusOr<EngineRun> run(const Netlist& netlist,
                          const EngineContext& context) const final;

 protected:
  // The actual solve. `view` is the CSR view of the netlist compacted
  // once for this run, and view.problem() that problem: engines that
  // work on a PartitionProblem or its adjacency take them from here
  // rather than rebuilding either. `counters` receives the
  // engine-specific tallies (iterations, moves_tried, final_cut, ...);
  // the context's observer has already been wrapped to rewrite the
  // outermost RunInfo::engine to the registry name. `constraints` is the
  // context's pin/group declaration compiled against this netlist (empty
  // when unconstrained — engines must then behave bit-identically to the
  // unconstrained code path).
  // `warm` is the context's warm start compacted to problem indices
  // (-1 = unassigned), already validated and with pins folded in (a
  // pinned gate carries its pin, not its warm label); null when the
  // context has no warm start — engines must then behave bit-identically
  // to the cold code path.
  virtual StatusOr<Partition> solve(
      const Netlist& netlist, const ProblemView& view,
      const EngineContext& context, const CompiledConstraints& constraints,
      const std::vector<int>* warm,
      std::vector<std::pair<std::string, double>>& counters) const = 0;

  // False for engines whose underlying implementation emits no observer
  // events of its own; the adapter then narrates run/restart lifecycle
  // around solve().
  virtual bool self_observing() const { return true; }
};

// The random engine's labels (baseline/random_partition.cpp): the compact
// indices 0..G-1 shuffled with Rng(seed), the i-th of them on plane
// i mod K. annealing and fm_kway start from them too.
std::vector<int> random_start(int num_gates, int num_planes,
                              std::uint64_t seed);

// Lays the warm labels, then the pins, over compact `labels` wherever
// they are assigned: how every baseline seeds its start. A null `warm`
// and empty constraints leave `labels` as they are.
void overlay_warm_and_pins(std::vector<int>& labels,
                           const std::vector<int>* warm,
                           const CompiledConstraints& constraints);

// The option table's specs for `names`, in table (canonical) order: what
// each adapter's describe_options() returns.
std::vector<OptionSpec> option_specs(
    std::initializer_list<std::string_view> names);

// Built-in engine factories (one adapter per file).
std::unique_ptr<PartitionEngine> make_gradient_engine();
std::unique_ptr<PartitionEngine> make_multilevel_engine();
std::unique_ptr<PartitionEngine> make_vcycle_engine();
std::unique_ptr<PartitionEngine> make_annealing_engine();
std::unique_ptr<PartitionEngine> make_fm_kway_engine();
std::unique_ptr<PartitionEngine> make_layered_engine();
std::unique_ptr<PartitionEngine> make_random_engine();
std::unique_ptr<PartitionEngine> make_exact_engine();
std::unique_ptr<PartitionEngine> make_eco_engine();

}  // namespace sfqpart::engine_detail
