// Unified engine surface: every partitioning algorithm in the library
// behind one interface and one registry.
//
// The paper's gradient-descent relaxation is one of nine engines; the
// baselines (annealing, FM k-way, layered, random) exist to quantify the
// paper's section IV-A claim that classic K-way cut objectives cannot
// capture plane-distance cost. Each engine is reachable only through
// this surface: one adapter per engine, no options or result struct of
// its own. A PartitionEngine normalizes all of them:
//
//   auto engine = EngineRegistry::create("annealing");
//   if (!engine) { /* engine.status(): NotFound for unknown names */ }
//   EngineContext ctx;
//   ctx.num_planes = 5;
//   ctx.seed = 1;
//   auto run = (*engine)->run(netlist, ctx);
//   // run->partition, run->discrete_terms, run->counters, run->wall_ms
//
// Determinism contract: for a fixed EngineContext every engine reproduces
// the exact labels its pre-registry entry point produced with the same
// options (tests/core/engine_test.cpp pins this with golden labels), and
// attaching an observer never changes the result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/cost_model.h"
#include "core/partition.h"
#include "util/json.h"
#include "util/status.h"

namespace sfqpart {

// Debug builds certify every engine run against core/certify.h by
// default (cheap insurance while the engines multiply); release builds
// opt in per run via EngineContext::certify / `--certify` / the daemon
// option.
#ifdef NDEBUG
inline constexpr bool kCertifyDefault = false;
#else
inline constexpr bool kCertifyDefault = true;
#endif

namespace obs {
class SolverObserver;
}  // namespace obs

// One engine knob, machine-readable: name, value type, default, inclusive
// numeric range and a one-line doc. Each is a row of the option table in
// core/engine.cpp, which binds the name to its EngineContext field and
// takes the default from EngineContext{}. Engines advertise their knobs as
// a list of these (PartitionEngine::describe_options); the sfqpartd daemon
// validates job options against them, and `sfqpart --list-engines --json`
// serializes them for tooling.
struct OptionSpec {
  enum class Type { kBool, kInt, kDouble, kString };

  std::string name;
  Type type = Type::kDouble;
  // Default as a double; bools use 0/1, integers are exact up to 2^53.
  // Ignored for kString (default_text below).
  double default_value = 0.0;
  // Inclusive range; +-infinity means unbounded on that side (and the
  // bound is omitted from the JSON form). Ignored for kString.
  double min_value;
  double max_value;
  std::string doc;
  // kString only: the default, and the closed set of accepted values
  // (validation rejects anything else; never empty for a kString spec).
  std::string default_text;
  std::vector<std::string> enum_values;

  // {"name":..., "type":"bool|int|double|string", "default":...,
  //  "min":..., "max":..., "values":[...], "doc":...}
  Json to_json() const;
};

const char* option_type_name(OptionSpec::Type type);

// Every EngineContext knob, in canonical order; each engine's
// describe_options() is a subsequence of it.
std::vector<OptionSpec> engine_option_table();

// Validates `options` (a JSON object of name -> scalar) against `specs`
// and applies the values onto `context`: unknown names, non-scalar or
// type-mismatched values, non-finite numbers and out-of-range values all
// fail with kInvalidArgument naming the offending option, in the words
// EngineContext::validate() uses for the same value. Omitted options
// take the spec default. When `canonical` is non-null it receives the
// canonical form of the *effective* configuration — every spec in list
// order with its resolved value, independent of option order, spelling or
// whitespace in `options` — except "threads", which never changes results
// (the determinism contract: bit-identical labels at any thread count) and
// is therefore excluded so result caches can key on the canonical string.
Status apply_engine_options(const std::vector<OptionSpec>& specs,
                            const Json& options, struct EngineContext& context,
                            std::string* canonical = nullptr);

// The knobs shared by every engine. Baseline tuning (annealing's cooling
// schedule, FM's pass limit and balance tolerance) is a set of constants
// in the engine's file; the context carries only what the uniform
// surface needs to thread through: problem shape, determinism,
// parallelism and observability. Fields an engine has no use for are
// ignored (refine by everything but gradient, seed by layered).
struct EngineContext {
  int num_planes = 5;  // K (Table I uses 5)
  std::uint64_t seed = 1;
  // Worker threads for engines with parallel phases (the gradient
  // Solver's restarts and reductions). 1 = serial, 0 = hardware
  // concurrency.
  int threads = 1;
  // Independent random restarts for restart-based engines.
  int restarts = 3;
  // Post-hardening greedy improvement (gradient engine only; not part of
  // the published algorithm).
  bool refine = false;
  // V-cycle shape knobs (vcycle engine only): banded-refinement plane
  // radius, coarsest-level size target, level cap, refinement pass cap.
  int band = 1;
  int coarse_target = 1024;
  int max_levels = 64;
  int max_passes = 8;
  // Largest instance the exhaustive `exact` engine accepts (branch-and-
  // bound cost grows as K^G; the engine rejects bigger netlists with
  // kInvalidArgument instead of hanging).
  int max_gates = 20;
  // Uncoarsening refinement flavor of the vcycle engine: "banded"
  // (parallel propose/commit sweeps, the default) or "buckets" (serial
  // FM-style best-gain bucket moves).
  std::string refine_style = "banded";
  // ECO engine only: BFS halo around the dirty region — how many
  // adjacency hops beyond the changed gates the restricted refinement may
  // still move.
  int halo = 2;
  // Run the independent certifier (core/certify.h) over the result and
  // fail the run on any non-valid verdict. Debug builds default to on.
  bool certify = kCertifyDefault;
  // Pinned / grouped gate constraints, compiled against the netlist by
  // the adapter and enforced by every engine; empty means unconstrained
  // (bit-identical to the pre-constraint behavior).
  GateConstraints constraints;
  // Optional warm start (not owned; must outlive the run; null = cold,
  // bit-identical to the pre-warm-start behavior). Validated once by the
  // adapter against the netlist (size, label range); pins win over warm
  // labels. Every registry engine honors it: gradient seeds restart 0's
  // soft assignment, vcycle/multilevel restrict it through the coarsening
  // stack into the coarse solve, annealing/fm_kway/layered/random start
  // from the given labels instead of their seed heuristic, exact uses it
  // as the branch-and-bound incumbent, and eco *requires* it (it defines
  // the clean region). When every partitionable gate is assigned, the
  // adapter additionally guarantees the run never scores worse than the
  // seed (counter "warm_start_kept" marks the fallback).
  const InitialPartition* warm_start = nullptr;
  // Weights of the shared discrete objective every EngineRun is scored
  // with; engines that optimize the same objective (gradient, multilevel,
  // annealing) also run with them.
  CostWeights weights;
  // Structured observability hook (not owned; may be null). Every engine
  // emits its run lifecycle through this observer; the registry rewrites
  // the outermost RunInfo::engine to the registry name so a RunReport
  // always carries the engine it was produced by.
  obs::SolverObserver* observer = nullptr;

  // Uniform API-boundary validation, run by every adapter: each knob's
  // value passes the same check apply_engine_options() applies to a job
  // option, so an out-of-range field fails with the same message.
  Status validate() const;
};

// One engine run, normalized across engines: the hardened partition, the
// discrete cost terms of the *shared* CostModel (so rows from different
// engines are directly comparable), engine-specific counters as
// name -> value pairs (iterations, moves_tried, final_cut, ...), and the
// wall-clock of the whole run.
struct EngineRun {
  Partition partition;
  CostTerms discrete_terms;
  double discrete_total = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  double wall_ms = 0.0;

  // Convenience lookup; 0.0 when the engine did not report the counter.
  double counter(const std::string& name) const;
};

class PartitionEngine {
 public:
  virtual ~PartitionEngine() = default;

  // Registry name ("gradient", "multilevel", "annealing", "fm_kway",
  // "layered", "random").
  virtual const char* name() const = 0;
  // One-line human-readable description of the engine's objective (CLI
  // --list-engines).
  virtual const char* description() const = 0;
  // The structured list of knobs the engine honors: every EngineContext
  // field the engine actually reads, with type, default, range and doc.
  // Knobs absent from the list are ignored by the engine (and rejected by
  // the daemon's job validation). Serialized by --list-engines --json.
  virtual std::vector<OptionSpec> describe_options() const = 0;

  virtual StatusOr<EngineRun> run(const Netlist& netlist,
                                  const EngineContext& context) const = 0;
};

// Static registry of every known engine. The nine built-ins register
// themselves on first use; external code can add more with
// register_engine (names must be unique).
class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<PartitionEngine>()>;

  // Registers a factory under `name`. Fails with kInvalidArgument on a
  // duplicate or empty name.
  static Status register_engine(const std::string& name, Factory factory);

  // All registered names, sorted; stable across calls.
  static std::vector<std::string> names();

  // Instantiates an engine; kNotFound for unknown names (never a crash).
  static StatusOr<std::unique_ptr<PartitionEngine>> create(const std::string& name);
};

}  // namespace sfqpart
