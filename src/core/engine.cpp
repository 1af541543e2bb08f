#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <type_traits>
#include <variant>

#include "core/certify.h"
#include "core/engine_adapter.h"
#include "netlist/netlist.h"
#include "obs/trace_sink.h"
#include "util/strings.h"

namespace sfqpart {

const char* option_type_name(OptionSpec::Type type) {
  switch (type) {
    case OptionSpec::Type::kBool: return "bool";
    case OptionSpec::Type::kInt: return "int";
    case OptionSpec::Type::kDouble: return "double";
    case OptionSpec::Type::kString: return "string";
  }
  return "unknown";
}

Json OptionSpec::to_json() const {
  Json json = Json::object()
                  .set("name", Json::string(name))
                  .set("type", Json::string(option_type_name(type)));
  if (type == OptionSpec::Type::kString) {
    Json values = Json::array();
    for (const std::string& value : enum_values) {
      values.append(Json::string(value));
    }
    return json.set("default", Json::string(default_text))
        .set("values", std::move(values))
        .set("doc", Json::string(doc));
  }
  if (type == OptionSpec::Type::kBool) {
    json.set("default", Json::boolean(default_value != 0.0));
  } else if (type == OptionSpec::Type::kInt) {
    json.set("default", Json::number(static_cast<long long>(default_value)));
  } else {
    json.set("default", Json::number(default_value));
  }
  if (std::isfinite(min_value)) {
    json.set("min", type == OptionSpec::Type::kDouble
                        ? Json::number(min_value)
                        : Json::number(static_cast<long long>(min_value)));
  }
  if (std::isfinite(max_value)) {
    json.set("max", type == OptionSpec::Type::kDouble
                        ? Json::number(max_value)
                        : Json::number(static_cast<long long>(max_value)));
  }
  return json.set("doc", Json::string(doc));
}

namespace {

// The EngineContext (or CostWeights) member one knob reads and writes.
using Field =
    std::variant<int EngineContext::*, std::uint64_t EngineContext::*,
                 bool EngineContext::*, std::string EngineContext::*,
                 double CostWeights::*, int CostWeights::*>;

template <typename Context, typename T>
Context& owner(Context& context, T EngineContext::*) {
  return context;
}
template <typename Context, typename T>
auto& owner(Context& context, T CostWeights::*) {
  return context.weights;
}

template <typename Class, typename T>
constexpr OptionSpec::Type type_of(T Class::*) {
  if constexpr (std::is_same_v<T, bool>) return OptionSpec::Type::kBool;
  else if constexpr (std::is_same_v<T, std::string>) return OptionSpec::Type::kString;
  else if constexpr (std::is_same_v<T, double>) return OptionSpec::Type::kDouble;
  else return OptionSpec::Type::kInt;
}

// A field's value in the form a job option carries it.
Json read_field(const Field& field, const EngineContext& context) {
  return std::visit(
      [&](auto member) {
        const auto& value = owner(context, member).*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>) return Json::boolean(value);
        else if constexpr (std::is_same_v<T, std::string>) return Json::string(value);
        else return Json::number(static_cast<double>(value));
      },
      field);
}

// Stores a value that check_value() accepted.
void write_field(const Field& field, const Json& value, EngineContext& context) {
  std::visit(
      [&](auto member) {
        auto& target = owner(context, member).*member;
        using T = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<T, bool>) target = value.as_bool();
        else if constexpr (std::is_same_v<T, std::string>) target = value.as_string();
        else target = static_cast<T>(value.as_number());
      },
      field);
}

// Numeric value of a bool or number; bools are 0/1.
double number_of(const Json& value) {
  return value.is_bool() ? (value.as_bool() ? 1.0 : 0.0) : value.as_number();
}

// One engine knob: name, range, doc, accepted values (string knobs only)
// and the field it is bound to. Its type follows from the field's type
// and its default is the field's value in EngineContext{}.
struct Knob {
  const char* name;
  Field field;
  double min_value;
  double max_value;
  const char* doc;
  std::span<const char* const> values = {};
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kRefineStyles[] = {"banded", "buckets"};

// Every engine knob, once. Table order is canonical order: each engine's
// describe_options() is a subsequence of it, and apply_engine_options()
// writes the canonical form in it.
constexpr Knob kKnobs[] = {
    {"planes", &EngineContext::num_planes, 2, 1024,
     "number of ground planes K"},
    {"seed", &EngineContext::seed, 0, 9.007199254740992e15,
     "random seed; results are deterministic per seed"},
    {"restarts", &EngineContext::restarts, 1, 4096,
     "independent random restarts; best discrete cost wins"},
    {"threads", &EngineContext::threads, 0, 512,
     "worker threads (0 = hardware concurrency); never changes the result"},
    {"refine", &EngineContext::refine, -kInf, kInf,
     "post-hardening greedy refinement (not part of the published "
     "algorithm)"},
    {"band", &EngineContext::band, 1, 1023,
     "plane radius of the banded uncoarsening refinement"},
    {"coarse_target", &EngineContext::coarse_target, 16, 1048576,
     "stop coarsening at this many vertices; the gradient descent runs on "
     "the coarsest level only"},
    {"max_levels", &EngineContext::max_levels, 1, 128,
     "maximum coarsening levels"},
    {"max_passes", &EngineContext::max_passes, 1, 4096,
     "maximum banded refinement passes per level"},
    {"refine_style", &EngineContext::refine_style, -kInf, kInf,
     "uncoarsening refinement flavor: 'banded' parallel propose/commit "
     "sweeps or 'buckets' serial FM-style best-gain moves",
     kRefineStyles},
    {"halo", &EngineContext::halo, 0, 64,
     "adjacency hops beyond the dirty region the restricted refinement may "
     "still move"},
    {"max_gates", &EngineContext::max_gates, 1, 64,
     "largest partitionable gate count the exhaustive search accepts (cost "
     "grows as K^G)"},
    {"certify", &EngineContext::certify, -kInf, kInf,
     "independently re-derive and check the result (core/certify.h); the "
     "run fails on any non-valid verdict"},
    {"c1", &CostWeights::c1, -kInf, kInf, "weight of the F1 locality term"},
    {"c2", &CostWeights::c2, -kInf, kInf,
     "weight of the F2 bias-balance term"},
    {"c3", &CostWeights::c3, -kInf, kInf,
     "weight of the F3 area-balance term"},
    {"c4", &CostWeights::c4, -kInf, kInf,
     "weight of the F4 one-hot pressure term"},
    {"distance_exponent", &CostWeights::distance_exponent, 1, 12,
     "plane-distance exponent of the F1 term"},
};

OptionSpec::Type type_of(const Knob& row) {
  return std::visit([](auto member) { return type_of(member); }, row.field);
}

OptionSpec spec_of(const Knob& row) {
  OptionSpec spec;
  spec.name = row.name;
  spec.type = type_of(row);
  const Json value = read_field(row.field, EngineContext{});
  if (value.is_string()) {
    spec.default_text = value.as_string();
  } else {
    spec.default_value = number_of(value);
  }
  spec.min_value = row.min_value;
  spec.max_value = row.max_value;
  spec.doc = row.doc;
  spec.enum_values.assign(row.values.begin(), row.values.end());
  return spec;
}

const Knob* find_knob(const std::string& name) {
  for (const Knob& row : kKnobs) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

// The one per-value check, whichever way a value arrives: as a job
// option, a sweep point, a CLI flag or a field set on EngineContext.
Status check_value(const Knob& row, const Json& value) {
  const char* name = row.name;
  const OptionSpec::Type type = type_of(row);
  switch (type) {
    case OptionSpec::Type::kBool:
      if (!value.is_bool()) {
        return Status::invalid_argument(
            str_format("option '%s' must be a bool", name));
      }
      return Status::ok();
    case OptionSpec::Type::kString: {
      if (!value.is_string()) {
        return Status::invalid_argument(
            str_format("option '%s' must be a string", name));
      }
      const std::string& text = value.as_string();
      std::string allowed;
      for (const char* candidate : row.values) {
        if (text == candidate) return Status::ok();
        if (!allowed.empty()) allowed += ", ";
        allowed += candidate;
      }
      return Status::invalid_argument(
          str_format("option '%s' = '%s' is not one of: %s", name,
                     text.c_str(), allowed.c_str()));
    }
    case OptionSpec::Type::kInt:
    case OptionSpec::Type::kDouble:
      break;
  }
  if (!value.is_number()) {
    return Status::invalid_argument(
        str_format("option '%s' must be a number", name));
  }
  const double number = value.as_number();
  if (!std::isfinite(number)) {
    return Status::invalid_argument(
        str_format("option '%s' must be finite", name));
  }
  if (type == OptionSpec::Type::kInt && std::trunc(number) != number) {
    return Status::invalid_argument(str_format(
        "option '%s' must be an integer, got %g", name, number));
  }
  if (number < row.min_value || number > row.max_value) {
    return Status::invalid_argument(
        str_format("option '%s' = %g is out of range [%g, %g]", name, number,
                   row.min_value, row.max_value));
  }
  return Status::ok();
}

}  // namespace

std::vector<OptionSpec> engine_option_table() {
  std::vector<OptionSpec> specs;
  for (const Knob& row : kKnobs) specs.push_back(spec_of(row));
  return specs;
}

Status apply_engine_options(const std::vector<OptionSpec>& specs,
                            const Json& options, EngineContext& context,
                            std::string* canonical) {
  if (!options.is_object() && !options.is_null()) {
    return Status::invalid_argument("options must be a JSON object");
  }
  // Reject unknown names first: a typo'd knob silently keeping its default
  // is the failure mode a serving API cannot afford.
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::string& key = options.key_at(i);
    bool known = false;
    for (const OptionSpec& spec : specs) known |= spec.name == key;
    if (!known) {
      std::string names;
      for (const OptionSpec& spec : specs) {
        if (!names.empty()) names += ", ";
        names += spec.name;
      }
      return Status::invalid_argument(str_format(
          "unknown option '%s' (known: %s)", key.c_str(), names.c_str()));
    }
  }
  if (canonical != nullptr) canonical->clear();
  const EngineContext defaults;
  for (const OptionSpec& spec : specs) {
    const Knob* row = find_knob(spec.name);
    if (row == nullptr) {
      return Status::invalid_argument(str_format(
          "option spec '%s' maps to no EngineContext field", spec.name.c_str()));
    }
    const Json* provided = options.find(spec.name);
    const Json value =
        provided != nullptr ? *provided : read_field(row->field, defaults);
    if (Status status = check_value(*row, value); !status) return status;
    write_field(row->field, value, context);
    // "threads" is excluded from the canonical form: the determinism
    // contract makes results bit-identical at any thread count, so two
    // jobs differing only in their thread budget are the same result.
    if (canonical == nullptr || spec.name == "threads") continue;
    if (value.is_string()) {
      *canonical += str_format("%s=%s;", spec.name.c_str(),
                               value.as_string().c_str());
    } else {
      *canonical +=
          str_format("%s=%.17g;", spec.name.c_str(), number_of(value));
    }
  }
  return Status::ok();
}

Status EngineContext::validate() const {
  for (const Knob& row : kKnobs) {
    if (Status status = check_value(row, read_field(row.field, *this));
        !status) {
      return status;
    }
  }
  return Status::ok();
}

double EngineRun::counter(const std::string& name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0.0;
}

namespace {

// The registry's backing store. A function-local static (not namespace-scope
// static-init self-registration, which a static-library link may drop): the
// built-ins are registered on first use, and std::map keeps names() sorted
// without re-sorting on every call.
struct RegistryState {
  std::mutex mutex;
  std::map<std::string, EngineRegistry::Factory> factories;
};

RegistryState& registry_state() {
  static RegistryState* state = [] {
    auto* s = new RegistryState;
    using namespace engine_detail;
    s->factories.emplace("gradient", make_gradient_engine);
    s->factories.emplace("multilevel", make_multilevel_engine);
    s->factories.emplace("vcycle", make_vcycle_engine);
    s->factories.emplace("annealing", make_annealing_engine);
    s->factories.emplace("fm_kway", make_fm_kway_engine);
    s->factories.emplace("layered", make_layered_engine);
    s->factories.emplace("random", make_random_engine);
    s->factories.emplace("exact", make_exact_engine);
    s->factories.emplace("eco", make_eco_engine);
    return s;
  }();
  return *state;
}

}  // namespace

Status EngineRegistry::register_engine(const std::string& name,
                                       Factory factory) {
  if (name.empty()) {
    return Status::invalid_argument("engine name must not be empty");
  }
  if (factory == nullptr) {
    return Status::invalid_argument(
        str_format("engine '%s': factory must not be null", name.c_str()));
  }
  RegistryState& state = registry_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  const auto [it, inserted] = state.factories.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return Status::invalid_argument(
        str_format("engine '%s' is already registered", name.c_str()));
  }
  return Status::ok();
}

std::vector<std::string> EngineRegistry::names() {
  RegistryState& state = registry_state();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<std::string> names;
  names.reserve(state.factories.size());
  for (const auto& [name, factory] : state.factories) names.push_back(name);
  return names;
}

StatusOr<std::unique_ptr<PartitionEngine>> EngineRegistry::create(
    const std::string& name) {
  Factory factory;
  {
    RegistryState& state = registry_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.factories.find(name);
    if (it == state.factories.end()) {
      std::string available;
      for (const auto& [known, unused] : state.factories) {
        if (!available.empty()) available += ", ";
        available += known;
      }
      return Status::not_found(str_format("unknown engine '%s' (available: %s)",
                                          name.c_str(), available.c_str()));
    }
    factory = it->second;
  }
  std::unique_ptr<PartitionEngine> engine = factory();
  if (engine == nullptr) {
    return Status::error(
        str_format("engine '%s': factory returned null", name.c_str()));
  }
  return engine;
}

namespace engine_detail {

std::vector<OptionSpec> option_specs(
    std::initializer_list<std::string_view> names) {
  std::vector<OptionSpec> specs;
  for (const Knob& row : kKnobs) {
    if (std::find(names.begin(), names.end(), row.name) != names.end()) {
      specs.push_back(spec_of(row));
    }
  }
  assert(specs.size() == names.size() && "an engine names an unknown knob");
  return specs;
}

void overlay_warm_and_pins(std::vector<int>& labels,
                           const std::vector<int>* warm,
                           const CompiledConstraints& constraints) {
  for (const std::vector<int>* over : {warm, constraints.compact_or_null()}) {
    if (over == nullptr) continue;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if ((*over)[i] != kUnassignedPlane) labels[i] = (*over)[i];
    }
  }
}

namespace {

// Rewrites the outermost RunInfo::engine to the registry name and forwards
// everything else untouched, so a RunReport attached through the registry
// carries the name the engine was created under (e.g. "gradient" rather
// than the Solver's internal "solver"). Nested run_start events (the
// V-cycle driver forwards its coarse Solver's stream) keep their own
// engine tag. Delivery is already serialized by the engine's TraceSink, so
// the depth counter needs no lock.
class EngineNameObserver final : public obs::SolverObserver {
 public:
  EngineNameObserver(obs::SolverObserver* inner, const char* engine)
      : inner_(inner), engine_(engine) {}

  void on_run_start(const obs::RunInfo& e) override {
    if (runs_seen_++ == 0) {
      obs::RunInfo renamed = e;
      renamed.engine = engine_;
      inner_->on_run_start(renamed);
      return;
    }
    inner_->on_run_start(e);
  }
  void on_restart_start(const obs::RestartStartEvent& e) override {
    inner_->on_restart_start(e);
  }
  void on_iteration(const obs::IterationEvent& e) override {
    inner_->on_iteration(e);
  }
  void on_harden(const obs::HardenEvent& e) override { inner_->on_harden(e); }
  void on_refine_pass(const obs::RefinePassEvent& e) override {
    inner_->on_refine_pass(e);
  }
  void on_restart_end(const obs::RestartEndEvent& e) override {
    inner_->on_restart_end(e);
  }
  void on_level(const obs::LevelEvent& e) override { inner_->on_level(e); }
  void on_timer(const obs::TimerEvent& e) override { inner_->on_timer(e); }
  void on_counter(const obs::CounterEvent& e) override {
    inner_->on_counter(e);
  }
  void on_run_end(const obs::RunEndEvent& e) override {
    inner_->on_run_end(e);
  }

 private:
  obs::SolverObserver* inner_;
  const char* engine_;
  int runs_seen_ = 0;
};

}  // namespace

StatusOr<EngineRun> EngineAdapter::run(const Netlist& netlist,
                                       const EngineContext& context) const {
  if (Status status = context.validate(); !status) {
    return Status::invalid_argument(
        str_format("engine '%s': %s", name(), status.message().c_str()));
  }
  const PartitionProblem problem =
      PartitionProblem::from_netlist(netlist, context.num_planes);
  if (problem.num_gates < 1) {
    return Status::invalid_argument(str_format(
        "engine '%s': the netlist has no partitionable gates", name()));
  }
  StatusOr<CompiledConstraints> compiled =
      compile_constraints(netlist, context.constraints, context.num_planes);
  if (!compiled) {
    return Status::invalid_argument(
        str_format("engine '%s': %s", name(), compiled.status().message().c_str()));
  }

  // Warm start: validated once here, like the constraints, so every engine
  // sees a clean compact labeling (-1 = unassigned). Pins win over warm
  // labels — a pinned gate carries its pin in the compact view.
  std::vector<int> warm_compact;
  const std::vector<int>* warm = nullptr;
  int warm_assigned = 0;
  if (context.warm_start != nullptr) {
    const InitialPartition& seed = *context.warm_start;
    if (static_cast<int>(seed.plane_of.size()) != netlist.num_gates()) {
      return Status::invalid_argument(str_format(
          "engine '%s': warm start covers %d gates, netlist has %d", name(),
          static_cast<int>(seed.plane_of.size()), netlist.num_gates()));
    }
    warm_compact.reserve(static_cast<std::size_t>(problem.num_gates));
    for (int i = 0; i < problem.num_gates; ++i) {
      const GateId gate = problem.gate_ids[static_cast<std::size_t>(i)];
      int label = seed.plane(gate);
      if (label != kUnassignedPlane &&
          (label < 0 || label >= context.num_planes)) {
        return Status::invalid_argument(str_format(
            "engine '%s': warm start labels gate %d with plane %d, valid "
            "range is [0, %d)",
            name(), gate, label, context.num_planes));
      }
      const int pinned = compiled->fixed_compact.empty()
                             ? kUnassignedPlane
                             : compiled->fixed_compact[static_cast<std::size_t>(i)];
      if (pinned != kUnassignedPlane) label = pinned;
      if (label != kUnassignedPlane) ++warm_assigned;
      warm_compact.push_back(label);
    }
    warm = &warm_compact;
  }

  EngineNameObserver renamed(context.observer, name());
  EngineContext inner = context;
  inner.observer = context.observer != nullptr ? &renamed : nullptr;

  // Lifecycle narration for engines that emit no events of their own
  // (layered, random, eco): one run with one "restart", so
  // --report-json carries an `engine` field for every registry engine.
  obs::TraceSink sink(self_observing() ? nullptr : inner.observer);
  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = name();
    info.num_planes = context.num_planes;
    info.restarts = 1;
    info.threads = 1;
    info.seed = context.seed;
    info.weights = context.weights;
    info.problem_gates = problem.num_gates;
    info.problem_edges = static_cast<long long>(problem.edges.size());
    sink.run_start(info);
    sink.restart_start({0});
  }

  const auto start = std::chrono::steady_clock::now();
  EngineRun result;
  if (warm != nullptr) {
    result.counters.emplace_back("warm_start", 1.0);
    result.counters.emplace_back("warm_assigned",
                                 static_cast<double>(warm_assigned));
  }
  // One CSR view per run: the engine solves on it and the normalized
  // score below reads it again.
  const ProblemView view(problem);
  StatusOr<Partition> partition =
      solve(netlist, view, inner, *compiled, warm, result.counters);
  if (!partition) return partition.status();
  result.partition = *std::move(partition);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  // Normalize the score with the *shared* discrete cost model so rows from
  // different engines are directly comparable regardless of the objective
  // the engine itself optimized.
  const CostModel model(view, context.weights);
  std::vector<int> labels;
  labels.reserve(static_cast<std::size_t>(problem.num_gates));
  for (GateId gate : problem.gate_ids) {
    labels.push_back(result.partition.plane(gate));
  }
  result.discrete_terms = model.evaluate_discrete(labels);
  result.discrete_total = result.discrete_terms.total(context.weights);

  // Quality floor of a fully-assigned warm start: if the engine somehow
  // scored worse than its own seed, return the seed labels instead. The
  // fallback runs before certification so the certified labels are the
  // returned labels.
  if (warm != nullptr && warm_assigned == problem.num_gates) {
    const CostTerms seed_terms = model.evaluate_discrete(warm_compact);
    const double seed_total = seed_terms.total(context.weights);
    if (seed_total < result.discrete_total) {
      result.partition = problem.to_partition(warm_compact, netlist.num_gates());
      result.discrete_terms = seed_terms;
      result.discrete_total = seed_total;
      result.counters.emplace_back("warm_start_kept", 1.0);
    }
  }

  // Independent certification (core/certify.h): re-derive the cost and
  // the physical quantities from the raw netlist through a separate code
  // path and reject the run on any non-valid verdict. The verdict is
  // recorded as counters either way, so run_report.v2 carries it.
  if (context.certify) {
    CertifyExpectation expect;
    expect.terms = result.discrete_terms;
    expect.total = result.discrete_total;
    const CertifyReport cert =
        certify_partition(netlist, result.partition, context.num_planes,
                          context.weights, &expect, &*compiled);
    result.counters.emplace_back("certified", 1.0);
    result.counters.emplace_back("certify_verdict",
                                 static_cast<double>(cert.verdict));
    if (inner.observer != nullptr) {
      inner.observer->on_counter({"certified", 1});
      inner.observer->on_counter(
          {"certify_verdict", static_cast<long long>(cert.verdict)});
    }
    if (!cert.valid()) {
      return Status::error(str_format(
          "engine '%s': certification failed (%s): %s", name(),
          certify_verdict_name(cert.verdict), cert.message.c_str()));
    }
  }

  if (sink.enabled()) {
    obs::RestartEndEvent restart_end;
    restart_end.restart = 0;
    restart_end.discrete_terms = result.discrete_terms;
    restart_end.discrete_total = result.discrete_total;
    sink.restart_end(restart_end);
    obs::RunEndEvent run_end;
    run_end.winning_restart = 0;
    run_end.discrete_total = result.discrete_total;
    sink.run_end(run_end);
  }
  return result;
}

}  // namespace engine_detail

}  // namespace sfqpart
