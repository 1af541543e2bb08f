// sfqpart — command line driver for the ground-plane partitioning flow.
//
//   sfqpart --list-engines
//   sfqpart list
//   sfqpart stats     --circuit ksa8 | --def design.def [--json]
//   sfqpart partition --circuit ksa8 --planes 5 [--refine] [--engine <name>]
//                     [--seed N] [--restarts N] [--threads N] [--progress]
//                     [--json] [--csv out.csv] [--dot out.dot]
//                     [--report-json report.json] [--trace]
//   sfqpart kres      --circuit id8 --limit 100 [--json]
//   sfqpart sweep     --circuit ksa8 --engine vcycle --sweep "planes=3,4,5"
//                     [--warm-neighbors]
//   sfqpart plan      --circuit ksa8 --planes 4 [--json]
//   sfqpart emit      --circuit mult4 --dir out/
//
// Every partitioning command selects its algorithm with --engine; the
// available engines come from the EngineRegistry (core/engine.h) and are
// listed by `sfqpart --list-engines`. Circuits come from the built-in
// benchmark suite or from a DEF file (--def); all stochastic steps honor
// --seed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "core/engine.h"
#include "core/kres_search.h"
#include "core/partition_io.h"
#include "core/sweep.h"
#include "def/def_parser.h"
#include "def/def_writer.h"
#include "def/lef_parser.h"
#include "floorplan/floorplan.h"
#include "gen/suite.h"
#include "timing/timing.h"
#include "metrics/partition_metrics.h"
#include "metrics/report.h"
#include "netlist/dot.h"
#include "netlist/stats.h"
#include "netlist/validate.h"
#include "obs/observer.h"
#include "obs/run_report.h"
#include "obs/stream_tracer.h"
#include "recycling/bias_plan.h"
#include "service/daemon.h"
#include "recycling/coupling.h"
#include "recycling/power.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/options.h"
#include "verilog/verilog_parser.h"
#include "verilog/verilog_writer.h"

namespace sfqpart {
namespace {

constexpr const char* kUsage =
    "usage: sfqpart <list|stats|partition|evaluate|kres|sweep|plan|timing|"
    "floorplan|emit> [flags]\n"
    "       sfqpart --list-engines [--json]\n"
    "run `sfqpart <command> --help` for the command's flags\n";

OptionsParser make_parser(const std::string& command) {
  OptionsParser parser("sfqpart " + command);
  parser.add_string("circuit", "ksa8", "benchmark circuit name (see `sfqpart list`)");
  parser.add_string("def", "", "read the netlist from this DEF file instead");
  parser.add_string("verilog", "", "read the netlist from this structural Verilog file");
  parser.add_int("planes", 5, "number of ground planes K");
  parser.add_int("seed", 1, "random seed");
  parser.add_flag("json", false, "emit machine-readable JSON on stdout");
  parser.add_flag("help", false, "show this help");
  parser.add_string("engine", "gradient",
                    "partitioning engine (see `sfqpart --list-engines`)");
  parser.add_flag("refine", false, "greedy refinement after gradient descent");
  parser.add_int("restarts", 3, "independent random restarts");
  parser.add_int("threads", 0,
                 "worker threads for gradient restarts (0 = hardware concurrency)");
  parser.add_flag("progress", false,
                  "report live convergence (restart/iteration/cost) on stderr");
  parser.add_string("report-json", "",
                    "write a machine-readable run report (config, convergence "
                    "curves, stage times, metrics) to this file");
  parser.add_flag("trace", false,
                  "stream solver events (restarts, iterations, timers) on stderr");
  parser.add_string("csv", "", "write gate->plane assignments to this CSV file");
  parser.add_string("dot", "", "write a plane-colored DOT graph to this file");
  parser.add_flag("certify", false,
                  "independently re-derive and check the result "
                  "(core/certify.h); always on in debug builds");
  parser.add_string("pin", "",
                    "pin gates to planes: comma-separated name=plane list, "
                    "e.g. --pin 'u1=0,u7=2'");
  parser.add_string("group", "",
                    "co-locate gates on one plane: ';'-separated groups of "
                    "comma-separated names, e.g. --group 'u1,u2;u5,u6'");
  parser.add_double("limit", 100.0, "bias pad limit in mA (kres)");
  parser.add_string("dir", ".", "output directory (emit)");
  parser.add_string("assignment", "", "gate->plane CSV to evaluate (evaluate)");
  parser.add_string("warm-start", "",
                    "seed the engine from this gate->plane CSV (typically a "
                    "previous revision's --csv output; stale rows are "
                    "skipped, missing gates start unassigned)");
  parser.add_string("refine-style", "banded",
                    "vcycle uncoarsening refinement: banded | buckets");
  parser.add_int("halo", 2,
                 "eco engine: BFS hops around the dirty region the "
                 "restricted refinement may move");
  parser.add_string("sweep", "",
                    "parameter sweep axes: ';'-separated name=v1,v2,... "
                    "lists of engine options, e.g. --sweep 'planes=3,4,5;"
                    "c2=0.1,0.5' (sweep command)");
  parser.add_flag("warm-neighbors", false,
                  "sweep: warm-start each point from its best completed "
                  "neighbor instead of running every point cold");
  return parser;
}

StatusOr<Netlist> load_netlist(const OptionsParser& options) {
  const std::string def_path = options.get_string("def");
  if (!def_path.empty()) {
    auto design = def::read_def_file(def_path);
    if (!design) return design.status();
    return def::def_to_netlist(*design, default_sfq_library());
  }
  const std::string verilog_path = options.get_string("verilog");
  if (!verilog_path.empty()) {
    auto module = read_verilog_file(verilog_path);
    if (!module) return module.status();
    return verilog_to_netlist(*module, default_sfq_library());
  }
  const SuiteEntry* entry = find_benchmark(options.get_string("circuit"));
  if (entry == nullptr) {
    return Status::error("unknown circuit '" + options.get_string("circuit") +
                         "'; run `sfqpart list`");
  }
  return build_mapped(*entry);
}

Json metrics_json(const PartitionMetrics& m) {
  Json distances = Json::array();
  for (int d = 0; d < m.num_planes; ++d) {
    distances.append(Json::number(
        static_cast<long long>(m.distance_histogram[static_cast<std::size_t>(d)])));
  }
  Json planes = Json::array();
  for (int k = 0; k < m.num_planes; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    planes.append(Json::object()
                      .set("gates", Json::number(static_cast<long long>(m.plane_gates[uk])))
                      .set("bias_ma", Json::number(m.plane_bias_ma[uk]))
                      .set("area_um2", Json::number(m.plane_area_um2[uk])));
  }
  return Json::object()
      .set("planes", Json::number(static_cast<long long>(m.num_planes)))
      .set("gates", Json::number(static_cast<long long>(m.num_gates)))
      .set("connections", Json::number(static_cast<long long>(m.num_connections)))
      .set("d1", Json::number(m.frac_within(1)))
      .set("d2", Json::number(m.frac_within(2)))
      .set("bcir_ma", Json::number(m.total_bias_ma))
      .set("bmax_ma", Json::number(m.bmax_ma))
      .set("icomp_frac", Json::number(m.icomp_frac()))
      .set("acir_mm2", Json::number(m.total_area_mm2()))
      .set("amax_mm2", Json::number(m.amax_mm2()))
      .set("afs_frac", Json::number(m.afs_frac()))
      .set("distance_histogram", std::move(distances))
      .set("per_plane", std::move(planes));
}

int cmd_list() {
  for (const SuiteEntry& entry : benchmark_suite()) {
    std::printf("%-7s %s (paper: %d gates, %d connections)\n", entry.name.c_str(),
                entry.description.c_str(), entry.paper.gates,
                entry.paper.connections);
  }
  for (const SuiteEntry& entry : extra_circuits()) {
    std::printf("%-7s %s (extra, not in the paper's table)\n", entry.name.c_str(),
                entry.description.c_str());
  }
  return 0;
}

int cmd_stats(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  const NetlistStats stats = compute_stats(*netlist);
  if (options.get_flag("json")) {
    Json mix = Json::object();
    for (const auto& [kind, count] : stats.by_kind) {
      mix.set(cell_kind_name(kind), Json::number(static_cast<long long>(count)));
    }
    std::printf("%s\n",
                Json::object()
                    .set("name", Json::string(netlist->name()))
                    .set("gates", Json::number(static_cast<long long>(stats.num_gates)))
                    .set("io", Json::number(static_cast<long long>(stats.num_io)))
                    .set("connections",
                         Json::number(static_cast<long long>(stats.num_connections)))
                    .set("bias_ma", Json::number(stats.total_bias_ma))
                    .set("area_mm2", Json::number(stats.total_area_mm2()))
                    .set("jj", Json::number(static_cast<long long>(stats.total_jj)))
                    .set("depth", Json::number(static_cast<long long>(stats.logic_depth)))
                    .set("cell_mix", std::move(mix))
                    .dump()
                    .c_str());
  } else {
    std::fputs(format_stats(*netlist, stats).c_str(), stdout);
  }
  return 0;
}

// Prints live convergence on stderr (--progress); an observer over the
// same event stream every engine narrates.
class ProgressPrinter final : public obs::SolverObserver {
 public:
  void on_iteration(const obs::IterationEvent& e) override {
    if (e.iteration % 50 == 0) {
      std::fprintf(stderr, "[progress] restart %d iteration %d cost %.6f\n",
                   e.restart, e.iteration, e.cost);
    }
  }
};

// Parses the --pin / --group flag syntax into the GateConstraints
// declaration; name resolution and feasibility checks happen later in
// compile_constraints(), so this only rejects malformed syntax.
Status parse_constraint_flags(const OptionsParser& options,
                              GateConstraints& out) {
  const std::string pins = options.get_string("pin");
  for (std::size_t pos = 0; pos < pins.size();) {
    std::size_t end = pins.find(',', pos);
    if (end == std::string::npos) end = pins.size();
    const std::string item = pins.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::invalid_argument("--pin expects name=plane, got '" +
                                      item + "'");
    }
    char* tail = nullptr;
    const long plane = std::strtol(item.c_str() + eq + 1, &tail, 10);
    if (tail == item.c_str() + eq + 1 || *tail != '\0') {
      return Status::invalid_argument("--pin expects an integer plane in '" +
                                      item + "'");
    }
    out.pins.emplace_back(item.substr(0, eq), static_cast<int>(plane));
  }
  const std::string groups = options.get_string("group");
  for (std::size_t pos = 0; pos < groups.size();) {
    std::size_t end = groups.find(';', pos);
    if (end == std::string::npos) end = groups.size();
    const std::string spec = groups.substr(pos, end - pos);
    pos = end + 1;
    if (spec.empty()) continue;
    std::vector<std::string> members;
    for (std::size_t mpos = 0; mpos < spec.size();) {
      std::size_t mend = spec.find(',', mpos);
      if (mend == std::string::npos) mend = spec.size();
      if (mend > mpos) members.push_back(spec.substr(mpos, mend - mpos));
      mpos = mend + 1;
    }
    if (members.size() < 2) {
      return Status::invalid_argument(
          "--group expects at least two comma-separated names per group, "
          "got '" + spec + "'");
    }
    out.groups.push_back(std::move(members));
  }
  return Status::ok();
}

// The engine flags as one options object, checked against the option
// table like a daemon job's options. --certify forces certification on;
// without it the build-type default stands (on in debug builds).
Json engine_flags(const OptionsParser& options) {
  Json flags = Json::object();
  for (const char* name : {"planes", "seed", "restarts", "threads", "halo"}) {
    flags.set(name, Json::number(options.get_int(name)));
  }
  flags.set("refine", Json::boolean(options.get_flag("refine")));
  flags.set("refine_style", Json::string(options.get_string("refine-style")));
  if (options.get_flag("certify")) flags.set("certify", Json::boolean(true));
  return flags;
}

// Runs the engine selected by --engine. Every engine flag is range-checked
// against the whole option table, whatever the engine reads.
StatusOr<EngineRun> run_engine(const Netlist& netlist, const OptionsParser& options,
                               obs::SolverObserver* observer = nullptr) {
  auto engine = EngineRegistry::create(options.get_string("engine"));
  if (!engine) return engine.status();

  EngineContext context;
  if (Status st = apply_engine_options(engine_option_table(),
                                       engine_flags(options), context);
      !st) {
    return st;
  }
  if (Status st = parse_constraint_flags(options, context.constraints); !st) {
    return st;
  }
  // The warm start must outlive the run; the engine call below is
  // synchronous, so this scope is enough.
  InitialPartition warm;
  const std::string warm_path = options.get_string("warm-start");
  if (!warm_path.empty()) {
    auto loaded = load_warm_start_csv(warm_path, netlist);
    if (!loaded) return loaded.status();
    warm = *std::move(loaded);
    context.warm_start = &warm;
  }
  context.observer = observer;

  ProgressPrinter printer;
  obs::MulticastObserver multicast;
  if (options.get_flag("progress")) {
    if (observer != nullptr) multicast.add(observer);
    multicast.add(&printer);
    context.observer = &multicast;
  }
  return (*engine)->run(netlist, context);
}

// The engine flags limited to the knobs engine `name` advertises: the
// base options of a sweep or a K search, whose runs validate against
// that list.
StatusOr<Json> flags_for_engine(const OptionsParser& options,
                                const std::string& name) {
  auto engine = EngineRegistry::create(name);
  if (!engine) return engine.status();
  const Json flags = engine_flags(options);
  Json base = Json::object();
  for (const OptionSpec& spec : (*engine)->describe_options()) {
    if (const Json* value = flags.find(spec.name); value != nullptr) {
      base.set(spec.name, *value);
    }
  }
  return base;
}

// Text mode: one line per engine. JSON mode: the full structured surface —
// name, description and the OptionSpec list — so tooling (and the sfqpartd
// daemon's clients) can discover engines and validate options without
// parsing prose.
int cmd_list_engines(bool as_json) {
  if (as_json) {
    // Same document the daemon serves for {"cmd": "engines"}.
    std::printf("%s\n", service::engines_json().dump().c_str());
    return 0;
  }
  for (const std::string& name : EngineRegistry::names()) {
    auto engine = EngineRegistry::create(name);
    if (!engine) continue;
    std::printf("%-11s %s\n", name.c_str(), (*engine)->description());
    for (const OptionSpec& spec : (*engine)->describe_options()) {
      std::printf("            --%s (%s, default %s)\n", spec.name.c_str(),
                  option_type_name(spec.type),
                  spec.to_json().find("default")->dump(0).c_str());
    }
  }
  return 0;
}

int cmd_partition(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }

  // Observability: --report-json aggregates the run into a RunReport,
  // --trace streams events live; both at once share the stream through a
  // multicast. No flag -> null observer -> the solver pays one branch.
  const std::string report_path = options.get_string("report-json");
  obs::RunReport report;
  obs::StreamTracer tracer(stderr);
  obs::MulticastObserver multicast;
  if (!report_path.empty()) multicast.add(&report);
  if (options.get_flag("trace")) multicast.add(&tracer);
  obs::SolverObserver* observer = multicast.empty() ? nullptr : &multicast;

  const auto run = run_engine(*netlist, options, observer);
  if (!run) {
    std::fprintf(stderr, "%s\n", run.status().message().c_str());
    return 1;
  }
  const Partition& partition = run->partition;
  const PartitionMetrics metrics = compute_metrics(*netlist, partition);

  if (!report_path.empty()) {
    report.set_circuit(netlist->name(), metrics.num_gates,
                       metrics.num_connections);
    report.set_metrics(metrics);
    if (auto st = report.write_file(report_path); !st) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return 1;
    }
  }

  if (!options.get_string("csv").empty()) {
    CsvWriter csv({"gate", "cell", "plane"});
    for (GateId g = 0; g < netlist->num_gates(); ++g) {
      if (!netlist->is_partitionable(g)) continue;
      csv.add_row({netlist->gate(g).name, netlist->cell_of(g).name,
                   std::to_string(partition.plane(g))});
    }
    if (auto st = csv.write_file(options.get_string("csv")); !st) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return 1;
    }
  }
  if (!options.get_string("dot").empty()) {
    const std::string dot_path = options.get_string("dot");
    DotOptions dot_options;
    dot_options.plane_of = partition.plane_of;
    std::ofstream file(dot_path);
    if (!file) {
      std::fprintf(stderr, "cannot open for writing: %s\n", dot_path.c_str());
      return 1;
    }
    file << to_dot(*netlist, dot_options);
    if (!file) {
      std::fprintf(stderr, "write failed: %s\n", dot_path.c_str());
      return 1;
    }
  }

  if (options.get_flag("json")) {
    Json assignment = Json::object();
    for (GateId g = 0; g < netlist->num_gates(); ++g) {
      if (netlist->is_partitionable(g)) {
        assignment.set(netlist->gate(g).name,
                       Json::number(static_cast<long long>(partition.plane(g))));
      }
    }
    Json counters = Json::object();
    for (const auto& [name, value] : run->counters) {
      counters.set(name, Json::number(value));
    }
    std::printf("%s\n", Json::object()
                            .set("circuit", Json::string(netlist->name()))
                            .set("engine", Json::string(options.get_string("engine")))
                            // No wall_ms here: --json stdout is the
                            // deterministic document (byte-identical at
                            // any thread count); timings live in
                            // --report-json.
                            .set("discrete_total", Json::number(run->discrete_total))
                            .set("counters", std::move(counters))
                            .set("metrics", metrics_json(metrics))
                            .set("assignment", std::move(assignment))
                            .dump()
                            .c_str());
  } else {
    std::fputs(format_partition_report(*netlist, partition, metrics).c_str(),
               stdout);
  }
  return 0;
}

int cmd_evaluate(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  const std::string path = options.get_string("assignment");
  if (path.empty()) {
    std::fprintf(stderr, "evaluate needs --assignment <csv>\n");
    return 1;
  }
  auto partition = load_partition_csv(path, *netlist);
  if (!partition) {
    std::fprintf(stderr, "%s\n", partition.status().message().c_str());
    return 1;
  }
  const PartitionMetrics metrics = compute_metrics(*netlist, *partition);
  if (options.get_flag("json")) {
    std::printf("%s\n", Json::object()
                            .set("circuit", Json::string(netlist->name()))
                            .set("assignment", Json::string(path))
                            .set("metrics", metrics_json(metrics))
                            .dump()
                            .c_str());
  } else {
    std::fputs(format_partition_report(*netlist, *partition, metrics).c_str(),
               stdout);
  }
  return 0;
}

int cmd_kres(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  KresOptions kopt;
  kopt.bias_limit_ma = options.get_double("limit");
  // Every attempt runs the gradient engine, so its flags are checked
  // against the option table like a partition run's.
  auto base = flags_for_engine(options, "gradient");
  if (!base) {
    std::fprintf(stderr, "%s\n", base.status().message().c_str());
    return 1;
  }
  if (Status st = apply_engine_options(engine_option_table(), *base, kopt.base);
      !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  auto search = find_min_planes(*netlist, kopt);
  if (!search) {
    std::fprintf(stderr, "%s\n", search.status().message().c_str());
    return 1;
  }
  const KresResult& result = *search;
  if (!result.found) {
    std::fprintf(stderr, "no feasible K up to %d\n", kopt.max_planes);
    return 1;
  }
  if (options.get_flag("json")) {
    std::printf("%s\n",
                Json::object()
                    .set("circuit", Json::string(netlist->name()))
                    .set("limit_ma", Json::number(kopt.bias_limit_ma))
                    .set("k_lb", Json::number(static_cast<long long>(result.k_lb)))
                    .set("k_res", Json::number(static_cast<long long>(result.k_res)))
                    .set("bmax_ma", Json::number(result.bmax_ma))
                    .dump()
                    .c_str());
  } else {
    std::printf("%s: K_LB = %d, K_res = %d, B_max = %.2f mA (limit %.1f mA)\n",
                netlist->name().c_str(), result.k_lb, result.k_res, result.bmax_ma,
                kopt.bias_limit_ma);
  }
  return 0;
}

// Parses "name=v1,v2;name2=..." into sweep axes. Values that parse as
// JSON scalars (numbers, true/false) are used as such; anything else is a
// string value (e.g. refine_style=banded,buckets).
Status parse_sweep_axes(const std::string& spec, std::vector<SweepAxis>& out) {
  for (std::size_t pos = 0; pos < spec.size();) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::invalid_argument(
          "--sweep expects name=v1,v2,..., got '" + item + "'");
    }
    SweepAxis axis;
    axis.name = item.substr(0, eq);
    for (std::size_t vpos = eq + 1; vpos <= item.size();) {
      std::size_t vend = item.find(',', vpos);
      if (vend == std::string::npos) vend = item.size();
      const std::string value = item.substr(vpos, vend - vpos);
      vpos = vend + 1;
      if (value.empty()) continue;
      const auto parsed = Json::parse(value);
      axis.values.push_back(parsed.is_ok() && !parsed->is_null() &&
                                    !parsed->is_array() && !parsed->is_object()
                                ? *parsed
                                : Json::string(value));
    }
    if (axis.values.empty()) {
      return Status::invalid_argument("--sweep axis '" + axis.name +
                                      "' has no values");
    }
    out.push_back(std::move(axis));
  }
  if (out.empty()) {
    return Status::invalid_argument("--sweep expects at least one axis");
  }
  return Status::ok();
}

// The engine flags as the sweep's base options, limited to the names the
// engine advertises. The per-gate flags have no per-point form, so they
// are rejected rather than ignored.
StatusOr<Json> sweep_base_options(const OptionsParser& options) {
  for (const char* flag : {"pin", "group", "warm-start"}) {
    if (!options.get_string(flag).empty()) {
      return Status::invalid_argument(std::string("sweep: --") + flag +
                                      " is not supported; every point runs "
                                      "unconstrained and cold");
    }
  }
  return flags_for_engine(options, options.get_string("engine"));
}

int cmd_sweep(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  SweepOptions sweep;
  sweep.engine = options.get_string("engine");
  sweep.warm_neighbors = options.get_flag("warm-neighbors");
  if (Status st = parse_sweep_axes(options.get_string("sweep"), sweep.axes);
      !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  auto base = sweep_base_options(options);
  if (!base) {
    std::fprintf(stderr, "%s\n", base.status().message().c_str());
    return 1;
  }
  sweep.base_options = *std::move(base);
  const auto result = run_sweep(*netlist, sweep);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().message().c_str());
    return 1;
  }
  std::printf("%s\n", result->to_json(netlist->name()).dump().c_str());
  return 0;
}

int cmd_plan(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  const auto run = run_engine(*netlist, options);
  if (!run) {
    std::fprintf(stderr, "%s\n", run.status().message().c_str());
    return 1;
  }
  const Partition& partition = run->partition;
  const BiasPlan plan = make_bias_plan(*netlist, partition);
  const CouplingReport coupling = plan_coupling(*netlist, partition);
  if (options.get_flag("json")) {
    Json planes = Json::array();
    for (const PlaneBias& plane : plan.planes) {
      planes.append(Json::object()
                        .set("plane", Json::number(static_cast<long long>(plane.plane)))
                        .set("gates", Json::number(static_cast<long long>(plane.gates)))
                        .set("bias_ma", Json::number(plane.bias_ma))
                        .set("dummy_ma", Json::number(plane.dummy_ma))
                        .set("potential_mv", Json::number(plane.potential_mv)));
    }
    std::printf("%s\n",
                Json::object()
                    .set("circuit", Json::string(netlist->name()))
                    .set("supply_ma", Json::number(plan.supply_ma))
                    .set("stack_mv", Json::number(plan.stack_voltage_mv))
                    .set("icomp_ma", Json::number(plan.total_dummy_ma))
                    .set("pads_saved", Json::number(static_cast<long long>(plan.pads_saved())))
                    .set("coupling_pairs",
                         Json::number(static_cast<long long>(coupling.total_pairs)))
                    .set("planes", std::move(planes))
                    .dump()
                    .c_str());
  } else {
    std::fputs(format_bias_plan(plan).c_str(), stdout);
    std::fputs(format_coupling_report(coupling).c_str(), stdout);
    std::fputs(format_power_report(analyze_power(*netlist, partition)).c_str(),
               stdout);
  }
  return 0;
}

int cmd_floorplan(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  const auto run = run_engine(*netlist, options);
  if (!run) {
    std::fprintf(stderr, "%s\n", run.status().message().c_str());
    return 1;
  }
  const Floorplan plan = build_floorplan(*netlist, run->partition);
  std::fputs(format_floorplan(*netlist, plan).c_str(), stdout);

  const std::string dir = options.get_string("dir");
  const std::string path = dir + "/" + netlist->name() + "_placed.def";
  std::ofstream file(path);
  file << def::write_def_placed(*netlist, {}, plan.x_um, plan.y_um);
  if (!file) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmd_timing(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  // Timing with and without the partition's coupling-hop penalties, plus
  // the floorplan's wire delays.
  const auto run = run_engine(*netlist, options);
  if (!run) {
    std::fprintf(stderr, "%s\n", run.status().message().c_str());
    return 1;
  }
  const Floorplan floorplan = build_floorplan(*netlist, run->partition);
  const TimingReport flat = analyze_timing(*netlist);
  const TimingReport placed =
      analyze_timing(*netlist, {}, &floorplan, &run->partition);
  if (options.get_flag("json")) {
    std::printf("%s\n",
                Json::object()
                    .set("circuit", Json::string(netlist->name()))
                    .set("fmax_flat_ghz", Json::number(flat.fmax_ghz))
                    .set("fmax_partitioned_ghz", Json::number(placed.fmax_ghz))
                    .set("min_period_ps", Json::number(placed.min_period_ps))
                    .set("critical_coupling_ps",
                         Json::number(placed.critical_coupling_ps))
                    .set("critical_wire_ps", Json::number(placed.critical_wire_ps))
                    .dump()
                    .c_str());
  } else {
    std::printf("unpartitioned:\n");
    std::fputs(format_timing_report(flat).c_str(), stdout);
    std::printf("\npartitioned into K=%lld (wire + coupling aware):\n",
                options.get_int("planes"));
    std::fputs(format_timing_report(placed).c_str(), stdout);
    std::fputs(format_clock_skew_report(analyze_clock_skew(*netlist)).c_str(),
               stdout);
  }
  return 0;
}

int cmd_emit(const OptionsParser& options) {
  auto netlist = load_netlist(options);
  if (!netlist) {
    std::fprintf(stderr, "%s\n", netlist.status().message().c_str());
    return 1;
  }
  const std::string dir = options.get_string("dir");
  const std::string lef_path = dir + "/" + netlist->name() + ".lef";
  const std::string def_path = dir + "/" + netlist->name() + ".def";
  const std::string verilog_path = dir + "/" + netlist->name() + ".v";
  std::ofstream lef(lef_path);
  lef << def::write_lef(netlist->library());
  std::ofstream def_file(def_path);
  def_file << def::write_def(*netlist);
  std::ofstream verilog_file(verilog_path);
  verilog_file << write_verilog(*netlist);
  if (!lef || !def_file || !verilog_file) {
    std::fprintf(stderr, "write failed under %s\n", dir.c_str());
    return 1;
  }
  std::printf("wrote %s, %s and %s\n", lef_path.c_str(), def_path.c_str(),
              verilog_path.c_str());
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  if (command == "--list-engines" || command == "list-engines") {
    const bool as_json = argc > 2 && std::string(argv[2]) == "--json";
    return cmd_list_engines(as_json);
  }

  OptionsParser options = make_parser(command);
  if (auto st = options.parse(argc - 2, argv + 2); !st) {
    std::fprintf(stderr, "%s\n%s", st.message().c_str(), options.usage().c_str());
    return 1;
  }
  if (options.get_flag("help")) {
    std::fputs(options.usage().c_str(), stdout);
    return 0;
  }
  if (command == "stats") return cmd_stats(options);
  if (command == "partition") return cmd_partition(options);
  if (command == "evaluate") return cmd_evaluate(options);
  if (command == "kres") return cmd_kres(options);
  if (command == "sweep") return cmd_sweep(options);
  if (command == "plan") return cmd_plan(options);
  if (command == "timing") return cmd_timing(options);
  if (command == "floorplan") return cmd_floorplan(options);
  if (command == "emit") return cmd_emit(options);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 1;
}

}  // namespace
}  // namespace sfqpart

int main(int argc, char** argv) { return sfqpart::run(argc, argv); }
