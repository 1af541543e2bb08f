// Baseline comparison: the paper's gradient-descent partitioner vs the
// classic alternatives it argues against (section IV-A) on one circuit —
// one loop over every engine in the registry.
//
//   ./baseline_compare [--circuit ksa8] [--planes 5] [--seed 1]
#include <cstdio>

#include "core/engine.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "util/options.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sfqpart;

  OptionsParser options("Compare every registered engine on one benchmark circuit.");
  options.add_string("circuit", "ksa8", "benchmark name");
  options.add_int("planes", 5, "number of ground planes K");
  options.add_int("seed", 1, "random seed");
  if (auto status = options.parse(argc - 1, argv + 1); !status) {
    std::fprintf(stderr, "%s\n%s", status.message().c_str(), options.usage().c_str());
    return 1;
  }
  const SuiteEntry* entry = find_benchmark(options.get_string("circuit"));
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown circuit '%s'\n", options.get_string("circuit").c_str());
    return 1;
  }
  const Netlist netlist = build_mapped(*entry);

  // The flags are checked against the option table, like a CLI run's.
  EngineContext context;
  const Json flags = Json::object()
                         .set("planes", Json::number(options.get_int("planes")))
                         .set("seed", Json::number(options.get_int("seed")));
  if (auto status = apply_engine_options(engine_option_table(), flags, context);
      !status) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 1;
  }

  TablePrinter table({"engine", "d<=1", "d<=2", "cut", "I_comp", "A_FS",
                      "cost", "ms"});
  for (const std::string& name : EngineRegistry::names()) {
    // The exhaustive reference only accepts tiny instances; skip it here
    // rather than fail the whole comparison on a normal-sized circuit.
    if (name == "exact") continue;
    auto engine = EngineRegistry::create(name);
    if (!engine) {
      std::fprintf(stderr, "%s\n", engine.status().message().c_str());
      return 1;
    }
    auto run = (*engine)->run(netlist, context);
    if (!run) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), run.status().message().c_str());
      return 1;
    }
    const PartitionMetrics m = compute_metrics(netlist, run->partition);
    table.add_row({name, fmt_percent(m.frac_within(1)), fmt_percent(m.frac_within(2)),
                   std::to_string(cut_count(netlist, run->partition)),
                   fmt_percent(m.icomp_frac()), fmt_percent(m.afs_frac()),
                   fmt_double(run->discrete_total, 4), fmt_double(run->wall_ms, 1)});
  }

  std::printf("circuit %s, K=%d, %d gates\n", entry->name.c_str(),
              context.num_planes, netlist.num_partitionable_gates());
  table.print();
  return 0;
}
