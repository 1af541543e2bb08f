// ECO bench: measures the incremental re-partition path against a
// scratch V-cycle on a mutated scaled netlist, and writes
// results/BENCH_eco.json.
//
// Protocol (core/delta.h): build a scaled netlist, partition it cold
// with the vcycle engine, mutate ~1% of the gates (gen/mutate.h), build
// the warm start from the parent partition, and run engine "eco"; then
// run the registry's "vcycle" on the same revised netlist with the same
// context and no warm start, the scratch re-solve the ECO replaces. The
// run fails (exit 1) unless the eco result certifies and meets the
// --min-speedup / --max-drift-pct bars, which is what the CI eco-smoke
// job leans on.
//
// `eco_ms` and `scratch_ms` are the two runs' `wall_ms`: the view build
// plus the engine's solve. `speedup_vs_scratch` (and the bars) divide
// one by the other, and `cost_drift_pct` compares their discrete
// totals. What a caller pays end to end is reported beside it: `diff_ms`
// (compute_delta), `warm_start_ms` (warm_start_from) and
// `repartition_ms`, one separately timed repartition() call — diff, warm
// start, problem build and engine — whose labels must equal the eco
// run's; `speedup_vs_scratch_e2e` = scratch_ms / repartition_ms.
// `certify_ms` times the certification of the eco result, which
// repartition() does not include.
//
// Each of the three front-end timings runs on a freshly mutated `after`
// (the same seed, so the same netlist, with its memoized edge set not
// yet built), as every revision of an ECO stream arrives. The parent
// netlist stays warm, as the prior of such a stream does: its edges
// were built by the parent solve.
//
// Plain main() like capacity_bench: a million-gate run is too slow for a
// google-benchmark timer loop, and the artifact is the JSON.
//
// Flags:
//   --gates 1000000 --planes 5 --threads 0 --seed 1 --rent 0.65
//   --mutate 0.01             fraction of gates removed AND added
//   --halo 2                  BFS hops around the dirty seeds
//   --min-speedup 5 --max-drift-pct 1.0   acceptance bars (<=0 disables)
//   --smoke                   10^5-gate run (advisory CI)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "core/certify.h"
#include "core/delta.h"
#include "core/engine.h"
#include "core/vcycle.h"
#include "gen/mutate.h"
#include "gen/scaled.h"
#include "util/options.h"

namespace sfqpart::bench {
namespace {

// Wall time of fn() in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int run(int argc, char** argv) {
  OptionsParser parser(
      "eco_bench: incremental ECO re-partition vs scratch V-cycle on a\n"
      "mutated scaled netlist; writes results/BENCH_eco.json.");
  parser.add_int("gates", 1000000, "target gate count of the parent netlist");
  parser.add_int("planes", 5, "ground planes K");
  parser.add_int("threads", 0, "worker threads (0 = all hardware threads)");
  parser.add_int("seed", 1, "generator, solver and mutation seed");
  parser.add_double("rent", 0.65, "Rent exponent of the generated netlist");
  parser.add_double("mutate", 0.01,
                    "fraction of partitionable gates removed and added");
  parser.add_int("halo", 2, "BFS hops of clean gates eco may still move");
  parser.add_double("min-speedup", 5.0,
                    "fail unless eco is at least this much faster (<=0 off)");
  parser.add_double("max-drift-pct", 1.0,
                    "fail if eco cost exceeds scratch by more (<=0 off)");
  parser.add_flag("smoke", false, "10^5-gate run (advisory CI job)");
  parser.add_flag("help", false, "print usage");
  if (auto st = parser.parse(argc - 1, argv + 1); !st) {
    std::fprintf(stderr, "eco_bench: %s\n%s", st.message().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (parser.get_flag("help")) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }

  const bool smoke = parser.get_flag("smoke");
  const int num_gates =
      smoke ? 100000 : static_cast<int>(parser.get_int("gates"));

  auto engine = EngineRegistry::create("eco");
  auto scratch_engine = EngineRegistry::create("vcycle");
  if (!engine || !scratch_engine) {
    std::fprintf(stderr, "eco_bench: the eco and vcycle engines are not "
                         "registered\n");
    return 1;
  }
  // The engine flags, checked against the eco engine's option rows.
  EngineContext context;
  Json flags = Json::object();
  for (const char* name : {"planes", "seed", "threads", "halo"}) {
    flags.set(name, Json::number(parser.get_int(name)));
  }
  if (Status st = apply_engine_options((*engine)->describe_options(), flags,
                                       context);
      !st) {
    std::fprintf(stderr, "eco_bench: %s\n", st.message().c_str());
    return 2;
  }
  const int num_planes = context.num_planes;
  const std::uint64_t seed = context.seed;

  ScaledParams gen;
  gen.name = "eco" + std::to_string(num_gates);
  gen.num_gates = num_gates;
  gen.rent_exponent = parser.get_double("rent");
  gen.seed = seed;
  const Netlist before = build_scaled(gen);
  std::printf("[gen] %s: %d gates\n", before.name().c_str(),
              before.num_gates());

  // Parent solve: the partition the ECO inherits.
  VcycleOptions parent_options;
  parent_options.seed = seed;
  parent_options.threads = context.threads;
  VcycleResult parent;
  const double parent_ms = time_ms(
      [&] { parent = vcycle_partition(before, num_planes, parent_options); });
  std::printf("[parent] vcycle %.0f ms, F=%.1f\n", parent_ms,
              parent.discrete_total);

  MutateParams mutation;
  mutation.remove_fraction = parser.get_double("mutate");
  mutation.add_fraction = parser.get_double("mutate");
  mutation.seed = seed;
  MutateStats stats;
  // A fresh revision per timing: the same netlist each time, edges unbuilt.
  const auto revision = [&] { return mutate_netlist(before, mutation, &stats); };
  NetlistDelta delta;
  double diff_ms = 0.0;
  {
    const Netlist diffed = revision();
    diff_ms = time_ms([&] { delta = compute_delta(before, diffed); });
  }
  std::printf("[mutate] -%d +%d gates; delta: %zu added, %zu removed, "
              "%zu changed, %d dirty seeds\n",
              stats.removed, stats.added, delta.added.size(),
              delta.removed.size(), delta.changed.size(), delta.dirty());

  const Netlist after = revision();
  InitialPartition warm;
  const double warm_start_ms = time_ms(
      [&] { warm = warm_start_from(parent.partition, before, after); });

  context.warm_start = &warm;
  auto eco = (*engine)->run(after, context);
  if (!eco) {
    std::fprintf(stderr, "eco_bench: %s\n", eco.status().message().c_str());
    return 1;
  }
  EngineContext scratch_context = context;
  scratch_context.warm_start = nullptr;
  auto scratch = (*scratch_engine)->run(after, scratch_context);
  if (!scratch) {
    std::fprintf(stderr, "eco_bench: %s\n",
                 scratch.status().message().c_str());
    return 1;
  }

  // The same ECO as one public call, timed end to end.
  StatusOr<EngineRun> e2e = Status::error("not run");
  double repartition_ms = 0.0;
  {
    const Netlist revised = revision();
    repartition_ms = time_ms([&] {
      e2e = repartition(before, parent.partition, revised, context);
    });
  }
  if (!e2e) {
    std::fprintf(stderr, "eco_bench: %s\n", e2e.status().message().c_str());
    return 1;
  }
  if (e2e->partition.plane_of != eco->partition.plane_of) {
    std::fprintf(stderr,
                 "eco_bench: repartition() labels differ from the eco run\n");
    return 1;
  }

  // Independent re-check: the ECO output must certify like any other
  // engine result (no constraints in this bench). Timed, since every
  // served revision pays it beside repartition().
  CertifyExpectation expect;
  expect.terms = eco->discrete_terms;
  expect.total = eco->discrete_total;
  CertifyReport cert;
  const double certify_ms = time_ms([&] {
    cert = certify_partition(after, eco->partition, num_planes,
                             context.weights, &expect, nullptr);
  });
  const bool certified = cert.valid();

  const double eco_ms = eco->wall_ms;
  const double scratch_ms = scratch->wall_ms;
  const double speedup = eco_ms > 0.0 ? scratch_ms / eco_ms : 0.0;
  const double drift_pct =
      scratch->discrete_total != 0.0
          ? (eco->discrete_total - scratch->discrete_total) /
                scratch->discrete_total * 100.0
          : 0.0;
  const double speedup_e2e =
      repartition_ms > 0.0 ? scratch_ms / repartition_ms : 0.0;
  std::printf("[eco] %.0f ms vs scratch %.0f ms: %.1fx, drift %+.3f%%, "
              "certified=%s (%.1f ms)\n",
              eco_ms, scratch_ms, speedup, drift_pct,
              certified ? "yes" : "no", certify_ms);
  std::printf("[e2e] repartition() %.0f ms (diff %.0f ms, warm start %.0f "
              "ms): %.1fx vs scratch\n",
              repartition_ms, diff_ms, warm_start_ms, speedup_e2e);

  Json doc = Json::object()
                 .set("schema", Json::string("sfqpart.bench_eco.v1"))
                 .set("circuit", Json::string(after.name()))
                 .set("gates", Json::number(static_cast<long long>(after.num_gates())))
                 .set("planes", Json::number(static_cast<long long>(num_planes)))
                 .set("seed", Json::number(static_cast<long long>(seed)))
                 .set("mutate_fraction",
                      Json::number(parser.get_double("mutate")))
                 .set("removed", Json::number(static_cast<long long>(stats.removed)))
                 .set("added", Json::number(static_cast<long long>(stats.added)))
                 .set("dirty_seeds", Json::number(eco->counter("dirty_seeds")))
                 .set("dirty_gates", Json::number(eco->counter("dirty_gates")))
                 .set("halo", Json::number(static_cast<long long>(context.halo)))
                 .set("parent_ms", Json::number(parent_ms))
                 .set("scratch_ms", Json::number(scratch_ms))
                 .set("eco_ms", Json::number(eco_ms))
                 .set("speedup_vs_scratch", Json::number(speedup))
                 .set("diff_ms", Json::number(diff_ms))
                 .set("warm_start_ms", Json::number(warm_start_ms))
                 .set("repartition_ms", Json::number(repartition_ms))
                 .set("speedup_vs_scratch_e2e", Json::number(speedup_e2e))
                 .set("cost_drift_pct", Json::number(drift_pct))
                 .set("eco_total", Json::number(eco->discrete_total))
                 .set("certified", Json::boolean(certified))
                 .set("certify_ms", Json::number(certify_ms));
  write_results_json("BENCH_eco", doc);

  if (!certified) {
    std::fprintf(stderr, "eco_bench: certification failed (%s): %s\n",
                 certify_verdict_name(cert.verdict), cert.message.c_str());
    return 1;
  }
  const double min_speedup = parser.get_double("min-speedup");
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "eco_bench: speedup %.2fx below bar %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  const double max_drift = parser.get_double("max-drift-pct");
  if (max_drift > 0.0 && drift_pct > max_drift) {
    std::fprintf(stderr, "eco_bench: cost drift %+.3f%% above bar %.3f%%\n",
                 drift_pct, max_drift);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sfqpart::bench

int main(int argc, char** argv) { return sfqpart::bench::run(argc, argv); }
