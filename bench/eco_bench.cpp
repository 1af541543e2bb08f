// ECO bench: measures the incremental re-partition path against a
// scratch V-cycle on a mutated scaled netlist, and writes
// results/BENCH_eco.json.
//
// Protocol (core/delta.h): build a scaled netlist, partition it cold
// with the vcycle engine, mutate ~1% of the gates (gen/mutate.h), build
// the warm start from the parent partition, and run engine "eco" with
// compare_scratch so the engine itself times the scratch re-solve it is
// replacing. The run fails (exit 1) unless the eco result certifies and
// meets the --min-speedup / --max-drift-pct bars, which is what the CI
// eco-smoke job leans on.
//
// `speedup_vs_scratch` (and the bars) divide by the engine's inner
// `eco_ms`: placement plus restricted refinement only. What a caller
// pays end to end is reported beside it: `diff_ms` (compute_delta),
// `warm_start_ms` (warm_start_from) and `repartition_ms`, one separately
// timed repartition() call without compare_scratch — diff, warm start,
// problem build and engine — whose labels must equal the compare run's;
// `speedup_vs_scratch_e2e` = scratch_ms / repartition_ms.
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
  const int num_planes = static_cast<int>(parser.get_int("planes"));
  const int threads = static_cast<int>(parser.get_int("threads"));
  const std::uint64_t seed = parser.get_int("seed") < 1
                                 ? 1
                                 : static_cast<std::uint64_t>(
                                       parser.get_int("seed"));

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
  parent_options.threads = threads;
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

  auto engine = EngineRegistry::create("eco");
  if (!engine) {
    std::fprintf(stderr, "eco_bench: %s\n", engine.status().message().c_str());
    return 1;
  }
  EngineContext context;
  context.num_planes = num_planes;
  context.seed = seed;
  context.threads = threads;
  context.halo = static_cast<int>(parser.get_int("halo"));
  context.compare_scratch = true;
  context.warm_start = &warm;
  auto eco = (*engine)->run(after, context);
  if (!eco) {
    std::fprintf(stderr, "eco_bench: %s\n", eco.status().message().c_str());
    return 1;
  }

  // The same ECO as one public call, timed end to end.
  EngineContext e2e_context = context;
  e2e_context.compare_scratch = false;
  StatusOr<EngineRun> e2e = Status::error("not run");
  double repartition_ms = 0.0;
  {
    const Netlist revised = revision();
    repartition_ms = time_ms([&] {
      e2e = repartition(before, parent.partition, revised, e2e_context);
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
  // engine result (no constraints in this bench).
  CertifyExpectation expect;
  expect.terms = eco->discrete_terms;
  expect.total = eco->discrete_total;
  const CertifyReport cert = certify_partition(
      after, eco->partition, num_planes, context.weights, &expect, nullptr);
  const bool certified = cert.valid();

  const double eco_ms = eco->counter("eco_ms");
  const double scratch_ms = eco->counter("scratch_ms");
  const double speedup = eco->counter("speedup_vs_scratch");
  const double drift_pct = eco->counter("cost_drift_pct");
  const double speedup_e2e =
      repartition_ms > 0.0 ? scratch_ms / repartition_ms : 0.0;
  std::printf("[eco] %.0f ms vs scratch %.0f ms: %.1fx, drift %+.3f%%, "
              "certified=%s\n",
              eco_ms, scratch_ms, speedup, drift_pct,
              certified ? "yes" : "no");
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
                 .set("certified", Json::boolean(certified));
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
