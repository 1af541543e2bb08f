// Capacity bench for the vcycle engine: partitions scaled synthetic
// netlists (gen/scaled.h) at 10^5..10^6+ gates and records throughput
// (gates/sec), the stage breakdown of the solve's wall time (problem
// build, coarsen, coarse solve, uncoarsen and the remainder), per-level
// wall time, one certification of the result (`certify_ms`, outside the
// solve's wall time), the netlist's heap bytes by part, and peak RSS
// into results/BENCH_capacity.json.
//
// Unlike the paper-table benches this is a plain main(): a million-gate
// run is far too slow to repeat under the google-benchmark harness, and
// the artifact of interest is the structured JSON, not a timer loop.
//
// Flags:
//   --sizes 100000,1000000   comma-separated gate targets
//   --planes 5 --threads 0 --seed 1
//   --verbose-levels         embed the full RunReport (per-iteration
//                            curves, per-restart samples) per run; the
//                            default emits a compact per-level summary
//                            so the artifact stays a few hundred lines
//   --smoke                  single 10^5 run + validity/budget asserts
//                            (advisory CI: .github/workflows/ci.yml)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/certify.h"
#include "core/problem_view.h"
#include "core/vcycle.h"
#include "obs/run_report.h"
#include "gen/scaled.h"
#include "util/mem.h"
#include "util/options.h"

namespace sfqpart::bench {
namespace {

// The 10^6-gate banded run with the previous coarsener (parallel coarse
// edges kept with multiplicity, heavy-edge matching only), measured by
// this bench with --threads 1, Release, gcc 12.2, on the 4-vCPU Intel
// Xeon VM that recorded the current artifact. Frozen so the coarsening
// fix's before/after lives in one artifact.
constexpr long long kBefore1MTarget = 1000000;
constexpr double kBefore1MSolveMs = 6786.29;
constexpr double kBefore1MCoarseSolveMs = 3799.62;
constexpr long long kBefore1MCoarseGates = 27756;
constexpr long long kBefore1MCoarseEdges = 345044;

int run(int argc, char** argv) {
  OptionsParser parser(
      "capacity_bench: vcycle engine capacity runs on scaled synthetic\n"
      "netlists; writes results/BENCH_capacity.json.");
  parser.add_string("sizes", "100000,1000000",
                    "comma-separated target gate counts");
  parser.add_int("planes", 5, "ground planes K");
  parser.add_int("threads", 0, "worker threads (0 = all hardware threads)");
  parser.add_int("seed", 1, "generator and solver seed");
  parser.add_double("rent", 0.65, "Rent exponent of the generated netlists");
  parser.add_flag("verbose-levels", false,
                  "embed the full per-iteration RunReport in each run "
                  "(default: compact per-level summary only)");
  parser.add_flag("smoke", false,
                  "single 10^5-gate run with validity + wall-budget asserts");
  parser.add_int("smoke-budget-sec", 120, "wall budget for --smoke");
  parser.add_flag("help", false, "print usage");
  if (auto st = parser.parse(argc - 1, argv + 1); !st) {
    std::fprintf(stderr, "capacity_bench: %s\n%s", st.message().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (parser.get_flag("help")) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }

  const bool smoke = parser.get_flag("smoke");
  const int num_planes = static_cast<int>(parser.get_int("planes"));
  std::vector<long long> sizes;
  if (smoke) {
    sizes.push_back(100000);
  } else {
    for (const std::string& field :
         split(parser.get_string("sizes"), ",")) {
      sizes.push_back(std::atoll(field.c_str()));
    }
  }

  // A/B: every size runs once per uncoarsening refinement flavor, so the
  // artifact carries the banded-vs-buckets cost/throughput trade-off.
  struct StyleCase {
    VcycleRefineStyle style;
    const char* name;
  };
  const StyleCase styles[] = {{VcycleRefineStyle::kBanded, "banded"},
                              {VcycleRefineStyle::kBuckets, "buckets"}};

  Json runs = Json::array();
  for (const long long size : sizes) {
    using Clock = std::chrono::steady_clock;

    ScaledParams params;
    params.name = "scaled" + std::to_string(size);
    params.num_gates = static_cast<int>(size);
    params.rent_exponent = parser.get_double("rent");
    params.seed = parser.get_int("seed") < 1
                      ? 1
                      : static_cast<std::uint64_t>(parser.get_int("seed"));

    for (const StyleCase& flavor : styles) {
      // A fresh netlist per flavor: its memoized edge set is not built
      // yet, so both flavors' problem_ms include the edge build.
      const auto gen_start = Clock::now();
      const Netlist netlist = build_scaled(params);
      const double gen_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - gen_start)
              .count();
      const int partitionable = netlist.num_partitionable_gates();

      obs::RunReport report;
      VcycleOptions options;
      options.seed = params.seed;
      options.threads = static_cast<int>(parser.get_int("threads"));
      options.observer = &report;
      options.refine_style = flavor.style;
      // The solve starts from the netlist: compact it and build the view
      // first, timed as a stage of its own, then run the V-cycle on them.
      const auto solve_start = Clock::now();
      const PartitionProblem problem =
          PartitionProblem::from_netlist(netlist, num_planes);
      const ProblemView view(problem);
      const double problem_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - solve_start)
              .count();
      const VcycleResult result =
          vcycle_partition(view, netlist.num_gates(), options);
      const double solve_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - solve_start)
              .count();

      const double gates_per_sec =
          solve_ms > 0.0 ? partitionable / (solve_ms / 1000.0) : 0.0;
      const double rss_mb = peak_rss_mb();
      const NetlistBytes bytes = netlist.storage_bytes();
      std::printf(
          "%-14s %-8s G=%-9d levels=%-3d gen=%8.1f ms  solve=%9.1f ms  "
          "%10.0f gates/s  cost=%.6f  peak_rss=%.0f MB  netlist=%.1f MB "
          "(%.0f B/gate)\n",
          params.name.c_str(), flavor.name, partitionable, result.levels,
          gen_ms, solve_ms, gates_per_sec, result.discrete_total, rss_mb,
          static_cast<double>(bytes.total()) / (1024.0 * 1024.0),
          static_cast<double>(bytes.total()) / netlist.num_gates());

      // One certification of the result (core/certify.h), timed apart
      // from the solve: the independent re-derivation every served
      // result pays. It also fails the bench (exit 1) unless the
      // partition is valid: every partitionable gate on a plane in
      // [0, K), every interface gate left on the shared ground plane.
      const auto certify_start = Clock::now();
      const CertifyReport cert = certify_partition(
          netlist, result.partition, num_planes, options.coarse.weights);
      const double certify_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    certify_start)
              .count();
      if (!cert.valid()) {
        std::fprintf(stderr, "capacity_bench: certification failed (%s): %s\n",
                     certify_verdict_name(cert.verdict), cert.message.c_str());
        return 1;
      }
      std::printf("%-14s %-8s certify=%.1f ms\n", params.name.c_str(),
                  flavor.name, certify_ms);
      if (smoke && solve_ms / 1000.0 >
                       static_cast<double>(parser.get_int("smoke-budget-sec"))) {
        std::fprintf(stderr,
                     "capacity_bench: smoke run took %.1f s (budget %lld s)\n",
                     solve_ms / 1000.0, parser.get_int("smoke-budget-sec"));
        return 1;
      }

      // Default: a compact per-level summary (vertex/edge counts and
      // stage wall times — one line per level). The full RunReport with
      // per-iteration curves made the artifact ~25k lines; it is still
      // available behind --verbose-levels for deep dives.
      Json doc;
      if (parser.get_flag("verbose-levels")) {
        doc = report.to_json();
      } else {
        Json levels = Json::array();
        for (const obs::LevelEvent& level : report.levels()) {
          levels.append(
              Json::object()
                  .set("level", Json::number(static_cast<long long>(level.level)))
                  .set("vertices",
                       Json::number(static_cast<long long>(level.num_vertices)))
                  .set("edges", Json::number(level.num_edges))
                  .set("coarsen_ms", Json::number(level.coarsen_ms))
                  .set("refine_ms", Json::number(level.refine_ms))
                  .set("refine_moves",
                       Json::number(static_cast<long long>(level.refine_moves))));
        }
        doc = Json::object().set("levels", std::move(levels));
      }
      // The stage breakdown of the solve's wall time, netlist to
      // partition. The report's "run" stage is the nested coarse Solver's
      // timer, not the whole solve, so the wall time is taken around the
      // problem build and vcycle_partition, and the remainder is reported
      // explicitly.
      const double coarsen_ms = report.stage_ms("coarsen");
      const double coarse_solve_ms = report.stage_ms("coarse_solve");
      const double uncoarsen_ms = report.stage_ms("uncoarsen");
      Json stages =
          Json::object()
              .set("wall_ms", Json::number(solve_ms))
              .set("problem_ms", Json::number(problem_ms))
              .set("coarsen_ms", Json::number(coarsen_ms))
              .set("coarse_solve_ms", Json::number(coarse_solve_ms))
              .set("uncoarsen_ms", Json::number(uncoarsen_ms))
              .set("unattributed_ms",
                   Json::number(solve_ms - problem_ms - coarsen_ms -
                                coarse_solve_ms - uncoarsen_ms));
      const obs::LevelEvent* coarsest = nullptr;
      for (const obs::LevelEvent& level : report.levels()) {
        if (level.level == result.levels) coarsest = &level;
      }
      const long long coarse_edges =
          coarsest != nullptr ? coarsest->num_edges : 0;
      Json run = Json::object();
      run.set("target_gates", Json::number(size))
          .set("refine_style", Json::string(flavor.name))
          .set("gates", Json::number(static_cast<long long>(partitionable)))
          .set("edges", Json::number(
                            static_cast<long long>(netlist.unique_edges().size())))
          .set("planes", Json::number(static_cast<long long>(num_planes)))
          .set("levels", Json::number(static_cast<long long>(result.levels)))
          .set("coarse_gates",
               Json::number(static_cast<long long>(result.coarse_gates)))
          .set("coarse_edges", Json::number(coarse_edges))
          .set("refine_moves", Json::number(result.refine_moves))
          .set("discrete_total", Json::number(result.discrete_total))
          .set("gen_ms", Json::number(gen_ms))
          .set("solve_ms", Json::number(solve_ms))
          .set("gates_per_sec", Json::number(gates_per_sec))
          .set("peak_rss_mb", Json::number(rss_mb))
          .set("name_table_bytes",
               Json::number(static_cast<long long>(
                   netlist.name_table_bytes())))
          .set("name_index_bytes",
               Json::number(static_cast<long long>(
                   netlist.name_index_bytes())))
          // What the old unordered_map<string_view, GateId>
          // index cost for the same gate count (measured
          // libstdc++ node 56 B + bucket pointer 8 B per
          // entry), so the artifact carries the diet's delta.
          .set("name_index_map_bytes_before",
               Json::number(static_cast<long long>(
                   static_cast<std::size_t>(netlist.num_gates()) *
                   64)))
          // The netlist's heap bytes by part, after the solve (so the
          // unique_edges() memo is built): DESIGN.md section 15.6.
          .set("netlist_bytes",
               Json::object()
                   .set("gates", Json::number(static_cast<long long>(bytes.gates)))
                   .set("nets", Json::number(static_cast<long long>(bytes.nets)))
                   .set("sinks", Json::number(static_cast<long long>(bytes.sinks)))
                   .set("pin_maps",
                        Json::number(static_cast<long long>(bytes.pin_maps)))
                   .set("names", Json::number(static_cast<long long>(bytes.names)))
                   .set("edges", Json::number(static_cast<long long>(bytes.edges)))
                   .set("total", Json::number(static_cast<long long>(bytes.total())))
                   .set("per_gate",
                        Json::number(static_cast<double>(bytes.total()) /
                                     netlist.num_gates())))
          .set("stages", std::move(stages))
          .set("certify_ms", Json::number(certify_ms))
          .set("report", std::move(doc));
      if (size == kBefore1MTarget &&
          flavor.style == VcycleRefineStyle::kBanded) {
        run.set(
            "before",
            Json::object()
                .set("solve_ms", Json::number(kBefore1MSolveMs))
                .set("coarse_solve_ms", Json::number(kBefore1MCoarseSolveMs))
                .set("coarse_gates", Json::number(kBefore1MCoarseGates))
                .set("coarse_edges", Json::number(kBefore1MCoarseEdges))
                .set("solve_speedup", Json::number(kBefore1MSolveMs / solve_ms)));
      }
      runs.append(std::move(run));
    }
  }

  write_results_json("BENCH_capacity",
                     Json::object()
                         .set("bench", Json::string("capacity"))
                         .set("engine", Json::string("vcycle"))
                         .set("threads", Json::number(parser.get_int("threads")))
                         .set("runs", std::move(runs)));
  return 0;
}

}  // namespace
}  // namespace sfqpart::bench

int main(int argc, char** argv) { return sfqpart::bench::run(argc, argv); }
