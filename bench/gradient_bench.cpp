// Gradient hot-path throughput: eval-only and eval+gradient rates of the
// CostModel on the largest generated circuits, in two series per circuit:
//
//  * kernel tiers — pinned to one CPU, every SIMD tier this build+CPU
//    offers (scalar / avx2 / avx512) at 1 thread; `speedup_vs_scalar` of
//    the active tier is the same-session A/B the kernel layer is judged
//    on (cross-session absolute rates on this shared 1-core runner swing
//    with neighbor load and are NOT comparable), and for id8 the active
//    rate is also ratioed against the frozen pre-SIMD baseline. The
//    series also runs on the coarsest graph of a generated 10^5-gate
//    chip (`coarse_graph`): the Table I circuits have ~1.2 edges per
//    gate, where the edge pass is a minority of eval+grad, while the
//    V-cycle's coarse descent runs on ~16 weighted edges per vertex;
//  * thread series — unpinned 1/2/4/8-thread profile with an A/B against
//    the pre-CSR serial-scatter reference engine, with cpus_allowed /
//    pool_threads / hardware_threads provenance so a flat series on a
//    masked runner reads as saturation, not regression.
//
// Prints the tables, writes results/BENCH_gradient.json (the perf
// artifact future PRs are gated against: `speedup_vs_scatter` on the
// largest circuit at 8 threads must not regress below 1.5x), then runs
// the google-benchmark timers. The scatter reference is measured through
// the plain (workspace-allocating) overloads because that is exactly how
// the pre-CSR optimizer called it — fresh scratch every iteration.
//
// `--smoke` runs a short CI gate instead: c3540 only, brief windows, no
// JSON and no google-benchmark pass. It exits 1 when eval_grad_per_s at
// the max thread count falls below 0.9x the serial figure — the exact
// multi-thread inversion the fork-join executor erased (the 0.1 slack
// absorbs shared-runner noise, not the 0.78x regression the gate hunts).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench_util.h"
#include "core/coarsen.h"
#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "core/vcycle.h"
#include "gen/scaled.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfqpart::bench {
namespace {

constexpr std::uint64_t kSeed = 1;
constexpr int kPlanes = 5;
// Largest circuits of the generated suite (Table I order): the id8
// divider and the c3540-class random logic.
const char* const kCircuits[] = {"id8", "c3540"};

struct Workload {
  std::string circuit;
  PartitionProblem problem;
  Matrix w;
};

Workload make_workload(const std::string& circuit) {
  Workload load;
  load.circuit = circuit;
  const Netlist netlist = build_mapped(circuit);
  load.problem = PartitionProblem::from_netlist(netlist, kPlanes);
  Rng rng(kSeed);
  load.w = random_soft_assignment(load.problem.num_gates, kPlanes, rng);
  return load;
}

// The graph the V-cycle's coarse descent runs on: a generated 10^5-gate
// chip (Rent 0.65, as sfqbench's fullchip_100k), coarsened with the
// vcycle engine's default target, level cap and visit order.
Workload make_coarse_workload() {
  ScaledParams params;
  params.name = "scaled100k";
  params.num_gates = 100000;
  params.rent_exponent = 0.65;
  params.seed = kSeed;
  const PartitionProblem fine =
      PartitionProblem::from_netlist(build_scaled(params), kPlanes);
  const VcycleOptions vcycle;
  CoarsenOptions options;
  options.coarse_target = vcycle.coarse_target;
  options.max_levels = vcycle.max_levels;
  const LevelStack stack = build_level_stack(fine, options);
  Workload load;
  load.circuit = "scaled100k_coarsest";
  load.problem = stack.coarsest(fine);
  Rng rng(kSeed);
  load.w = random_soft_assignment(load.problem.num_gates, kPlanes, rng);
  return load;
}

// CPUs this process may run on (the pinned-profile provenance: a
// container or taskset mask below hardware_concurrency explains away a
// flat thread series).
int cpus_allowed() {
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return CPU_COUNT(&mask);
  }
#endif
  return ThreadPool::hardware_concurrency();
}

// Pins the calling (measurement) thread to the first allowed CPU for the
// single-thread series, so tier-vs-tier ratios are not polluted by
// migrations; restore_affinity undoes it before the multi-thread series.
#if defined(__linux__)
cpu_set_t saved_affinity_mask;
bool saved_affinity_valid = false;

void pin_to_first_cpu() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  saved_affinity_mask = mask;
  saved_affinity_valid = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

void restore_affinity() {
  if (saved_affinity_valid) {
    sched_setaffinity(0, sizeof(saved_affinity_mask), &saved_affinity_mask);
  }
}
#else
void pin_to_first_cpu() {}
void restore_affinity() {}
#endif

// Evals/second of `body` (which runs one evaluation) over one window of
// `window_s` seconds.
template <typename Body>
double one_window_per_s(const Body& body, double window_s = 0.2) {
  int evals = 0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{};
  do {
    body();
    ++evals;
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < window_s);
  return evals / elapsed.count();
}

// One thread-count measurement: five trials, each timing eval, gather and
// scatter in *adjacent* windows so a trial's gather/scatter pair sees the
// same machine conditions. Rates are best-of (scheduler noise on a shared
// box only ever biases a window low); the speedup is the median of the
// per-trial paired ratios, which is robust to the CPU-steal swings that
// make rates from windows seconds apart incomparable.
struct RatePoint {
  double eval = 0.0;
  double gather = 0.0;
  double scatter = 0.0;
  double ratio = 0.0;  // median over trials of (gather / scatter)
};

template <typename EvalBody, typename GatherBody, typename ScatterBody>
RatePoint measure_point(const EvalBody& eval_body,
                        const GatherBody& gather_body,
                        const ScatterBody& scatter_body) {
  RatePoint point;
  std::vector<double> ratios;
  for (int trial = 0; trial < 9; ++trial) {
    const double eval_rate = one_window_per_s(eval_body);
    const double gather_rate = one_window_per_s(gather_body);
    const double scatter_rate = one_window_per_s(scatter_body);
    point.eval = std::max(point.eval, eval_rate);
    point.gather = std::max(point.gather, gather_rate);
    point.scatter = std::max(point.scatter, scatter_rate);
    if (scatter_rate > 0.0) ratios.push_back(gather_rate / scatter_rate);
  }
  std::sort(ratios.begin(), ratios.end());
  if (!ratios.empty()) point.ratio = ratios[ratios.size() / 2];
  return point;
}

// Single-thread per-kernel-tier series (the tentpole's headline figure):
// eval and eval+grad rates of every tier this build+CPU offers, measured
// pinned to one CPU, plus the active/scalar ratio. The scalar tier is the
// pre-SIMD hot path verbatim (same source, same flags), so
// `speedup_vs_scalar` IS the SIMD speedup over the gather baseline.
Json bench_kernel_tiers(const Workload& load, double* speedup_out) {
  CostModel model(load.problem, CostWeights{});
  Matrix grad;
  CostModel::Workspace workspace;

  const simd::Tier ambient = simd::dispatch_info().active;
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (const simd::Tier t : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }

  pin_to_first_cpu();
  TablePrinter table({"kernel tier", "eval/s", "eval+grad/s", "vs scalar"});
  Json rows = Json::array();
  double scalar_rate = 0.0;
  double active_rate = 0.0;
  for (const simd::Tier tier : tiers) {
    simd::force_tier_for_testing(tier);
    double eval_rate = 0.0;
    double grad_rate = 0.0;
    for (int trial = 0; trial < 9; ++trial) {
      eval_rate = std::max(eval_rate, one_window_per_s([&] {
        ::benchmark::DoNotOptimize(model.evaluate(load.w, workspace).f1);
      }));
      grad_rate = std::max(grad_rate, one_window_per_s([&] {
        ::benchmark::DoNotOptimize(
            model.evaluate_with_gradient(load.w, grad, workspace).f1);
      }));
    }
    if (tier == simd::Tier::kScalar) scalar_rate = grad_rate;
    if (tier == ambient) active_rate = grad_rate;
    const double ratio = scalar_rate > 0.0 ? grad_rate / scalar_rate : 0.0;
    table.add_row({simd::tier_name(tier), str_format("%.0f", eval_rate),
                   str_format("%.0f", grad_rate),
                   str_format("%.2fx", ratio)});
    rows.append(Json::object()
                    .set("tier", Json::string(simd::tier_name(tier)))
                    .set("eval_per_s", Json::number(eval_rate))
                    .set("eval_grad_per_s", Json::number(grad_rate))
                    .set("speedup_vs_scalar", Json::number(ratio)));
  }
  simd::force_tier_for_testing(ambient);
  simd::reset_dispatch_for_testing();
  restore_affinity();

  const double speedup = scalar_rate > 0.0 ? active_rate / scalar_rate : 0.0;
  if (speedup_out != nullptr) *speedup_out = speedup;
  std::printf("== Kernel tiers: %s, 1 thread pinned (active: %s) ==\n",
              load.circuit.c_str(), simd::tier_name(ambient));
  table.print();
  std::printf("active-tier eval+grad speedup vs scalar: %.2fx\n", speedup);
  return Json::object()
      .set("active", Json::string(simd::tier_name(ambient)))
      .set("detected", Json::string(simd::tier_name(simd::dispatch_info().detected)))
      .set("pinned", Json::boolean(true))
      .set("tiers", std::move(rows))
      .set("active_eval_grad_per_s", Json::number(active_rate))
      .set("speedup_vs_scalar", Json::number(speedup));
}

// The last pre-SIMD commit's pinned single-thread gather figure on this
// runner (id8, 4315 gates, 5001 edges, K=5) — frozen so the kernel
// layer's before/after lives in one artifact. The scalar tier should sit
// near this number; the active tier's ratio against it is
// `speedup_vs_pre_simd`.
constexpr double kPreSimdId8EvalGradPerS = 14476.79;

Json bench_circuit(const Workload& load) {
  CostModel model(load.problem, CostWeights{});
  Matrix grad;
  CostModel::Workspace workspace;

  // Bit-identity A/B before timing anything: the gather engine must match
  // the scatter reference exactly, with and without a pool.
  Matrix gather_grad;
  Matrix scatter_grad;
  CostModel::Workspace check_ws;
  model.set_gradient_engine(GradientEngine::kCsrGather);
  const CostTerms gather_terms =
      model.evaluate_with_gradient(load.w, gather_grad, check_ws);
  model.set_gradient_engine(GradientEngine::kSerialScatter);
  const CostTerms scatter_terms =
      model.evaluate_with_gradient(load.w, scatter_grad, check_ws);
  model.set_gradient_engine(GradientEngine::kCsrGather);
  const bool identical = gather_grad == scatter_grad &&
                         gather_terms.f1 == scatter_terms.f1 &&
                         gather_terms.f2 == scatter_terms.f2 &&
                         gather_terms.f3 == scatter_terms.f3 &&
                         gather_terms.f4 == scatter_terms.f4;

  TablePrinter table({"path", "threads", "evals/s", "vs scatter@same"});
  Json runs = Json::array();
  double speedup = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    model.set_thread_pool(threads > 1 ? &pool : nullptr);

    const RatePoint point = measure_point(
        [&] {
          ::benchmark::DoNotOptimize(model.evaluate(load.w, workspace).f1);
        },
        [&] {
          model.set_gradient_engine(GradientEngine::kCsrGather);
          ::benchmark::DoNotOptimize(
              model.evaluate_with_gradient(load.w, grad, workspace).f1);
        },
        // Pre-CSR reference: serial scatter + separate passes, transient
        // workspace per call (what the optimizer loop used to do).
        [&] {
          model.set_gradient_engine(GradientEngine::kSerialScatter);
          ::benchmark::DoNotOptimize(
              model.evaluate_with_gradient(load.w, grad).f1);
        });
    model.set_gradient_engine(GradientEngine::kCsrGather);

    if (threads == 8) speedup = point.ratio;
    table.add_row({"eval", std::to_string(threads),
                   str_format("%.0f", point.eval), "-"});
    table.add_row({"eval+grad gather", std::to_string(threads),
                   str_format("%.0f", point.gather),
                   str_format("%.2fx", point.ratio)});
    table.add_row({"eval+grad scatter", std::to_string(threads),
                   str_format("%.0f", point.scatter), "1.00x"});
    // Per-run thread provenance: `threads` is the requested row label,
    // pool_threads the workers the pool actually spawned for it, and
    // hardware_threads the machine's concurrency — so an 8-thread row on
    // a 1-core runner is readable as oversubscription, not a typo.
    runs.append(Json::object()
                    .set("threads", Json::number(static_cast<long long>(threads)))
                    .set("pool_threads",
                         Json::number(static_cast<long long>(
                             threads > 1 ? pool.thread_count() : 1)))
                    .set("hardware_threads",
                         Json::number(static_cast<long long>(
                             ThreadPool::hardware_concurrency())))
                    .set("eval_per_s", Json::number(point.eval))
                    .set("eval_grad_per_s", Json::number(point.gather))
                    .set("eval_grad_scatter_per_s", Json::number(point.scatter))
                    .set("gather_vs_scatter", Json::number(point.ratio)));
  }
  model.set_thread_pool(nullptr);
  std::printf("== Gradient hot path: %s (%d gates, %zu edges, K=%d) ==\n",
              load.circuit.c_str(), load.problem.num_gates,
              load.problem.edges.size(), kPlanes);
  table.print();
  std::printf("gather identical to scatter: %s; 8-thread eval+grad speedup "
              "vs scatter: %.2fx\n",
              identical ? "yes" : "NO", speedup);

  return Json::object()
      .set("circuit", Json::string(load.circuit))
      .set("gates", Json::number(static_cast<long long>(load.problem.num_gates)))
      .set("edges",
           Json::number(static_cast<long long>(load.problem.edges.size())))
      .set("planes", Json::number(static_cast<long long>(kPlanes)))
      .set("identical_to_scatter", Json::boolean(identical))
      .set("speedup_vs_scatter", Json::number(speedup))
      .set("runs", std::move(runs));
}

// Frozen "before" figures: the last numbers the mutex/condvar FIFO pool
// (one heap-allocated std::function per chunk, full queue round-trip per
// reduction) produced on this repo's 1-core reference runner, kept in the
// artifact so the executor rebuild's before/after is one file.
Json fifo_baseline() {
  const auto run = [](long long threads, double eval, double gather,
                      double scatter) {
    return Json::object()
        .set("threads", Json::number(threads))
        .set("eval_per_s", Json::number(eval))
        .set("eval_grad_per_s", Json::number(gather))
        .set("eval_grad_scatter_per_s", Json::number(scatter));
  };
  return Json::object()
      .set("executor", Json::string("fifo_pool"))
      .set("hardware_threads", Json::number(1LL))
      .set("id8", Json::array()
                      .append(run(1, 23373.34306, 12551.28181, 7706.069019))
                      .append(run(8, 14834.76168, 9826.65982, 6517.530149)))
      .set("c3540", Json::array()
                        .append(run(1, 21688.89614, 10991.26176, 7024.465719))
                        .append(run(8, 14509.05415, 9241.808572, 6709.815849)));
}

void print_gradient_bench() {
  Json circuits = Json::array();
  for (const char* circuit : kCircuits) {
    const Workload load = make_workload(circuit);
    double tier_speedup = 0.0;
    Json kernels = bench_kernel_tiers(load, &tier_speedup);
    const Json* active = kernels.find("active_eval_grad_per_s");
    const double active_rate = active != nullptr ? active->as_number() : 0.0;
    if (load.circuit == "id8") {
      const double vs_pre_simd = active_rate / kPreSimdId8EvalGradPerS;
      std::printf("id8 1-thread eval+grad vs frozen pre-SIMD baseline "
                  "(%.0f/s): %.2fx\n",
                  kPreSimdId8EvalGradPerS, vs_pre_simd);
      kernels.set("pre_simd_eval_grad_per_s",
                  Json::number(kPreSimdId8EvalGradPerS));
      kernels.set("speedup_vs_pre_simd", Json::number(vs_pre_simd));
    }
    Json entry = bench_circuit(load);
    entry.set("kernels", std::move(kernels));
    circuits.append(std::move(entry));
  }
  const Workload coarse = make_coarse_workload();
  long long edge_weight = 0;
  for (std::size_t e = 0; e < coarse.problem.edges.size(); ++e) {
    edge_weight += coarse.problem.edge_weight(e);
  }
  Json coarse_graph =
      Json::object()
          .set("circuit", Json::string(coarse.circuit))
          .set("gates",
               Json::number(static_cast<long long>(coarse.problem.num_gates)))
          .set("edges", Json::number(static_cast<long long>(
                            coarse.problem.edges.size())))
          .set("total_edge_weight", Json::number(edge_weight))
          .set("planes", Json::number(static_cast<long long>(kPlanes)))
          .set("kernels", bench_kernel_tiers(coarse, nullptr));
  const Json doc =
      Json::object()
          .set("bench", Json::string("gradient"))
          .set("seed", Json::number(static_cast<long long>(kSeed)))
          .set("hardware_threads",
               Json::number(
                   static_cast<long long>(ThreadPool::hardware_concurrency())))
          .set("cpus_allowed",
               Json::number(static_cast<long long>(cpus_allowed())))
          .set("baseline_fifo", fifo_baseline())
          .set("circuits", std::move(circuits))
          .set("coarse_graph", std::move(coarse_graph));
  write_results_json("BENCH_gradient", doc);
}

// CI smoke gate: short gather-rate measurement at 1 thread and at the max
// bench thread count. Returns 0 when the multi-thread figure holds at or
// above 0.9x serial, 1 on the inversion.
int run_smoke() {
  const Workload load = make_workload("c3540");
  CostModel model(load.problem, CostWeights{});
  Matrix grad;
  CostModel::Workspace workspace;
  const auto gather_rate = [&] {
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      best = std::max(best, one_window_per_s(
                                [&] {
                                  ::benchmark::DoNotOptimize(
                                      model.evaluate_with_gradient(
                                               load.w, grad, workspace)
                                          .f1);
                                },
                                0.05));
    }
    return best;
  };

  const double serial = gather_rate();
  double threaded = 0.0;
  {
    ThreadPool pool(8);
    model.set_thread_pool(&pool);
    threaded = gather_rate();
    model.set_thread_pool(nullptr);
  }
  const bool ok = threaded >= 0.9 * serial;
  std::printf("smoke c3540 eval_grad_per_s: 1 thread %.0f, 8 threads %.0f "
              "(%.2fx) -> %s\n",
              serial, threaded, serial > 0.0 ? threaded / serial : 0.0,
              ok ? "OK" : "FAIL (multi-thread inversion)");
  return ok ? 0 : 1;
}

void BM_EvalGradient(::benchmark::State& state) {
  static const Workload load = make_workload("c3540");
  const int threads = static_cast<int>(state.range(0));
  CostModel model(load.problem, CostWeights{});
  ThreadPool pool(threads);
  if (threads > 1) model.set_thread_pool(&pool);
  Matrix grad;
  CostModel::Workspace workspace;
  for (auto _ : state) {
    ::benchmark::DoNotOptimize(
        model.evaluate_with_gradient(load.w, grad, workspace).f1);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_EvalGradient)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(::benchmark::kMicrosecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_EvalOnly(::benchmark::State& state) {
  static const Workload load = make_workload("c3540");
  CostModel model(load.problem, CostWeights{});
  CostModel::Workspace workspace;
  for (auto _ : state) {
    ::benchmark::DoNotOptimize(model.evaluate(load.w, workspace).f1);
  }
}
BENCHMARK(BM_EvalOnly)->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace sfqpart::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return sfqpart::bench::run_smoke();
    }
  }
  sfqpart::bench::print_gradient_bench();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
