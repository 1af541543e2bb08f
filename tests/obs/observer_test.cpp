// Observer event-stream contract: serialized delivery, deterministic
// per-restart subsequences at every thread count, engine-name rewriting on
// the registry path, and non-perturbation of the solver result.
#include "obs/observer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/solver.h"
#include "gen/suite.h"

namespace sfqpart {
namespace {

// Flat record of one event; `detail` disambiguates timers/counters by
// name. Timer durations are dropped on purpose: wall times are the one
// nondeterministic field of the stream.
struct Recorded {
  std::string type;
  std::string detail;
  int restart = -1;
  int iteration = -1;
  double cost = 0.0;
};

class Recorder final : public obs::SolverObserver {
 public:
  void on_run_start(const obs::RunInfo& info) override {
    infos.push_back(info);
    events.push_back({"run_start", info.engine, -1, -1, 0.0});
  }
  void on_restart_start(const obs::RestartStartEvent& e) override {
    events.push_back({"restart_start", "", e.restart, -1, 0.0});
  }
  void on_iteration(const obs::IterationEvent& e) override {
    events.push_back({"iteration", "", e.restart, e.iteration, e.cost});
  }
  void on_harden(const obs::HardenEvent& e) override {
    events.push_back({"harden", "", e.restart, -1, e.discrete_total});
  }
  void on_refine_pass(const obs::RefinePassEvent& e) override {
    events.push_back({"refine_pass", "", e.restart, e.pass, e.cost});
  }
  void on_restart_end(const obs::RestartEndEvent& e) override {
    events.push_back(
        {"restart_end", "", e.restart, e.iterations, e.discrete_total});
  }
  void on_level(const obs::LevelEvent& e) override {
    events.push_back({"level", "", -1, e.level,
                      static_cast<double>(e.num_vertices)});
  }
  void on_timer(const obs::TimerEvent& e) override {
    events.push_back({"timer", e.name, e.restart, -1, 0.0});
  }
  void on_counter(const obs::CounterEvent& e) override {
    events.push_back(
        {"counter", e.name, -1, -1, static_cast<double>(e.delta)});
  }
  void on_run_end(const obs::RunEndEvent& e) override {
    events.push_back(
        {"run_end", "", e.winning_restart, e.iterations, e.discrete_total});
  }

  // The subsequence of events tagged with `restart`, as comparable
  // strings (type/detail/iteration/cost — everything deterministic).
  std::vector<std::string> restart_sequence(int restart) const {
    std::vector<std::string> out;
    for (const Recorded& e : events) {
      if (e.restart != restart || e.type == "run_end") continue;
      out.push_back(e.type + ":" + e.detail + ":" +
                    std::to_string(e.iteration) + ":" + std::to_string(e.cost));
    }
    return out;
  }

  std::vector<Recorded> events;
  std::vector<obs::RunInfo> infos;
};

Recorder record_run(const Netlist& netlist, int threads, int restarts,
                    SolverResult* result = nullptr) {
  Recorder recorder;
  SolverConfig config;
  config.restarts = restarts;
  config.threads = threads;
  config.refine = true;
  config.observer = &recorder;
  auto solved = Solver(std::move(config)).run(netlist);
  EXPECT_TRUE(solved.is_ok()) << solved.status().message();
  if (result != nullptr && solved.is_ok()) *result = std::move(solved).value();
  return recorder;
}

TEST(Observer, LifecycleBracketsTheStream) {
  const Netlist netlist = build_mapped("ksa4");
  const Recorder recorder = record_run(netlist, 1, 2);

  ASSERT_FALSE(recorder.events.empty());
  EXPECT_EQ(recorder.events.front().type, "run_start");
  EXPECT_EQ(recorder.events.back().detail, "run");  // run-scoped timer
  // run_end precedes only the closing "run" timer.
  EXPECT_EQ(recorder.events[recorder.events.size() - 2].type, "run_end");

  ASSERT_EQ(recorder.infos.size(), 1u);
  EXPECT_EQ(recorder.infos[0].engine, "solver");
  EXPECT_EQ(recorder.infos[0].restarts, 2);
  EXPECT_EQ(recorder.infos[0].num_planes, 5);
  EXPECT_GT(recorder.infos[0].problem_gates, 0);
  EXPECT_GT(recorder.infos[0].problem_edges, 0);
}

TEST(Observer, RestartSubsequenceIsWellFormed) {
  const Netlist netlist = build_mapped("ksa4");
  const Recorder recorder = record_run(netlist, 1, 3);

  for (int r = 0; r < 3; ++r) {
    const auto seq = recorder.restart_sequence(r);
    ASSERT_GE(seq.size(), 3u) << "restart " << r;
    EXPECT_EQ(seq.front().substr(0, 13), "restart_start");
    EXPECT_EQ(seq.back().substr(0, 11), "restart_end");
    // Iterations arrive in order, before hardening.
    int last_iteration = -1;
    bool saw_harden = false;
    for (const Recorded& e : recorder.events) {
      if (e.restart != r) continue;
      if (e.type == "iteration") {
        EXPECT_FALSE(saw_harden);
        EXPECT_EQ(e.iteration, last_iteration + 1);
        last_iteration = e.iteration;
      }
      if (e.type == "harden") saw_harden = true;
    }
    EXPECT_TRUE(saw_harden);
    EXPECT_GE(last_iteration, 0);
  }
}

TEST(Observer, PerRestartSequencesIdenticalAcrossThreadCounts) {
  const Netlist netlist = build_mapped("ksa4");
  constexpr int kRestarts = 3;
  SolverResult serial_result;
  const Recorder serial = record_run(netlist, 1, kRestarts, &serial_result);
  for (const int threads : {2, 8}) {
    SolverResult threaded_result;
    const Recorder threaded =
        record_run(netlist, threads, kRestarts, &threaded_result);
    for (int r = 0; r < kRestarts; ++r) {
      EXPECT_EQ(serial.restart_sequence(r), threaded.restart_sequence(r))
          << "threads=" << threads << " restart=" << r;
    }
    // The observed result stays bit-identical too.
    EXPECT_EQ(serial_result.partition.plane_of,
              threaded_result.partition.plane_of);
    EXPECT_EQ(serial_result.discrete_total, threaded_result.discrete_total);
    EXPECT_EQ(serial_result.winning_restart, threaded_result.winning_restart);
  }
}

TEST(Observer, AttachingAnObserverDoesNotChangeTheResult) {
  const Netlist netlist = build_mapped("ksa8");
  SolverConfig plain;
  plain.restarts = 2;
  const auto unobserved = Solver(plain).run(netlist);
  ASSERT_TRUE(unobserved.is_ok());

  Recorder recorder;
  SolverConfig observed = plain;
  observed.observer = &recorder;
  const auto with_observer = Solver(std::move(observed)).run(netlist);
  ASSERT_TRUE(with_observer.is_ok());

  EXPECT_EQ(unobserved->partition.plane_of, with_observer->partition.plane_of);
  EXPECT_EQ(unobserved->discrete_total, with_observer->discrete_total);
  EXPECT_EQ(unobserved->winning_restart, with_observer->winning_restart);
}

// The registry rewrites the outermost RunInfo::engine to the registry
// name ("gradient") while forwarding the rest of the stream untouched;
// the direct Solver keeps its own "solver" tag.
TEST(Observer, RegistryRewritesRunInfoEngineName) {
  const Netlist netlist = build_mapped("ksa4");

  Recorder direct;
  SolverConfig config;
  config.restarts = 2;
  config.observer = &direct;
  ASSERT_TRUE(Solver(std::move(config)).run(netlist).is_ok());
  ASSERT_FALSE(direct.infos.empty());
  EXPECT_EQ(direct.infos[0].engine, "solver");

  Recorder via_registry;
  auto engine = EngineRegistry::create("gradient");
  ASSERT_TRUE(engine.is_ok()) << engine.status().message();
  EngineContext context;
  context.restarts = 2;
  context.observer = &via_registry;
  ASSERT_TRUE((*engine)->run(netlist, context).is_ok());
  ASSERT_FALSE(via_registry.infos.empty());
  EXPECT_EQ(via_registry.infos[0].engine, "gradient");

  // Only the name differs: the iteration subsequences are identical.
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(direct.restart_sequence(r), via_registry.restart_sequence(r));
  }
}

TEST(Observer, MulticastForwardsToEveryObserverInOrder) {
  Recorder first;
  Recorder second;
  obs::MulticastObserver multicast;
  EXPECT_TRUE(multicast.empty());
  multicast.add(&first);
  multicast.add(&second);
  multicast.add(nullptr);  // ignored
  EXPECT_FALSE(multicast.empty());

  multicast.on_run_start({});
  multicast.on_iteration({0, 7, CostTerms{}, 1.25});
  multicast.on_run_end({0, 1.25, 7, true});

  ASSERT_EQ(first.events.size(), 3u);
  ASSERT_EQ(second.events.size(), 3u);
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(first.events[i].type, second.events[i].type);
  }
  EXPECT_EQ(first.events[1].iteration, 7);
  EXPECT_EQ(first.events[1].cost, 1.25);
}

TEST(Observer, SolverErrorsEmitNoEvents) {
  const Netlist netlist = build_mapped("ksa4");
  Recorder recorder;
  SolverConfig bad;
  bad.restarts = 0;
  bad.observer = &recorder;
  EXPECT_FALSE(Solver(std::move(bad)).run(netlist).is_ok());
  // Validation fails before run_start: a report never sees a half-run.
  for (const Recorded& e : recorder.events) {
    EXPECT_NE(e.type, "run_start");
    EXPECT_NE(e.type, "iteration");
  }
}

TEST(Observer, MultilevelEmitsLevelsAndForwardsCoarseSolve) {
  const Netlist netlist = build_mapped("ksa16");
  Recorder recorder;
  const auto engine = EngineRegistry::create("multilevel");
  ASSERT_TRUE(engine.is_ok());
  EngineContext context;
  context.num_planes = 4;
  context.certify = false;  // its counters would follow run_end
  context.observer = &recorder;
  const auto run = (*engine)->run(netlist, context);
  ASSERT_TRUE(run.is_ok()) << run.status().message();
  const int result_levels = static_cast<int>(run->counter("levels"));
  EXPECT_GT(result_levels, 0);

  int levels = 0;
  for (const Recorded& e : recorder.events) {
    if (e.type == "level") ++levels;
  }
  // Down: the finest level 0 + each coarsening; up: each refined level.
  EXPECT_EQ(levels, 2 * result_levels + 1);
  // The outer drive announces itself first, then the coarse Solver
  // (which inherits the observer) nests its own run inside.
  ASSERT_EQ(recorder.infos.size(), 2u);
  EXPECT_EQ(recorder.infos[0].engine, "multilevel");
  EXPECT_EQ(recorder.infos[1].engine, "solver");
  EXPECT_EQ(recorder.events.front().type, "run_start");
  EXPECT_EQ(recorder.events.back().type, "run_end");
}

// The baselines narrate their own runs through the registry; certify is
// off so the engine's stage timer is the stream's last event.
StatusOr<EngineRun> run_observed(const char* name, const Netlist& netlist,
                                 obs::SolverObserver* observer) {
  auto engine = EngineRegistry::create(name);
  if (!engine) return engine.status();
  EngineContext context;
  context.num_planes = 3;
  context.certify = false;
  context.observer = observer;
  return (*engine)->run(netlist, context);
}

TEST(Observer, AnnealingEmitsLifecycleAndMoveCounters) {
  const Netlist netlist = build_mapped("ksa4");
  Recorder recorder;
  const auto result = run_observed("annealing", netlist, &recorder);
  ASSERT_TRUE(result.is_ok()) << result.status().message();

  ASSERT_EQ(recorder.infos.size(), 1u);
  EXPECT_EQ(recorder.infos[0].engine, "annealing");
  long long tried = -1;
  int iterations = 0;
  for (const Recorded& e : recorder.events) {
    if (e.type == "counter" && e.detail == "moves_tried") {
      tried = static_cast<long long>(e.cost);
    }
    if (e.type == "iteration") ++iterations;
  }
  EXPECT_GT(tried, 0);
  EXPECT_GT(iterations, 0);
  EXPECT_EQ(tried, static_cast<long long>(result->counter("moves_tried")));
  EXPECT_EQ(iterations, result->counter("steps"));
  EXPECT_EQ(recorder.events.back().detail, "anneal");  // scoped timer closes last
}

TEST(Observer, FmKwayEmitsLifecycleAndMoveCounters) {
  const Netlist netlist = build_mapped("ksa4");
  Recorder recorder;
  const auto result = run_observed("fm_kway", netlist, &recorder);
  ASSERT_TRUE(result.is_ok()) << result.status().message();

  ASSERT_EQ(recorder.infos.size(), 1u);
  EXPECT_EQ(recorder.infos[0].engine, "fm_kway");
  double final_cost = -1.0;
  int iterations = 0;
  for (const Recorded& e : recorder.events) {
    if (e.type == "iteration") {
      final_cost = e.cost;
      ++iterations;
    }
  }
  EXPECT_EQ(final_cost, result->counter("final_cut"));
  EXPECT_EQ(iterations, result->counter("passes"));
}

}  // namespace
}  // namespace sfqpart
