// Structured observability: the SolverObserver event interface.
//
// Every engine in the library (the gradient-descent Solver, the
// V-cycle driver, and the annealing / FM baselines) narrates a run as
// a stream of typed events through this interface: run start/end, restart
// start/end, one event per optimizer iteration with the full CostTerms,
// hardening, refine passes, V-cycle coarsening levels, plus named
// scoped timers and counters. Events are delivered serialized (the
// TraceSink holds a lock around each call), so observers need no internal
// synchronization; with several worker threads, events from concurrent
// restarts interleave, but the per-restart subsequence is deterministic
// for a fixed seed.
//
// Implementations: RunReport (obs/run_report.h) aggregates a run into a
// machine-readable JSON document; StreamTracer (obs/stream_tracer.h)
// prints a live line per event. The contract for the hot paths is in
// obs/trace_sink.h: with no observer attached, instrumentation costs one
// predictable branch and never takes a lock or reads a clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_model.h"

namespace sfqpart::obs {

// Snapshot of the configuration an engine runs with, emitted once at run
// start. Deliberately decoupled from SolverConfig so obs has no
// dependency on the facade header; engines fill what applies to them.
struct RunInfo {
  std::string engine = "solver";  // "solver" | "vcycle" | "annealing" | "fm_kway"
  int num_planes = 0;
  int restarts = 1;
  int threads = 1;  // effective worker threads
  std::uint64_t seed = 0;
  bool refine = false;
  CostWeights weights;
  GradientStyle gradient_style = GradientStyle::kAnalytic;
  // Optimizer knobs (zeroed for engines without a gradient loop).
  double learning_rate = 0.0;
  int max_iterations = 0;
  double margin = 0.0;
  bool normalize_step = false;
  // Problem shape.
  int problem_gates = 0;
  long long problem_edges = 0;
};

struct RestartStartEvent {
  int restart = 0;
};

// One optimizer iteration (or one annealing temperature step / FM pass,
// where `terms` carries only what the engine can attribute).
struct IterationEvent {
  int restart = 0;
  int iteration = 0;
  CostTerms terms;
  double cost = 0.0;  // weighted total
};

// Argmax hardening of a restart's converged soft assignment.
struct HardenEvent {
  int restart = 0;
  double discrete_total = 0.0;
};

// One greedy refinement pass of a restart.
struct RefinePassEvent {
  int restart = 0;
  int pass = 0;
  int moves = 0;
  double cost = 0.0;  // discrete weighted total after the pass
};

struct RestartEndEvent {
  int restart = 0;
  CostTerms soft_terms;
  CostTerms discrete_terms;
  double discrete_total = 0.0;
  int iterations = 0;
  bool converged = false;
};

// One V-cycle coarsening level. The shape fields (level, vertices,
// edges) are emitted while coarsening; the driver re-emits the
// same level index on the way back up with the refinement facts filled
// in. Aggregating consumers (obs::RunReport) merge the two by level
// index, so a level appears once in the report with both halves.
struct LevelEvent {
  int level = 0;
  int num_vertices = 0;
  long long num_edges = 0;
  // Per-level stage facts (0 when unknown or not applicable).
  double coarsen_ms = 0.0;      // wall time to build this level
  double refine_ms = 0.0;       // refinement wall time at this level
  double projected_cost = 0.0;  // discrete cost after label projection
  double refined_cost = 0.0;    // discrete cost after refinement
  int refine_moves = 0;
};

// A named scoped timer closed (restart < 0: run-scoped stage).
struct TimerEvent {
  const char* name = "";
  int restart = -1;
  double elapsed_ms = 0.0;
};

struct CounterEvent {
  const char* name = "";
  long long delta = 0;
};

struct RunEndEvent {
  int winning_restart = 0;
  double discrete_total = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Observer interface; every hook defaults to a no-op so implementations
// override only what they consume. Calls arrive serialized (see
// obs/trace_sink.h) but possibly from several threads over the run's
// lifetime — do not assume a single calling thread, only mutual
// exclusion.
class SolverObserver {
 public:
  virtual ~SolverObserver() = default;

  virtual void on_run_start(const RunInfo&) {}
  virtual void on_restart_start(const RestartStartEvent&) {}
  virtual void on_iteration(const IterationEvent&) {}
  virtual void on_harden(const HardenEvent&) {}
  virtual void on_refine_pass(const RefinePassEvent&) {}
  virtual void on_restart_end(const RestartEndEvent&) {}
  virtual void on_level(const LevelEvent&) {}
  virtual void on_timer(const TimerEvent&) {}
  virtual void on_counter(const CounterEvent&) {}
  virtual void on_run_end(const RunEndEvent&) {}
};

// Fans every event out to several observers, in registration order (e.g.
// the CLI attaches a StreamTracer and a RunReport at once). Does not own
// the observers.
class MulticastObserver final : public SolverObserver {
 public:
  void add(SolverObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  bool empty() const { return observers_.empty(); }

  void on_run_start(const RunInfo& e) override {
    for (SolverObserver* o : observers_) o->on_run_start(e);
  }
  void on_restart_start(const RestartStartEvent& e) override {
    for (SolverObserver* o : observers_) o->on_restart_start(e);
  }
  void on_iteration(const IterationEvent& e) override {
    for (SolverObserver* o : observers_) o->on_iteration(e);
  }
  void on_harden(const HardenEvent& e) override {
    for (SolverObserver* o : observers_) o->on_harden(e);
  }
  void on_refine_pass(const RefinePassEvent& e) override {
    for (SolverObserver* o : observers_) o->on_refine_pass(e);
  }
  void on_restart_end(const RestartEndEvent& e) override {
    for (SolverObserver* o : observers_) o->on_restart_end(e);
  }
  void on_level(const LevelEvent& e) override {
    for (SolverObserver* o : observers_) o->on_level(e);
  }
  void on_timer(const TimerEvent& e) override {
    for (SolverObserver* o : observers_) o->on_timer(e);
  }
  void on_counter(const CounterEvent& e) override {
    for (SolverObserver* o : observers_) o->on_counter(e);
  }
  void on_run_end(const RunEndEvent& e) override {
    for (SolverObserver* o : observers_) o->on_run_end(e);
  }

 private:
  std::vector<SolverObserver*> observers_;
};

}  // namespace sfqpart::obs
