// RunReport — aggregates one run's event stream into a machine-readable
// report.
//
// Attach a RunReport as the observer of any engine
// (EngineContext::observer, SolverConfig::observer,
// VcycleOptions::observer) and it collects the config snapshot, one
// convergence curve per restart (iteration, weighted cost, full
// CostTerms), per-stage wall-time totals, counters, V-cycle levels and
// the final outcome. Callers add what the engine cannot know — the
// circuit identity and the evaluated PartitionMetrics — then serialize
// with to_json() / write_file(). The JSON schema
// ("sfqpart.run_report.v2") is documented in DESIGN.md section 8 and
// self-checked by tests/obs/run_report_test.cpp round-tripping through
// Json::parse.
//
// Thread safety: observer hooks are invoked under the TraceSink's lock;
// the aggregation state needs no lock of its own. Accessors assume the
// run has finished.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "metrics/partition_metrics.h"
#include "obs/observer.h"
#include "util/json.h"

namespace sfqpart::obs {

class RunReport final : public SolverObserver {
 public:
  struct IterationSample {
    int iteration = 0;
    double cost = 0.0;
    CostTerms terms;
  };

  struct RestartCurve {
    bool started = false;
    bool finished = false;
    std::vector<IterationSample> samples;
    CostTerms soft_terms;
    CostTerms discrete_terms;
    double harden_total = 0.0;  // discrete total straight after argmax
    double discrete_total = 0.0;
    int iterations = 0;
    int refine_passes = 0;
    int refine_moves = 0;
    bool converged = false;
  };

  struct Stage {
    double total_ms = 0.0;
    long long count = 0;
  };

  // SolverObserver hooks. A nested engine (e.g. the coarse Solver inside
  // the V-cycle driver) re-emits on_run_start; the first RunInfo wins
  // so the report describes the outermost engine.
  void on_run_start(const RunInfo& info) override;
  void on_restart_start(const RestartStartEvent& e) override;
  void on_iteration(const IterationEvent& e) override;
  void on_harden(const HardenEvent& e) override;
  void on_refine_pass(const RefinePassEvent& e) override;
  void on_restart_end(const RestartEndEvent& e) override;
  void on_level(const LevelEvent& e) override;
  void on_timer(const TimerEvent& e) override;
  void on_counter(const CounterEvent& e) override;
  void on_run_end(const RunEndEvent& e) override;

  // Context the engines cannot provide.
  void set_circuit(std::string name, int gates, int connections);
  void set_metrics(const PartitionMetrics& metrics);

  // Accessors (post-run).
  bool has_run() const { return has_info_; }
  const RunInfo& info() const { return info_; }
  const std::vector<RestartCurve>& restarts() const { return restarts_; }
  const std::vector<LevelEvent>& levels() const { return levels_; }
  const RunEndEvent& result() const { return end_; }
  // Total wall-clock of a named stage (summed across restarts); 0 when
  // the stage never closed a timer. "run" covers the whole solve.
  double stage_ms(const std::string& name) const;
  long long counter(const std::string& name) const;

  // Serialization ("sfqpart.run_report.v2").
  Json to_json() const;
  Status write_file(const std::string& path, int indent = 2) const;

 private:
  RestartCurve& curve(int restart);

  RunInfo info_;
  bool has_info_ = false;
  std::string circuit_;
  int circuit_gates_ = 0;
  int circuit_connections_ = 0;
  std::vector<RestartCurve> restarts_;
  std::vector<LevelEvent> levels_;
  // Insertion-ordered (name, stage) pairs: deterministic serialization
  // without pulling in std::map ordering surprises for duplicate names.
  std::vector<std::pair<std::string, Stage>> stages_;
  std::vector<std::pair<std::string, long long>> counters_;
  RunEndEvent end_;
  bool has_end_ = false;
  std::optional<PartitionMetrics> metrics_;
};

}  // namespace sfqpart::obs
