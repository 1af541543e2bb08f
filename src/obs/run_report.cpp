#include "obs/run_report.h"

#include <fstream>
#include <utility>

namespace sfqpart::obs {
namespace {

Json terms_json(const CostTerms& terms) {
  return Json::object()
      .set("f1", Json::number(terms.f1))
      .set("f2", Json::number(terms.f2))
      .set("f3", Json::number(terms.f3))
      .set("f4", Json::number(terms.f4));
}

const char* gradient_style_name(GradientStyle style) {
  return style == GradientStyle::kPaperEq10 ? "paper_eq10" : "analytic";
}

}  // namespace

RunReport::RestartCurve& RunReport::curve(int restart) {
  const auto index = static_cast<std::size_t>(restart < 0 ? 0 : restart);
  if (index >= restarts_.size()) restarts_.resize(index + 1);
  return restarts_[index];
}

void RunReport::on_run_start(const RunInfo& info) {
  if (has_info_) return;  // outermost engine wins (nested coarse solves)
  info_ = info;
  has_info_ = true;
  if (info.restarts > 0) restarts_.reserve(static_cast<std::size_t>(info.restarts));
}

void RunReport::on_restart_start(const RestartStartEvent& e) {
  curve(e.restart).started = true;
}

void RunReport::on_iteration(const IterationEvent& e) {
  curve(e.restart).samples.push_back({e.iteration, e.cost, e.terms});
}

void RunReport::on_harden(const HardenEvent& e) {
  curve(e.restart).harden_total = e.discrete_total;
}

void RunReport::on_refine_pass(const RefinePassEvent& e) {
  RestartCurve& c = curve(e.restart);
  c.refine_passes = e.pass + 1;
  c.refine_moves += e.moves;
}

void RunReport::on_restart_end(const RestartEndEvent& e) {
  RestartCurve& c = curve(e.restart);
  c.finished = true;
  c.soft_terms = e.soft_terms;
  c.discrete_terms = e.discrete_terms;
  c.discrete_total = e.discrete_total;
  c.iterations = e.iterations;
  c.converged = e.converged;
}

void RunReport::on_level(const LevelEvent& e) {
  // A V-cycle emits each level twice: shape + coarsen_ms on the way
  // down, refinement facts on the way up. Merge by level index so the
  // report carries one entry per level with both halves; nonzero fields
  // of the later event win.
  for (LevelEvent& existing : levels_) {
    if (existing.level != e.level) continue;
    if (e.num_vertices != 0) existing.num_vertices = e.num_vertices;
    if (e.num_edges != 0) existing.num_edges = e.num_edges;
    if (e.coarsen_ms != 0.0) existing.coarsen_ms = e.coarsen_ms;
    if (e.refine_ms != 0.0) existing.refine_ms = e.refine_ms;
    if (e.projected_cost != 0.0) existing.projected_cost = e.projected_cost;
    if (e.refined_cost != 0.0) existing.refined_cost = e.refined_cost;
    if (e.refine_moves != 0) existing.refine_moves = e.refine_moves;
    return;
  }
  levels_.push_back(e);
}

void RunReport::on_timer(const TimerEvent& e) {
  for (auto& [name, stage] : stages_) {
    if (name == e.name) {
      stage.total_ms += e.elapsed_ms;
      ++stage.count;
      return;
    }
  }
  stages_.emplace_back(e.name, Stage{e.elapsed_ms, 1});
}

void RunReport::on_counter(const CounterEvent& e) {
  for (auto& [name, value] : counters_) {
    if (name == e.name) {
      value += e.delta;
      return;
    }
  }
  counters_.emplace_back(e.name, e.delta);
}

void RunReport::on_run_end(const RunEndEvent& e) {
  // Keep the outermost outcome, mirroring on_run_start: a nested engine
  // finishing must not overwrite the final result of the outer one, so
  // the last run_end (the outer engine closes after its children) wins.
  end_ = e;
  has_end_ = true;
}

void RunReport::set_circuit(std::string name, int gates, int connections) {
  circuit_ = std::move(name);
  circuit_gates_ = gates;
  circuit_connections_ = connections;
}

void RunReport::set_metrics(const PartitionMetrics& metrics) { metrics_ = metrics; }

double RunReport::stage_ms(const std::string& name) const {
  for (const auto& [stage_name, stage] : stages_) {
    if (stage_name == name) return stage.total_ms;
  }
  return 0.0;
}

long long RunReport::counter(const std::string& name) const {
  for (const auto& [counter_name, value] : counters_) {
    if (counter_name == name) return value;
  }
  return 0;
}

Json RunReport::to_json() const {
  Json doc = Json::object();
  // v2 = v1 plus the structured per-level entries (ratio, stage wall
  // times, refinement facts); every v1 field is unchanged, so v1
  // consumers keep working on v2 documents.
  doc.set("schema", Json::string("sfqpart.run_report.v2"));
  doc.set("engine", Json::string(info_.engine));

  if (!circuit_.empty()) {
    doc.set("circuit",
            Json::object()
                .set("name", Json::string(circuit_))
                .set("gates", Json::number(static_cast<long long>(circuit_gates_)))
                .set("connections",
                     Json::number(static_cast<long long>(circuit_connections_))));
  }

  doc.set("config",
          Json::object()
              .set("num_planes", Json::number(static_cast<long long>(info_.num_planes)))
              .set("restarts", Json::number(static_cast<long long>(info_.restarts)))
              .set("threads", Json::number(static_cast<long long>(info_.threads)))
              .set("seed", Json::number(static_cast<long long>(info_.seed)))
              .set("refine", Json::boolean(info_.refine))
              .set("gradient_style",
                   Json::string(gradient_style_name(info_.gradient_style)))
              .set("weights",
                   Json::object()
                       .set("c1", Json::number(info_.weights.c1))
                       .set("c2", Json::number(info_.weights.c2))
                       .set("c3", Json::number(info_.weights.c3))
                       .set("c4", Json::number(info_.weights.c4))
                       .set("distance_exponent",
                            Json::number(static_cast<long long>(
                                info_.weights.distance_exponent))))
              .set("optimizer",
                   Json::object()
                       .set("learning_rate", Json::number(info_.learning_rate))
                       .set("max_iterations",
                            Json::number(static_cast<long long>(info_.max_iterations)))
                       .set("margin", Json::number(info_.margin))
                       .set("normalize_step", Json::boolean(info_.normalize_step)))
              .set("problem",
                   Json::object()
                       .set("gates",
                            Json::number(static_cast<long long>(info_.problem_gates)))
                       .set("edges", Json::number(info_.problem_edges))));

  Json restarts = Json::array();
  for (std::size_t r = 0; r < restarts_.size(); ++r) {
    const RestartCurve& c = restarts_[r];
    Json samples = Json::array();
    for (const IterationSample& s : c.samples) {
      samples.append(Json::object()
                         .set("iteration", Json::number(static_cast<long long>(s.iteration)))
                         .set("cost", Json::number(s.cost))
                         .set("f1", Json::number(s.terms.f1))
                         .set("f2", Json::number(s.terms.f2))
                         .set("f3", Json::number(s.terms.f3))
                         .set("f4", Json::number(s.terms.f4)));
    }
    restarts.append(Json::object()
                        .set("restart", Json::number(static_cast<long long>(r)))
                        .set("iterations", Json::number(static_cast<long long>(c.iterations)))
                        .set("converged", Json::boolean(c.converged))
                        .set("harden_total", Json::number(c.harden_total))
                        .set("discrete_total", Json::number(c.discrete_total))
                        .set("refine_passes",
                             Json::number(static_cast<long long>(c.refine_passes)))
                        .set("refine_moves",
                             Json::number(static_cast<long long>(c.refine_moves)))
                        .set("soft_terms", terms_json(c.soft_terms))
                        .set("discrete_terms", terms_json(c.discrete_terms))
                        .set("curve", std::move(samples)));
  }
  doc.set("restarts", std::move(restarts));

  Json stages = Json::object();
  for (const auto& [name, stage] : stages_) {
    stages.set(name, Json::object()
                         .set("total_ms", Json::number(stage.total_ms))
                         .set("count", Json::number(stage.count)));
  }
  doc.set("stages", std::move(stages));

  Json counters = Json::object();
  for (const auto& [name, value] : counters_) {
    counters.set(name, Json::number(value));
  }
  doc.set("counters", std::move(counters));

  if (!levels_.empty()) {
    Json levels = Json::array();
    for (const LevelEvent& level : levels_) {
      // Coarsening ratio vs the next finer recorded level (1.0 for the
      // finest or when the finer level is absent).
      double ratio = 1.0;
      for (const LevelEvent& finer : levels_) {
        if (finer.level == level.level - 1 && finer.num_vertices > 0) {
          ratio = static_cast<double>(level.num_vertices) /
                  static_cast<double>(finer.num_vertices);
          break;
        }
      }
      levels.append(
          Json::object()
              .set("level", Json::number(static_cast<long long>(level.level)))
              .set("vertices",
                   Json::number(static_cast<long long>(level.num_vertices)))
              .set("edges", Json::number(level.num_edges))
              .set("ratio", Json::number(ratio))
              .set("coarsen_ms", Json::number(level.coarsen_ms))
              .set("refine_ms", Json::number(level.refine_ms))
              .set("projected_cost", Json::number(level.projected_cost))
              .set("refined_cost", Json::number(level.refined_cost))
              .set("refine_moves",
                   Json::number(static_cast<long long>(level.refine_moves))));
    }
    doc.set("levels", std::move(levels));
  }

  if (has_end_) {
    doc.set("result",
            Json::object()
                .set("winning_restart",
                     Json::number(static_cast<long long>(end_.winning_restart)))
                .set("discrete_total", Json::number(end_.discrete_total))
                .set("iterations", Json::number(static_cast<long long>(end_.iterations)))
                .set("converged", Json::boolean(end_.converged)));
  }

  if (metrics_.has_value()) {
    const PartitionMetrics& m = *metrics_;
    doc.set("metrics",
            Json::object()
                .set("d1", Json::number(m.frac_within(1)))
                .set("d2", Json::number(m.frac_within(2)))
                .set("bcir_ma", Json::number(m.total_bias_ma))
                .set("bmax_ma", Json::number(m.bmax_ma))
                .set("icomp_frac", Json::number(m.icomp_frac()))
                .set("acir_mm2", Json::number(m.total_area_mm2()))
                .set("amax_mm2", Json::number(m.amax_mm2()))
                .set("afs_frac", Json::number(m.afs_frac())));
  }

  return doc;
}

Status RunReport::write_file(const std::string& path, int indent) const {
  std::ofstream file(path);
  if (!file) return Status::error("run report: cannot open " + path);
  file << to_json().dump(indent) << "\n";
  if (!file) return Status::error("run report: write failed for " + path);
  return Status::ok();
}

}  // namespace sfqpart::obs
