#include "core/sweep.h"

#include <limits>
#include <memory>
#include <utility>

#include "metrics/partition_metrics.h"
#include "util/strings.h"

namespace sfqpart {
namespace {

Status validate_axes(const std::vector<SweepAxis>& axes) {
  if (axes.empty()) {
    return Status::invalid_argument("run_sweep: at least one axis required");
  }
  long long total = 1;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const SweepAxis& axis = axes[i];
    if (axis.name.empty()) {
      return Status::invalid_argument("run_sweep: axis with empty name");
    }
    if (axis.values.empty()) {
      return Status::invalid_argument(
          str_format("run_sweep: axis '%s' has no values", axis.name.c_str()));
    }
    for (std::size_t j = i + 1; j < axes.size(); ++j) {
      if (axes[j].name == axis.name) {
        return Status::invalid_argument(str_format(
            "run_sweep: duplicate axis '%s'", axis.name.c_str()));
      }
    }
    total *= static_cast<long long>(axis.values.size());
    if (total > kMaxSweepPoints) {
      return Status::invalid_argument(
          str_format("run_sweep: cross-product exceeds %lld points",
                     kMaxSweepPoints));
    }
  }
  return Status::ok();
}

// The point's option object: base options first, then the axis values
// (Json::set is last-wins, so an axis overrides a base entry).
Json point_options(const Json& base, const std::vector<SweepAxis>& axes,
                   const std::vector<int>& index) {
  Json options = Json::object();
  if (base.is_object()) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      options.set(base.key_at(i), *base.find(base.key_at(i)));
    }
  }
  for (std::size_t a = 0; a < axes.size(); ++a) {
    options.set(axes[a].name,
                axes[a].values[static_cast<std::size_t>(index[a])]);
  }
  return options;
}

}  // namespace

Json SweepResult::to_json(const std::string& circuit) const {
  Json axes_json = Json::array();
  for (const SweepAxis& axis : axes) {
    Json values = Json::array();
    for (const Json& value : axis.values) values.append(value);
    axes_json.append(Json::object()
                         .set("name", Json::string(axis.name))
                         .set("values", std::move(values)));
  }
  Json points_json = Json::array();
  for (const SweepPoint& point : points) {
    Json entry = Json::object()
                     .set("options", point.options)
                     .set("canonical", Json::string(point.canonical))
                     .set("discrete_total",
                          Json::number(point.run.discrete_total))
                     .set("bmax_ma", Json::number(point.bmax_ma))
                     .set("pareto", Json::boolean(point.pareto));
    if (point.warm_started) {
      entry.set("warm_started", Json::boolean(true));
    }
    points_json.append(std::move(entry));
  }
  Json pareto_json = Json::array();
  for (const int index : pareto) {
    pareto_json.append(Json::number(static_cast<long long>(index)));
  }
  return Json::object()
      .set("schema", Json::string("sfqpart.sweep.v1"))
      .set("circuit", Json::string(circuit))
      .set("engine", Json::string(engine))
      .set("axes", std::move(axes_json))
      .set("points", std::move(points_json))
      .set("pareto", std::move(pareto_json));
}

StatusOr<SweepResult> run_sweep(const Netlist& netlist,
                                const SweepOptions& options) {
  Status axes_status = validate_axes(options.axes);
  if (!axes_status.is_ok()) return axes_status;

  StatusOr<std::unique_ptr<PartitionEngine>> engine =
      EngineRegistry::create(options.engine);
  if (!engine) return engine.status();
  const std::vector<OptionSpec> specs = (*engine)->describe_options();

  SweepResult result;
  result.engine = options.engine;
  result.axes = options.axes;

  const std::size_t num_axes = options.axes.size();
  std::vector<int> index(num_axes, 0);
  while (true) {
    SweepPoint point;
    point.index = index;
    point.options = point_options(options.base_options, options.axes, index);

    EngineContext context;
    Status applied =
        apply_engine_options(specs, point.options, context, &point.canonical);
    if (!applied.is_ok()) {
      return Status::error(str_format("run_sweep: point %s: %s",
                                      point.options.dump(0).c_str(),
                                      applied.message().c_str()));
    }

    // Warm mode: seed from the best-scoring completed neighbor that
    // differs in exactly one axis index. The InitialPartition must
    // outlive the run, so it lives in this scope.
    InitialPartition warm;
    if (options.warm_neighbors) {
      int best = -1;
      double best_total = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < result.points.size(); ++p) {
        const SweepPoint& prior = result.points[p];
        int differing = 0;
        for (std::size_t a = 0; a < num_axes; ++a) {
          if (prior.index[a] != index[a]) ++differing;
        }
        if (differing != 1) continue;
        if (prior.run.discrete_total < best_total) {
          best_total = prior.run.discrete_total;
          best = static_cast<int>(p);
        }
      }
      // A neighbor's labels only seed a same-K problem; a "planes" axis
      // neighbor with a different K is skipped (its labels may be out of
      // range for this point).
      if (best >= 0 &&
          result.points[static_cast<std::size_t>(best)].run.partition
                  .num_planes == context.num_planes) {
        warm.plane_of =
            result.points[static_cast<std::size_t>(best)].run.partition.plane_of;
        context.warm_start = &warm;
        point.warm_started = true;
      }
    }

    StatusOr<EngineRun> run = (*engine)->run(netlist, context);
    if (!run) {
      // A silently skipped failure would misreport the Pareto front as
      // computed over the full cross-product; abort instead.
      return Status::error(str_format("run_sweep: point %s failed: %s",
                                      point.canonical.c_str(),
                                      run.status().message().c_str()));
    }
    point.run = *std::move(run);
    point.bmax_ma = compute_metrics(netlist, point.run.partition).bmax_ma;
    result.points.push_back(std::move(point));

    // Lexicographic advance, last axis fastest; wrapping the first axis
    // means the cross-product is exhausted.
    std::size_t a = num_axes;
    bool wrapped = true;
    while (a > 0 && wrapped) {
      --a;
      if (++index[a] < static_cast<int>(options.axes[a].values.size())) {
        wrapped = false;
      } else {
        index[a] = 0;
      }
    }
    if (wrapped) break;
  }

  // Pareto front, minimizing (discrete_total, bmax_ma): a point is kept
  // unless some other point is <= in both objectives and < in one.
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < result.points.size() && !dominated; ++j) {
      if (i == j) continue;
      const SweepPoint& a = result.points[i];
      const SweepPoint& b = result.points[j];
      const bool no_worse = b.run.discrete_total <= a.run.discrete_total &&
                            b.bmax_ma <= a.bmax_ma;
      const bool better = b.run.discrete_total < a.run.discrete_total ||
                          b.bmax_ma < a.bmax_ma;
      dominated = no_worse && better;
    }
    if (!dominated) {
      result.points[i].pareto = true;
      result.pareto.push_back(static_cast<int>(i));
    }
  }
  return result;
}

}  // namespace sfqpart
