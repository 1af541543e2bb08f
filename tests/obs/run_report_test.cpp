// RunReport schema self-check: a real run's report must round-trip
// through the util/json parser ("sfqpart.run_report.v2", DESIGN.md
// section 8.2) with every documented key present.
#include "obs/run_report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/solver.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"

namespace sfqpart {
namespace {

obs::RunReport solver_report(const Netlist& netlist, int restarts) {
  obs::RunReport report;
  SolverConfig config;
  config.restarts = restarts;
  config.refine = true;
  config.observer = &report;
  const auto result = Solver(std::move(config)).run(netlist);
  EXPECT_TRUE(result.is_ok()) << result.status().message();
  report.set_circuit(netlist.name(), netlist.num_partitionable_gates(),
                     static_cast<int>(netlist.connections().size()));
  if (result.is_ok()) {
    report.set_metrics(compute_metrics(netlist, result->partition));
  }
  return report;
}

TEST(RunReport, AggregatesTheRun) {
  const Netlist netlist = build_mapped("ksa4");
  const obs::RunReport report = solver_report(netlist, 2);

  ASSERT_TRUE(report.has_run());
  EXPECT_EQ(report.info().engine, "solver");
  EXPECT_EQ(report.info().restarts, 2);
  ASSERT_EQ(report.restarts().size(), 2u);
  for (const auto& curve : report.restarts()) {
    EXPECT_TRUE(curve.started);
    EXPECT_TRUE(curve.finished);
    EXPECT_FALSE(curve.samples.empty());
    // The weighted total can be legitimately negative for near-perfect
    // partitions of tiny circuits; only check that it was recorded.
    EXPECT_NE(curve.discrete_total, 0.0);
    EXPECT_GT(curve.refine_passes, 0);
    // Curves are recorded in iteration order even under threads.
    for (std::size_t i = 0; i < curve.samples.size(); ++i) {
      EXPECT_EQ(curve.samples[i].iteration, static_cast<int>(i));
    }
  }
  EXPECT_GT(report.stage_ms("run"), 0.0);
  EXPECT_GT(report.stage_ms("optimize"), 0.0);
  // The optimizer breaks its loop down into gradient and step stages; the
  // gradient evaluation dominates, so the sub-stage must have landed real
  // time inside the "optimize" envelope.
  EXPECT_GT(report.stage_ms("gradient"), 0.0);
  EXPECT_LE(report.stage_ms("gradient") + report.stage_ms("step"),
            report.stage_ms("optimize"));
  EXPECT_EQ(report.stage_ms("no_such_stage"), 0.0);
  EXPECT_GT(report.counter("optimizer_iterations"), 0);
}

TEST(RunReport, JsonRoundTripsThroughTheParser) {
  const Netlist netlist = build_mapped("ksa4");
  const obs::RunReport report = solver_report(netlist, 2);

  const std::string text = report.to_json().dump(2);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();

  const Json& doc = *parsed;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "sfqpart.run_report.v2");
  EXPECT_EQ(doc.find("engine")->as_string(), "solver");

  const Json* circuit = doc.find("circuit");
  ASSERT_NE(circuit, nullptr);
  EXPECT_EQ(circuit->find("name")->as_string(), netlist.name());
  EXPECT_EQ(circuit->find("gates")->as_int(),
            netlist.num_partitionable_gates());

  const Json* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("num_planes")->as_int(), 5);
  EXPECT_EQ(config->find("restarts")->as_int(), 2);
  ASSERT_NE(config->find("weights"), nullptr);
  ASSERT_NE(config->find("optimizer"), nullptr);
  EXPECT_GT(config->find("optimizer")->find("max_iterations")->as_int(), 0);

  const Json* restarts = doc.find("restarts");
  ASSERT_NE(restarts, nullptr);
  ASSERT_EQ(restarts->size(), 2u);
  const Json& first = restarts->at(0);
  EXPECT_EQ(first.find("restart")->as_int(), 0);
  ASSERT_NE(first.find("curve"), nullptr);
  ASSERT_GT(first.find("curve")->size(), 0u);
  const Json& sample = first.find("curve")->at(0);
  EXPECT_EQ(sample.find("iteration")->as_int(), 0);
  EXPECT_GT(sample.find("cost")->as_number(), 0.0);
  ASSERT_NE(sample.find("f1"), nullptr);

  ASSERT_NE(doc.find("stages"), nullptr);
  ASSERT_NE(doc.find("stages")->find("run"), nullptr);
  EXPECT_GT(doc.find("stages")->find("run")->find("total_ms")->as_number(),
            0.0);

  const Json* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GE(result->find("winning_restart")->as_int(), 0);
  EXPECT_NE(result->find("discrete_total")->as_number(), 0.0);

  const Json* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->find("d1")->as_number(), 0.0);
  EXPECT_GT(metrics->find("bcir_ma")->as_number(), 0.0);

  // Full fixed-point check: dump -> parse -> dump is the identity.
  EXPECT_EQ(parsed->dump(0), Json::parse(parsed->dump(0))->dump(0));
  EXPECT_EQ(parsed->dump(2), text);
}

TEST(RunReport, MultilevelRunRecordsLevels) {
  const Netlist netlist = build_mapped("c3540");
  obs::RunReport report;
  const auto engine = EngineRegistry::create("multilevel");
  ASSERT_TRUE(engine.is_ok());
  EngineContext context;
  context.num_planes = 4;
  context.observer = &report;
  const auto run = (*engine)->run(netlist, context);
  ASSERT_TRUE(run.is_ok()) << run.status().message();
  const auto result_levels = static_cast<std::size_t>(run->counter("levels"));
  ASSERT_GT(result_levels, 0u);

  // The first run_start wins: the report describes the outer V-cycle,
  // not its coarse solve, and the levels array mirrors the coarsening.
  ASSERT_TRUE(report.has_run());
  EXPECT_EQ(report.info().engine, "multilevel");
  EXPECT_EQ(report.levels().size(), result_levels + 1);
  EXPECT_GT(report.stage_ms("coarsen"), 0.0);
  EXPECT_GT(report.stage_ms("coarse_solve"), 0.0);
  EXPECT_GT(report.stage_ms("uncoarsen"), 0.0);

  const auto parsed = Json::parse(report.to_json().dump(0));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json* levels = parsed->find("levels");
  ASSERT_NE(levels, nullptr);
  EXPECT_EQ(levels->size(), report.levels().size());
  EXPECT_GT(levels->at(0).find("vertices")->as_int(),
            levels->at(levels->size() - 1).find("vertices")->as_int());
}

TEST(RunReport, WriteFileProducesParseableJson) {
  const Netlist netlist = build_mapped("ksa4");
  const obs::RunReport report = solver_report(netlist, 1);

  const std::string path = "run_report_test_out.json";
  ASSERT_TRUE(report.write_file(path).is_ok());
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::remove(path.c_str());

  const auto parsed = Json::parse(buffer.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(parsed->find("schema")->as_string(), "sfqpart.run_report.v2");
}

}  // namespace
}  // namespace sfqpart
