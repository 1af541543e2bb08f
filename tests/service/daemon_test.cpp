#include "service/daemon.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/suite.h"
#include "verilog/verilog_writer.h"

namespace sfqpart::service {
namespace {

// Captures CounterEvents from the daemon's sink.
class CounterRecorder : public obs::SolverObserver {
 public:
  void on_counter(const obs::CounterEvent& e) override {
    counts_.emplace_back(e.name, e.delta);
  }

  long long total(const std::string& name) const {
    long long sum = 0;
    for (const auto& [counter, delta] : counts_) {
      if (counter == name) sum += delta;
    }
    return sum;
  }

 private:
  std::vector<std::pair<std::string, long long>> counts_;
};

// A cheap job line: ksa4, one restart. `extra` is spliced into the
// options object.
std::string job_line(const std::string& id, const std::string& extra = "") {
  return R"({"schema": "sfqpart.job.v1", "id": ")" + id +
         R"(", "circuit": "ksa4", "options": {"restarts": 1)" +
         (extra.empty() ? "" : ", " + extra) + "}}";
}

Json parse_response(const std::string& line) {
  auto doc = Json::parse(line);
  EXPECT_TRUE(doc.is_ok()) << doc.status().message() << "\n" << line;
  EXPECT_EQ(doc->find("schema")->as_string(), kResponseSchema);
  return *doc;
}

std::string field(const Json& response, const char* key) {
  const Json* value = response.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

TEST(Daemon, WarmRepeatIsACacheHitWithByteIdenticalReport) {
  CounterRecorder recorder;
  DaemonOptions options;
  options.workers = 1;
  options.observer = &recorder;
  Daemon daemon(options);

  const Json first = parse_response(daemon.submit_and_wait(job_line("cold")));
  const Json second = parse_response(daemon.submit_and_wait(job_line("warm")));

  EXPECT_EQ(field(first, "status"), "ok");
  EXPECT_EQ(field(first, "cache"), "miss");
  EXPECT_EQ(field(second, "status"), "ok");
  EXPECT_EQ(field(second, "cache"), "hit");

  // The warm response embeds the byte-identical run_report.v2 payload.
  ASSERT_NE(first.find("report"), nullptr);
  ASSERT_NE(second.find("report"), nullptr);
  EXPECT_EQ(first.find("report")->dump(0), second.find("report")->dump(0));
  EXPECT_EQ(first.find("report")->find("schema")->as_string(),
            "sfqpart.run_report.v2");

  // O(1) warm path, proven by observer event counts: one engine run, one
  // miss, one hit.
  EXPECT_EQ(daemon.engine_runs(), 1);
  EXPECT_EQ(recorder.total("engine_run"), 1);
  EXPECT_EQ(recorder.total("cache_miss"), 1);
  EXPECT_EQ(recorder.total("cache_hit"), 1);
  EXPECT_EQ(daemon.cache_stats().hits, 1);
}

TEST(Daemon, CanonicalizationMakesSpellingAndThreadsIrrelevant) {
  DaemonOptions options;
  options.workers = 1;
  options.threads_per_job = 2;
  Daemon daemon(options);

  const Json first = parse_response(daemon.submit_and_wait(
      job_line("a", R"("planes": 5, "seed": 7)")));
  // Different option order, float spellings, and a different thread
  // request — same canonical configuration, so a cache hit.
  const Json second = parse_response(daemon.submit_and_wait(
      job_line("b", R"("seed": 7.0, "threads": 2, "planes": 5.0)")));

  EXPECT_EQ(field(first, "cache"), "miss");
  EXPECT_EQ(field(second, "cache"), "hit");
  EXPECT_EQ(daemon.engine_runs(), 1);

  // A genuinely different value is a different key.
  const Json third = parse_response(daemon.submit_and_wait(
      job_line("c", R"("planes": 5, "seed": 8)")));
  EXPECT_EQ(field(third, "cache"), "miss");
  EXPECT_EQ(daemon.engine_runs(), 2);
}

TEST(Daemon, ConcurrentDuplicatesCoalesceToOneEngineRun) {
  DaemonOptions options;
  options.workers = 2;
  Daemon daemon(options);

  // Submit identical jobs back-to-back without waiting: whichever
  // interleaving results, only one engine run happens (single-flight).
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(daemon.submit(job_line("dup" + std::to_string(i))));
  }
  int hits = 0;
  int misses = 0;
  for (auto& future : futures) {
    const Json response = parse_response(future.get());
    EXPECT_EQ(field(response, "status"), "ok");
    (field(response, "cache") == "hit" ? hits : misses) += 1;
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(daemon.engine_runs(), 1);
}

TEST(Daemon, QueueFullJobsAreRejectedExplicitly) {
  DaemonOptions options;
  options.workers = 0;  // nothing dispatches: queue behavior is exact
  options.queue_capacity = 2;
  Daemon daemon(options);

  // Distinct seeds so nothing coalesces. The first two fill the queue
  // (their futures stay pending forever in this mode — do not wait).
  auto pending1 = daemon.submit(job_line("q1", R"("seed": 1)"));
  auto pending2 = daemon.submit(job_line("q2", R"("seed": 2)"));
  const Json rejected =
      parse_response(daemon.submit_and_wait(job_line("q3", R"("seed": 3)")));
  EXPECT_EQ(field(rejected, "status"), "rejected");
  EXPECT_EQ(field(rejected, "error"), "queue_full");
  EXPECT_EQ(rejected.find("id")->as_string(), "q3");

  const Json stats = *Json::parse(daemon.submit_and_wait(R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.find("jobs")->find("rejected")->as_int(), 1);
  EXPECT_EQ(stats.find("queue")->find("size")->as_int(), 2);
}

TEST(Daemon, InvalidRequestsGetPreciseErrors) {
  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(options);

  struct Case {
    const char* line;
    const char* needle;  // expected substring of the error
  };
  const Case cases[] = {
      {"{not json", "json"},
      {R"({"schema": "sfqpart.job.v1"})", "netlist source"},
      {R"({"schema": "sfqpart.job.v1", "circuit": "nonsense"})",
       "unknown circuit"},
      {R"({"schema": "sfqpart.job.v1", "circuit": "ksa4",
           "engine": "bogus"})",
       "unknown engine"},
      {R"({"schema": "sfqpart.job.v1", "circuit": "ksa4",
           "options": {"planes": 1}})",
       "planes"},
      {R"({"schema": "sfqpart.job.v1", "circuit": "ksa4",
           "options": {"cooling": 0.9}})",
       "unknown option"},
      {R"({"schema": "sfqpart.job.v1", "netlist_file": "no/such.def"})",
       "cannot open"},
  };
  for (const Case& c : cases) {
    const Json response = parse_response(daemon.submit_and_wait(c.line));
    EXPECT_EQ(field(response, "status"), "invalid") << c.line;
    EXPECT_NE(field(response, "error").find(c.needle), std::string::npos)
        << field(response, "error");
  }
  EXPECT_EQ(daemon.engine_runs(), 0);
}

TEST(Daemon, FileAndInlineNetlistsShareCacheByContent) {
  // Write ksa4 as structural Verilog, submit it once as a file job and
  // once inline: identical bytes -> identical netlist hash -> cache hit.
  const std::string source = write_verilog(build_mapped("ksa4"));
  const std::string path = "daemon_test_ksa4.v";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    out << source;
  }

  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(options);

  Json file_job = Json::object();
  file_job.set("schema", Json::string(kJobSchema));
  file_job.set("id", Json::string("from-file"));
  file_job.set("netlist_file", Json::string(path));
  file_job.set("options", Json::parse(R"({"restarts": 1})").value());
  const Json first = parse_response(daemon.submit_and_wait(file_job.dump(0)));
  ASSERT_EQ(field(first, "status"), "ok") << field(first, "error");
  EXPECT_EQ(field(first, "cache"), "miss");

  Json inline_job = Json::object();
  inline_job.set("schema", Json::string(kJobSchema));
  inline_job.set("id", Json::string("inline"));
  inline_job.set("netlist_verilog", Json::string(source));
  inline_job.set("options", Json::parse(R"({"restarts": 1})").value());
  const Json second =
      parse_response(daemon.submit_and_wait(inline_job.dump(0)));
  ASSERT_EQ(field(second, "status"), "ok") << field(second, "error");
  EXPECT_EQ(field(second, "cache"), "hit");
  EXPECT_EQ(daemon.engine_runs(), 1);
  std::remove(path.c_str());
}

// A port declared twice would name two gates "pin:a": the job is an
// error naming the port, never a partition of the ambiguous netlist.
TEST(Daemon, InlineVerilogWithADuplicatePortIsAnError) {
  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(options);
  Json job = Json::object();
  job.set("schema", Json::string(kJobSchema));
  job.set("id", Json::string("dup-port"));
  job.set("netlist_verilog",
          Json::string("module dup (a, y); input a; input a; output y; "
                       "JTL g1 (.A(a), .Q(w)); JTL g2 (.A(w), .Q(y)); "
                       "endmodule"));
  job.set("options", Json::parse(R"({"restarts": 1})").value());
  const Json response = parse_response(daemon.submit_and_wait(job.dump(0)));
  EXPECT_NE(field(response, "status"), "ok");
  EXPECT_NE(field(response, "error").find("duplicate port 'a'"),
            std::string::npos)
      << field(response, "error");
  EXPECT_EQ(daemon.engine_runs(), 0);
}

TEST(Daemon, ServeSpeaksJsonLinesAndHonorsShutdown) {
  std::stringstream in;
  in << job_line("s1") << "\n";
  in << "\n";  // blank lines are ignored
  in << job_line("s2") << "\n";
  in << R"({"cmd": "stats"})" << "\n";
  in << R"({"cmd": "shutdown"})" << "\n";
  in << job_line("after-shutdown") << "\n";  // never read

  std::stringstream out;
  DaemonOptions options;
  options.workers = 2;
  Daemon daemon(options);
  daemon.serve(in, out);

  int job_responses = 0;
  bool saw_stats = false;
  bool saw_shutdown_ack = false;
  std::string line;
  while (std::getline(out, line)) {
    const auto doc = Json::parse(line);
    ASSERT_TRUE(doc.is_ok()) << line;
    const std::string schema = doc->find("schema")->as_string();
    if (schema == kResponseSchema) {
      ++job_responses;
      EXPECT_EQ(doc->find("status")->as_string(), "ok");
      const std::string id = doc->find("id")->as_string();
      EXPECT_TRUE(id == "s1" || id == "s2") << id;
    } else if (schema == "sfqpart.daemon_stats.v1") {
      saw_stats = true;
    } else if (schema == "sfqpart.admin.v1") {
      EXPECT_EQ(doc->find("cmd")->as_string(), "shutdown");
      saw_shutdown_ack = true;
    }
  }
  // The post-shutdown job line was never consumed.
  EXPECT_EQ(job_responses, 2);
  EXPECT_TRUE(saw_stats);
  EXPECT_TRUE(saw_shutdown_ack);
}

TEST(Daemon, EnginesAdminServesTheCatalog) {
  DaemonOptions options;
  options.workers = 0;
  Daemon daemon(options);
  const auto doc = Json::parse(daemon.submit_and_wait(R"({"cmd":"engines"})"));
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc->find("schema")->as_string(), "sfqpart.engines.v1");
  const Json* engines = doc->find("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_EQ(engines->size(), 9u);
  // Every entry carries structured option specs.
  for (std::size_t i = 0; i < engines->size(); ++i) {
    const Json& engine = engines->at(i);
    EXPECT_NE(engine.find("name"), nullptr);
    EXPECT_NE(engine.find("description"), nullptr);
    ASSERT_NE(engine.find("options"), nullptr);
    EXPECT_GT(engine.find("options")->size(), 0u);
  }
  // Unknown admin commands answer with an error document, not silence.
  const auto unknown = Json::parse(daemon.submit_and_wait(R"({"cmd":"nope"})"));
  ASSERT_TRUE(unknown.is_ok());
  EXPECT_EQ(unknown->find("status")->as_string(), "error");
}

}  // namespace
}  // namespace sfqpart::service
