// sfqpartd — the long-lived partition service over a versioned job API.
//
// The daemon reads JSON-lines requests (sfqpart.job.v1, see
// service/job.h), multiplexes concurrent jobs over a small worker pool
// with per-job thread budgets, schedules fairly (FIFO within priority,
// strict priority between classes, service/scheduler.h), applies
// backpressure with an explicit `rejected: queue_full` response when the
// bounded queue is at capacity, and answers every request with one
// sfqpart.job_response.v1 line:
//
//   {"schema": "sfqpart.job_response.v1", "id": "...",
//    "status": "ok" | "invalid" | "rejected" | "error",
//    "cache": "hit" | "miss",              // only with status "ok"
//    "error": "...",                        // only on failure
//    "report": { sfqpart.run_report.v2 }}   // only with status "ok"
//
// Results are served from a content-addressed cache (service/cache.h)
// keyed on (netlist content hash, engine + canonical options): repeating
// a job is O(1) — one cache lookup, no engine run — and returns the
// byte-identical run_report.v2 produced by the first execution. The
// engines' determinism contract makes this sound; see cache.h. Duplicate
// suppression is single-flight: a job whose key matches one currently
// executing attaches to that execution (no queue slot, no engine run) and
// is answered as a "hit" when it completes, so a burst of identical jobs
// costs exactly one engine run no matter how it interleaves.
//
// Responses are written in completion order (ids correlate request to
// response); admin lines ({"cmd": "stats" | "engines" | "shutdown"})
// answer synchronously. DESIGN.md section 11 documents the architecture.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "obs/trace_sink.h"
#include "service/cache.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "util/json.h"

namespace sfqpart::service {

struct DaemonOptions {
  // Worker threads executing jobs. 0 is a testing mode: nothing ever
  // dispatches, so queue behavior (fill, backpressure) is deterministic.
  int workers = 2;
  // Thread budget per job: caps the job's requested "threads" option
  // (0 or omitted -> the full budget). Total compute concurrency is
  // bounded by workers * threads_per_job.
  int threads_per_job = 1;
  // Bounded queue: pushes beyond this are rejected (`queue_full`).
  std::size_t queue_capacity = 64;
  // Result cache entry budget (split across the cache's 8 shards).
  std::size_t cache_capacity = 256;
  // Server-side certification (core/certify.h): turns on every job's
  // `certify` knob, so the engine adapter re-derives and checks the
  // result *before* the report is serialized and cached. A cache hit
  // replays an already-certified report (its "certified" and
  // "certify_verdict" counters are frozen into it) and a bad result is
  // answered as an error instead of being cached. Certifying once at
  // insert instead of on every hit keeps warm repeats O(1).
  bool certify = true;
  // Receives daemon counters as CounterEvents: "cache_hit", "cache_miss",
  // "cache_evict", "job_accepted", "job_rejected", "job_invalid",
  // "job_coalesced", "engine_run". Not owned; may be null.
  obs::SolverObserver* observer = nullptr;
};

// The engine catalog as JSON ("sfqpart.engines.v1"): every registered
// engine with its description and structured OptionSpec list. Served by
// the {"cmd": "engines"} admin command and `sfqpart --list-engines
// --json`.
Json engines_json();

class Daemon {
 public:
  explicit Daemon(DaemonOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Submits one request line. Immediate outcomes (admin commands, invalid
  // jobs, queue-full rejections, cache hits) resolve the future before
  // returning; accepted jobs resolve when a worker completes them.
  std::future<std::string> submit(const std::string& line);

  // Blocking convenience for tests and the bench load generator.
  std::string submit_and_wait(const std::string& line);

  // JSON-lines loop: one request per line on `in`, one response line per
  // request on `out`, written in completion order. Returns after EOF or a
  // {"cmd": "shutdown"} line, once every accepted job has responded.
  void serve(std::istream& in, std::ostream& out);

  // "sfqpart.daemon_stats.v1": jobs, queue, cache and engine-run counts.
  Json stats_json() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  // Engine executions so far — cache hits do not increment this, which is
  // how tests prove warm repeats are O(1).
  long long engine_runs() const { return engine_runs_.load(); }

 private:
  using Respond = std::function<void(std::string)>;

  // A duplicate job waiting on the in-flight execution of its key.
  struct Waiter {
    std::string id;
    Respond respond;
  };

  // Routes one raw line to the admin handler, the rejection paths or the
  // queue; guarantees exactly one respond() call (possibly asynchronous).
  void submit_line(const std::string& line, Respond respond);
  void execute_job(JobRequest request, EngineContext context, CacheKey key,
                   std::string netlist_content, std::string warm_content,
                   Respond respond);
  std::string handle_admin(const Json& doc);
  void wait_for_idle();

  DaemonOptions options_;
  obs::TraceSink sink_;
  ResultCache cache_;
  JobQueue queue_;
  std::vector<std::thread> workers_;

  std::atomic<long long> engine_runs_{0};
  std::atomic<long long> jobs_accepted_{0};
  std::atomic<long long> jobs_rejected_{0};
  std::atomic<long long> jobs_invalid_{0};
  std::atomic<long long> jobs_completed_{0};
  std::atomic<long long> jobs_coalesced_{0};
  std::atomic<long long> jobs_certified_{0};

  // Single-flight registry: cache keys currently executing, with the
  // duplicate submissions waiting on each. Guards the miss -> enqueue
  // decision, so checking the cache and registering the flight is atomic.
  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::vector<Waiter>> inflight_;

  mutable std::mutex idle_mutex_;
  std::condition_variable idle_;
  std::size_t outstanding_ = 0;
  bool shutdown_requested_ = false;
};

}  // namespace sfqpart::service
