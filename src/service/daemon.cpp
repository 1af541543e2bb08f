#include "service/daemon.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/engine.h"
#include "core/partition_io.h"
#include "def/def_parser.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "netlist/cell_library.h"
#include "obs/run_report.h"
#include "util/hash.h"
#include "util/strings.h"
#include "verilog/verilog_parser.h"

namespace sfqpart::service {

namespace {

bool has_suffix(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

StatusOr<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::not_found("cannot open file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// `content` is the already-read file bytes (kFile) or the inline source
// (kInlineVerilog); the hash the cache key was built from covers exactly
// these bytes, so the executed netlist matches the key even if the file
// changes on disk between submit and dispatch.
StatusOr<Netlist> build_job_netlist(const JobRequest& job,
                                    const std::string& content) {
  if (job.source == JobRequest::Source::kCircuit) {
    const SuiteEntry* entry = find_benchmark(job.circuit);
    if (entry == nullptr) {
      return Status::not_found("unknown circuit '" + job.circuit + "'");
    }
    return build_mapped(*entry);
  }
  if (job.source == JobRequest::Source::kFile &&
      has_suffix(job.netlist_file, ".def")) {
    auto design = def::parse_def(content);
    if (!design) return design.status();
    return def::def_to_netlist(*design, default_sfq_library());
  }
  auto module = parse_verilog(content);
  if (!module) return module.status();
  return verilog_to_netlist(*module, default_sfq_library());
}

Json base_response(const std::string& id, const char* status) {
  Json response = Json::object();
  response.set("schema", Json::string(kResponseSchema));
  response.set("id", Json::string(id));
  response.set("status", Json::string(status));
  return response;
}

std::string error_line(const std::string& id, const char* status,
                       const std::string& message) {
  Json response = base_response(id, status);
  response.set("error", Json::string(message));
  return response.dump(0);
}

std::string ok_line(const std::string& id, const char* cache,
                    const std::string& report_str) {
  Json response = base_response(id, "ok");
  response.set("cache", Json::string(cache));
  // The cache stores the frozen report as a compact JSON object string;
  // splice it into the envelope verbatim instead of re-parsing it. This
  // keeps the warm path at one string copy AND guarantees hit and miss
  // responses embed byte-identical report payloads.
  std::string line = response.dump(0);
  assert(!line.empty() && line.back() == '}');
  line.pop_back();
  line += ",\"report\":";
  line += report_str;
  line += '}';
  return line;
}

}  // namespace

Json engines_json() {
  Json engines = Json::array();
  for (const std::string& name : EngineRegistry::names()) {
    auto engine = EngineRegistry::create(name);
    if (!engine) continue;
    Json options = Json::array();
    for (const OptionSpec& spec : (*engine)->describe_options()) {
      options.append(spec.to_json());
    }
    engines.append(Json::object()
                       .set("name", Json::string(name))
                       .set("description", Json::string((*engine)->description()))
                       .set("options", std::move(options)));
  }
  return Json::object()
      .set("schema", Json::string("sfqpart.engines.v1"))
      .set("engines", std::move(engines));
}

Daemon::Daemon(DaemonOptions options)
    : options_(options),
      sink_(options.observer),
      cache_(options.cache_capacity, /*shards=*/8, &sink_),
      queue_(options.queue_capacity) {
  workers_.reserve(static_cast<std::size_t>(std::max(0, options_.workers)));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] {
      while (auto work = queue_.pop()) (*work)();
    });
  }
}

Daemon::~Daemon() {
  queue_.shutdown();
  for (std::thread& worker : workers_) worker.join();
}

std::future<std::string> Daemon::submit(const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  submit_line(line, [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future;
}

std::string Daemon::submit_and_wait(const std::string& line) {
  return submit(line).get();
}

void Daemon::submit_line(const std::string& line, Respond respond) {
  auto doc = Json::parse(line);
  if (!doc) {
    jobs_invalid_.fetch_add(1);
    sink_.counter("job_invalid", 1);
    respond(error_line("", "invalid", doc.status().message()));
    return;
  }
  if (is_admin_command(*doc)) {
    respond(handle_admin(*doc));
    return;
  }
  // Best-effort id for error responses even when parsing fails.
  std::string id;
  if (const Json* field = doc->find("id"); field != nullptr && field->is_string()) {
    id = field->as_string();
  }
  auto invalid = [&](const std::string& message) {
    jobs_invalid_.fetch_add(1);
    sink_.counter("job_invalid", 1);
    respond(error_line(id, "invalid", message));
  };

  auto job = parse_job(*doc);
  if (!job) {
    invalid(job.status().message());
    return;
  }
  auto engine = EngineRegistry::create(job->engine);
  if (!engine) {
    invalid(engine.status().message());
    return;
  }
  EngineContext context;
  std::string canonical;
  if (Status s = apply_engine_options((*engine)->describe_options(),
                                      job->options, context, &canonical);
      !s) {
    invalid(s.message());
    return;
  }
  // Per-job thread budget: the job's "threads" request (0 = "as many as
  // allowed") is capped so total compute concurrency stays bounded by
  // workers * threads_per_job. Excluded from the cache key — determinism
  // contract — so the cap never fragments the cache.
  const int budget = std::max(1, options_.threads_per_job);
  context.threads =
      context.threads == 0 ? budget : std::min(context.threads, budget);
  // Server-side certification runs through the engine's own `certify`
  // knob. Like the thread cap it is set after the canonical form was
  // taken, so it never splits the cache.
  context.certify = context.certify || options_.certify;

  std::string content;
  std::uint64_t netlist_hash = 0;
  switch (job->source) {
    case JobRequest::Source::kCircuit: {
      if (find_benchmark(job->circuit) == nullptr) {
        invalid("unknown circuit '" + job->circuit + "' (see `sfqpart list`)");
        return;
      }
      netlist_hash =
          Fnv1a64().update("circuit:").update(job->circuit).digest();
      break;
    }
    case JobRequest::Source::kFile: {
      auto bytes = read_text_file(job->netlist_file);
      if (!bytes) {
        invalid(bytes.status().message());
        return;
      }
      content = std::move(*bytes);
      netlist_hash = Fnv1a64::of(content);
      break;
    }
    case JobRequest::Source::kInlineVerilog: {
      content = job->netlist_verilog;
      netlist_hash = Fnv1a64::of(content);
      break;
    }
  }

  // A warm start is read at submit time and content-hashed into the
  // cache key (like "netlist_file"): two jobs with the same netlist and
  // options but different seed partitions must not alias, and editing
  // the CSV in place must miss.
  std::string warm_content;
  bool has_warm = false;
  if (!job->warm_start.empty()) {
    auto warm_bytes = read_text_file(job->warm_start);
    if (!warm_bytes) {
      invalid("warm_start: " + warm_bytes.status().message());
      return;
    }
    warm_content = std::move(*warm_bytes);
    has_warm = true;
  }

  CacheKey key;
  key.netlist_hash = netlist_hash;
  key.config = job->engine + ";" + canonical;
  if (has_warm) {
    key.config +=
        str_format(";warm:%016llx",
                   static_cast<unsigned long long>(Fnv1a64::of(warm_content)));
  }

  // Cache lookup and single-flight registration are one atomic step, so a
  // duplicate can never slip between "miss" and "registered" and trigger
  // a second engine run.
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (const auto it = inflight_.find(key.full()); it != inflight_.end()) {
      it->second.push_back(Waiter{job->id, std::move(respond)});
      jobs_accepted_.fetch_add(1);
      jobs_coalesced_.fetch_add(1);
      sink_.counter("job_accepted", 1);
      sink_.counter("job_coalesced", 1);
      return;
    }
    if (auto hit = cache_.lookup(key)) {
      jobs_accepted_.fetch_add(1);
      jobs_completed_.fetch_add(1);
      sink_.counter("job_accepted", 1);
      respond(ok_line(job->id, "hit", *hit));
      return;
    }
    inflight_.emplace(key.full(), std::vector<Waiter>{});
  }

  const int priority = job->priority;
  const std::string job_id = job->id;
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    ++outstanding_;
  }
  const bool pushed = queue_.push(
      priority, [this, request = std::move(*job), context, key,
                 body = std::move(content), warm = std::move(warm_content),
                 respond]() mutable {
        execute_job(std::move(request), context, std::move(key),
                    std::move(body), std::move(warm), std::move(respond));
      });
  if (!pushed) {
    {
      const std::lock_guard<std::mutex> lock(idle_mutex_);
      --outstanding_;
    }
    idle_.notify_all();
    // Deregister the flight and reject any duplicates that attached to it
    // in the meantime along with the original.
    std::vector<Waiter> waiters;
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      if (const auto it = inflight_.find(key.full()); it != inflight_.end()) {
        waiters = std::move(it->second);
        inflight_.erase(it);
      }
    }
    jobs_rejected_.fetch_add(1 + static_cast<long long>(waiters.size()));
    sink_.counter("job_rejected", 1 + static_cast<long long>(waiters.size()));
    respond(error_line(job_id, "rejected", "queue_full"));
    for (Waiter& waiter : waiters) {
      waiter.respond(error_line(waiter.id, "rejected", "queue_full"));
    }
    return;
  }
  jobs_accepted_.fetch_add(1);
  sink_.counter("job_accepted", 1);
}

void Daemon::execute_job(JobRequest request, EngineContext context,
                         CacheKey key, std::string netlist_content,
                         std::string warm_content, Respond respond) {
  std::string report_str;       // set on success
  const char* fail_status = ""; // set on failure
  std::string fail_message;

  auto netlist = build_job_netlist(request, netlist_content);
  // The warm CSV can only be resolved against the built netlist; the
  // InitialPartition lives here so it outlives the engine run below.
  InitialPartition warm;
  if (netlist && !request.warm_start.empty()) {
    auto parsed = parse_warm_start_csv(warm_content, *netlist);
    if (!parsed) {
      netlist = Status::invalid_argument("warm_start: " +
                                         std::string(parsed.status().message()));
    } else {
      warm = *std::move(parsed);
      context.warm_start = &warm;
    }
  }
  if (!netlist) {
    jobs_invalid_.fetch_add(1);
    sink_.counter("job_invalid", 1);
    fail_status = "invalid";
    fail_message = netlist.status().message();
  } else {
    obs::RunReport report;
    context.observer = &report;
    auto engine = EngineRegistry::create(request.engine);
    if (!engine) {
      fail_status = "error";
      fail_message = engine.status().message();
    } else {
      engine_runs_.fetch_add(1);
      sink_.counter("engine_run", 1);
      auto run = (*engine)->run(*netlist, context);
      // The adapter certified the run before it returned (a non-valid
      // verdict fails the run); its counters freeze into the cached
      // report, so warm hits replay a certified result unchecked.
      if (report.counter("certified") == 1) {
        jobs_certified_.fetch_add(1);
        sink_.counter("job_certified", 1);
      }
      if (!run) {
        fail_status = "error";
        fail_message = run.status().message();
      } else {
        const PartitionMetrics metrics =
            compute_metrics(*netlist, run->partition);
        report.set_circuit(netlist->name(), metrics.num_gates,
                           metrics.num_connections);
        report.set_metrics(metrics);
        report_str = report.to_json().dump(0);
        cache_.insert(key, report_str);
      }
    }
  }

  // Cache insert happens before the flight is deregistered, so a
  // duplicate arriving now either finds the cached entry or is already
  // attached as a waiter — never a third state.
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (const auto it = inflight_.find(key.full()); it != inflight_.end()) {
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
  }

  const bool ok = !report_str.empty();
  respond(ok ? ok_line(request.id, "miss", report_str)
             : error_line(request.id, fail_status, fail_message));
  for (Waiter& waiter : waiters) {
    waiter.respond(ok ? ok_line(waiter.id, "hit", report_str)
                      : error_line(waiter.id, fail_status, fail_message));
  }
  jobs_completed_.fetch_add(1 + static_cast<long long>(waiters.size()));
  {
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    --outstanding_;
  }
  idle_.notify_all();
}

std::string Daemon::handle_admin(const Json& doc) {
  const std::string cmd = doc.find("cmd")->as_string();
  if (cmd == "stats") return stats_json().dump(0);
  if (cmd == "engines") return engines_json().dump(0);
  if (cmd == "shutdown") {
    {
      const std::lock_guard<std::mutex> lock(idle_mutex_);
      shutdown_requested_ = true;
    }
    idle_.notify_all();
    return Json::object()
        .set("schema", Json::string("sfqpart.admin.v1"))
        .set("cmd", Json::string("shutdown"))
        .set("status", Json::string("ok"))
        .dump(0);
  }
  return Json::object()
      .set("schema", Json::string("sfqpart.admin.v1"))
      .set("cmd", Json::string(cmd))
      .set("status", Json::string("error"))
      .set("error", Json::string("unknown command (stats | engines | shutdown)"))
      .dump(0);
}

void Daemon::wait_for_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

void Daemon::serve(std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  // Worker threads deliver completions directly, so responses appear in
  // completion order; the mutex keeps lines whole.
  auto respond = [&out, &out_mutex](std::string response) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    out << response << '\n';
    out.flush();
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    submit_line(line, respond);
    const std::lock_guard<std::mutex> lock(idle_mutex_);
    if (shutdown_requested_) break;
  }
  // EOF or shutdown: every accepted job still gets its response line
  // before serve() returns (`respond` references die with this frame).
  wait_for_idle();
}

Json Daemon::stats_json() const {
  const CacheStats cache = cache_.stats();
  return Json::object()
      .set("schema", Json::string("sfqpart.daemon_stats.v1"))
      .set("workers", Json::number(static_cast<long long>(options_.workers)))
      .set("jobs",
           Json::object()
               .set("accepted", Json::number(jobs_accepted_.load()))
               .set("rejected", Json::number(jobs_rejected_.load()))
               .set("invalid", Json::number(jobs_invalid_.load()))
               .set("coalesced", Json::number(jobs_coalesced_.load()))
               .set("completed", Json::number(jobs_completed_.load()))
               .set("certified", Json::number(jobs_certified_.load())))
      .set("queue",
           Json::object()
               .set("size", Json::number(static_cast<long long>(queue_.size())))
               .set("capacity",
                    Json::number(static_cast<long long>(queue_.capacity()))))
      .set("cache",
           Json::object()
               .set("hits", Json::number(cache.hits))
               .set("misses", Json::number(cache.misses))
               .set("evictions", Json::number(cache.evictions))
               .set("entries", Json::number(static_cast<long long>(cache.entries)))
               .set("capacity",
                    Json::number(static_cast<long long>(cache.capacity))))
      .set("engine_runs", Json::number(engine_runs_.load()));
}

}  // namespace sfqpart::service
