// sfqpartd — the partition service daemon.
//
// Reads sfqpart.job.v1 lines on stdin, writes sfqpart.job_response.v1
// lines on stdout (completion order; correlate by id), and exits after
// EOF or a {"cmd": "shutdown"} line once every accepted job has been
// answered. See DESIGN.md section 11 and the README "Running as a
// service" quickstart.
//
//   $ printf '{"schema":"sfqpart.job.v1","id":"a","circuit":"ksa8"}\n' |
//       sfqpartd --workers 2
#include <cstdio>
#include <iostream>

#include "service/daemon.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace sfqpart;

  OptionsParser parser(
      "sfqpartd: long-lived partition service. JSON-lines jobs "
      "(sfqpart.job.v1) on stdin, one response per job on stdout.");
  parser.add_int("workers", 2, "worker threads executing jobs");
  parser.add_int("threads-per-job", 1,
                 "thread budget per job (caps the job's 'threads' option)");
  parser.add_int("queue-capacity", 64,
                 "bounded job queue; beyond this jobs are rejected "
                 "(queue_full)");
  parser.add_int("cache-capacity", 256, "result cache entries");
  parser.add_flag("no-certify", false,
                  "skip the server-side result certification that otherwise "
                  "runs once per executed job before the cache insert");
  parser.add_flag("help", false, "show this help");
  if (auto st = parser.parse(argc - 1, argv + 1); !st) {
    std::fprintf(stderr, "%s\n%s", st.message().c_str(),
                 parser.usage().c_str());
    return 1;
  }
  if (parser.get_flag("help")) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }

  // Checked before the Daemon starts a thread or sizes a container: a
  // negative count must not wrap to a huge unsigned one.
  for (const char* flag : {"workers", "threads-per-job"}) {
    const long long value = parser.get_int(flag);
    if (value < 1 || value > 512) {
      std::fprintf(stderr, "sfqpartd: --%s = %lld is out of range [1, 512]\n",
                   flag, value);
      return 1;
    }
  }
  for (const char* flag : {"queue-capacity", "cache-capacity"}) {
    const long long value = parser.get_int(flag);
    if (value < 1) {
      std::fprintf(stderr, "sfqpartd: --%s = %lld must be >= 1\n", flag,
                   value);
      return 1;
    }
  }

  service::DaemonOptions options;
  options.workers = static_cast<int>(parser.get_int("workers"));
  options.threads_per_job = static_cast<int>(parser.get_int("threads-per-job"));
  options.queue_capacity =
      static_cast<std::size_t>(parser.get_int("queue-capacity"));
  options.cache_capacity =
      static_cast<std::size_t>(parser.get_int("cache-capacity"));
  options.certify = !parser.get_flag("no-certify");

  service::Daemon daemon(options);
  daemon.serve(std::cin, std::cout);
  return 0;
}
