// perfbench driver — runs one benchmark workload in this process and
// prints its raw results as one JSON object on stdout.
//
//   perfbench_driver --workload hairpin_l2|flow_churn|stateful_gw
//                    --seed N [--spans PATH]
//
// With --spans the run is traced: per-name span totals join the
// results, and the spans of the measured window are written to PATH as
// JSON lines.
//
// run.py starts one fresh process per workload run (the thread-local
// frame pool, lazy set-up and the RSS high-water mark would otherwise
// carry over) and derives the metrics from these numbers.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload hairpin_l2|flow_churn|stateful_gw "
               "--seed N [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed) return usage();

  const bool trace = !spans_path.empty();
  perfbench::Tracer tracer(trace);
  perfbench::SpeedProbe probe;
  perfbench::Options options{seed, &tracer, &probe};
  perfbench::Report report;
  try {
    if (workload == "hairpin_l2")
      report = perfbench::run_hairpin_l2(options);
    else if (workload == "flow_churn")
      report = perfbench::run_flow_churn(options);
    else if (workload == "stateful_gw")
      report = perfbench::run_stateful_gw(options);
    else
      return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", workload.c_str(), error.what());
    return 1;
  }
  if (trace && !tracer.write_spans(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host\": %s, "
              "\"model\": %s, \"drops\": %s}\n",
              workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
              report.host.json().c_str(), report.model.json().c_str(),
              report.drops.json().c_str());
  return 0;
}
