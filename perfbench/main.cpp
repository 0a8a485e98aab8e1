// The repository benchmark's binary (run.py builds and invokes
// it): parses the options, runs one workload, prints a human-readable
// report and, as the last line of standard output, the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--corrupt-reference] [--trace-out <file>]
//
// The result line carries each metric's name and value; run.py checks
// the names against BENCHMARK.json and adds the units. The exit code is
// 0 only when every checked answer matched its reference; a mismatch
// prints the result with "correct": false and exits 1, and a usage or
// runtime error exits 2 without a result.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Result;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<infinite_sharded|sliding_exact|tenant_serving|sliding_udp> "
               "--seed <n> --seconds <s> --trace <0|1> [--small] "
               "[--corrupt-reference] [--trace-out <file>]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& options, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    try {
      if (arg == "--small") {
        options.small = true;
      } else if (arg == "--corrupt-reference") {
        options.corrupt_reference = true;
      } else if (arg == "--workload" || arg == "--seed" ||
                 arg == "--seconds" || arg == "--trace" ||
                 arg == "--trace-out") {
        const char* v = value();
        if (v == nullptr) {
          error = "missing value for " + arg;
          return false;
        }
        if (arg == "--workload") {
          options.workload = v;
          have_workload = true;
        } else if (arg == "--seed") {
          options.seed = std::stoull(v);
        } else if (arg == "--seconds") {
          options.seconds = std::stod(v);
        } else if (arg == "--trace") {
          const std::string t = v;
          if (t != "0" && t != "1") {
            error = "--trace takes 0 or 1";
            return false;
          }
          options.trace = t == "1";
        } else {
          options.trace_out = v;
        }
      } else {
        error = "unknown argument " + arg;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + arg;
      return false;
    }
  }
  if (!have_workload) {
    error = "--workload is required";
    return false;
  }
  if (!(options.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

/// The metrics of the result line, by name: end-to-end metrics
/// untraced, per-layer metrics traced. run.py attaches the units from
/// BENCHMARK.json; a layer a workload never calls is left out (and
/// reads 0 there).
std::map<std::string, double> result_metrics(const Options& options,
                                             const Result& r) {
  // The fastest of the reported episodes (see harness.h for why); the
  // heap peak is the same in every episode of a seed.
  using perfbench::median;
  using perfbench::min_of;
  const std::map<std::string, double> out =
      options.trace ? r.layers
                    : std::map<std::string, double>{
                          {"setup_s", min_of(r.setup_s)},
                          {"ingest_arr_per_s", r.ingest_arr_per_s},
                          {"query_p50_us", r.p50_us},
                          {"query_p99_us", r.p99_us},
                          {"site_state_peak", static_cast<double>(r.state_peak)},
                          {"heap_peak_kib", median(r.heap_kib)},
                      };
  for (const auto& [name, value] : out) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse(argc, argv, options, error)) return usage(error.c_str());

  struct Workload {
    const char* name;
    Result (*run)(const Options&);
  };
  const Workload workloads[] = {
      {"infinite_sharded", perfbench::run_infinite_sharded},
      {"sliding_exact", perfbench::run_sliding_exact},
      {"tenant_serving", perfbench::run_tenant_serving},
      {"sliding_udp", perfbench::run_sliding_udp},
  };
  const Workload* which = nullptr;
  for (const Workload& w : workloads) {
    if (options.workload == w.name) which = &w;
  }
  if (which == nullptr) {
    return usage(("unknown workload " + options.workload).c_str());
  }

  try {
    const Result r = which->run(options);
    if (r.checked == 0 || r.arrivals == 0) {
      throw std::runtime_error("workload checked no answers");
    }
    const double n = static_cast<double>(r.arrivals);
    std::printf("workload %s  seed %llu  trace %d  episodes %llu (%llu "
                "reported)  arrivals/episode %llu\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0,
                static_cast<unsigned long long>(r.episodes),
                static_cast<unsigned long long>(r.reported),
                static_cast<unsigned long long>(r.arrivals));
    std::printf("queries/episode %llu (%.0f beyond p99)  checked %llu  "
                "query_mismatch_rate %.6g\n",
                static_cast<unsigned long long>(r.queries_per_episode),
                std::floor(static_cast<double>(r.queries_per_episode) * 0.01),
                static_cast<unsigned long long>(r.checked),
                static_cast<double>(r.failed) /
                    static_cast<double>(r.checked));
    std::printf("msgs_per_arrival %.6g  wire_bytes_per_arrival %.6g\n",
                static_cast<double>(r.msgs) / n,
                static_cast<double>(r.wire_bytes) / n);
    for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());

    const std::map<std::string, double> metrics = result_metrics(options, r);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"values\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.checked),
                static_cast<unsigned long long>(r.failed));
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
