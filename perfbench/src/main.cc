// perfbench: the sparsedet end-to-end benchmark.
//
//   perfbench --workload study_batch|serve_cached|simulate_mc --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. Diagnostics go to standard error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void PrintResult(const perfbench::Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " was not measured");
    }
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i == 0 ? "\"" : ", \"") + Escape(m.name) + "\": {\"value\": " +
            value + ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload study_batch|serve_cached|simulate_mc"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");

  try {
    perfbench::Report report;
    if (options.workload != "study_batch" && options.workload != "serve_cached" &&
        options.workload != "simulate_mc") {
      Usage("unknown workload \"" + options.workload + "\"");
    }
    if (options.trace) {
      report = perfbench::RunTraced(options);
    } else if (options.workload == "study_batch") {
      report = perfbench::RunStudyBatch(options);
    } else if (options.workload == "serve_cached") {
      report = perfbench::RunServeCached(options);
    } else {
      report = perfbench::RunSimulateMc(options);
    }
    for (const std::string& problem : report.problems) {
      std::cerr << "perfbench: check failed: " << problem << "\n";
    }
    PrintResult(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
