// Command-line entry of the benchmark:
//
//   mantra_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--workdir <dir>] [--reference <file>]
//
// Prints progress and diagnostics on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

void print_result(const mantra::perfbench::RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  mantra::perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--reference") {
      options.reference_file = value;
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  if (options.workload.empty() || options.workdir.empty()) {
    std::cerr << "usage: mantra_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> [--reference <file>]\n";
    return 2;
  }
  try {
    const mantra::perfbench::RunResult result = mantra::perfbench::run_workload(options);
    print_result(result);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
