// perfbench_driver — runs one repetition of one workload and prints its
// result as one JSON line. perfbench/run.py starts one process per
// repetition and aggregates them.
//
//   perfbench_driver --workload drive|attack|ota --seed N --trace 0|1
//                    [--spans FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload drive|attack|ota --seed N "
               "--trace 0|1 [--spans FILE]\n");
  return 2;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }

  perfbench::RunResult result;
  try {
    if (options.workload == "drive") {
      result = perfbench::run_drive(options);
    } else if (options.workload == "attack") {
      result = perfbench::run_attack(options);
    } else if (options.workload == "ota") {
      result = perfbench::run_ota(options);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }

  std::printf("{\"digest\":\"%s\",\"attempted\":%llu,\"failed\":%llu,",
              result.digest.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("\"problems\":[");
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    if (i != 0) std::putchar(',');
    print_json_string(result.problems[i]);
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (i != 0) std::putchar(',');
    print_json_string(result.metrics[i].first);
    std::printf(":%.17g", result.metrics[i].second);
  }
  std::printf("}}\n");
  return 0;
}
