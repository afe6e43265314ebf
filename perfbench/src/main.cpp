// perfbench — the repository benchmark.
//
//   perfbench --workload <resnet-steal|transformer-steal|serve-transformer>
//             --seed <n> --seconds <s> --trace <0|1> [--quick 1]
//             [--param key=value ...] [--git-sha <sha>] [--src-digest <hex>]
//             [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with nothing but step/request
// clocks on the hot path; --trace 1 is the separate traced run that times
// each layer's public calls from this benchmark's own files. The last line
// of stdout is the one-line JSON result; the exit code is non-zero when any
// operation failed its correctness check. Normally driven by
// perfbench/run.py, which builds this binary and passes the workload
// parameters from perfbench/workloads.json.

#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "perfbench/src/bench.h"

namespace {

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val) != 0;
    } else if (key == "--quick") {
      a.quick = std::stoi(val) != 0;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--src-digest") {
      a.src_digest = val;
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else if (key == "--param") {
      auto eq = val.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--param wants key=value");
      a.params[val.substr(0, eq)] = val.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::Args args = parse_args(argc, argv);
    perfbench::Report report;
    if (args.workload == "resnet-steal" || args.workload == "transformer-steal") {
      perfbench::run_train(args, report);
    } else if (args.workload == "serve-transformer") {
      perfbench::run_serve(args, report);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    report.print();
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
