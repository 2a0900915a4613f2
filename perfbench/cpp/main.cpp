// perfbench: the repo benchmark driver binary.
//
//   perfbench --workload <table_load|churn_fanout|experiment_announce|forward>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--trace-out <path>] [--parts <k>]
//
// Prints progress to stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// when every oracle agreed and no session failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "netbase/log.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] [--trace-out <path>] "
               "[--parts <k>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--parts") {
        args.parts = std::stoul(value);
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0) || !(args.scale > 0) || args.parts == 0)
    usage("bad --seconds/--scale/--parts");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Logger::global().set_threshold(LogLevel::kError);

  Outcome result;
  if (args.workload == "table_load") {
    result = run_table_load(args);
  } else if (args.workload == "churn_fanout") {
    result = run_churn_fanout(args);
  } else if (args.workload == "experiment_announce") {
    result = run_experiment_announce(args);
  } else if (args.workload == "forward") {
    result = run_forward(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  for (const auto& problem : result.problems)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", problem.c_str());
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
