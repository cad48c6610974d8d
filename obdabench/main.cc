// obdabench: one phase of the end-to-end OBDA benchmark.
//
//   obdabench --workload paper_cold|warm_parallel|serve_durable
//             [--phase paper_cold|warm_parallel|serve_durable]
//             --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//             [--slices N]
//
// Runs `--phase` (default: the workload's own phase) as the main dose when
// it is the workload's phase and as the reduced companion dose otherwise.
// run.py runs every phase of a workload, each in its own process, hands
// the turn between them slice by slice (--slices: "yield" / "go" lines on
// stdout / stdin, see AwaitTurn) and merges their results.  Prints one JSON
// object as its last line: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) this phase produced.  Exits 0 when every operation completed
// and every output check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

enum class Phase { kPaperCold, kWarmParallel, kServeDurable };

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W [--phase W] --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR] [--slices N]\n"
               "  W: paper_cold | warm_parallel | serve_durable\n",
               argv0);
  return 2;
}

bool ParsePhase(const std::string& name, Phase* out) {
  if (name == "paper_cold") {
    *out = Phase::kPaperCold;
  } else if (name == "warm_parallel") {
    *out = Phase::kWarmParallel;
  } else if (name == "serve_durable") {
    *out = Phase::kServeDurable;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace obdabench;
  Options options;
  options.process_start = Clock::now();
  std::string phase_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--phase" && has_value) {
      phase_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--slices" && has_value) {
      options.slices = std::max(1, std::atoi(argv[++i]));
      options.turns = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (phase_name.empty()) phase_name = options.workload;
  Phase workload_phase;
  Phase phase;
  if (!ParsePhase(options.workload, &workload_phase) ||
      !ParsePhase(phase_name, &phase)) {
    return PrintUsage(argv[0]);
  }

  Tracer tracer(options.trace);
  Report report;
  options.main = phase == workload_phase;
  switch (phase) {
    case Phase::kPaperCold:
      RunPaperCold(options, &tracer, &report);
      break;
    case Phase::kWarmParallel:
      RunWarmParallel(options, &tracer, &report);
      break;
    case Phase::kServeDurable:
      RunServeDurable(options, &tracer, &report);
      break;
  }

  if (tracer.enabled()) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-" + phase_name + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      report.CheckFailed("could not write spans to " + path);
    } else {
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.size(),
                   path.c_str());
    }
    // The end-to-end figures of the traced run, for the tracing overhead.
    std::fprintf(stderr, "untraced metrics of this traced run: %s\n",
                 report.ToJson(false).c_str());
  }
  std::printf("%s\n", report.ToJson(options.trace).c_str());
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
