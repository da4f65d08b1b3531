// perfbench: runs one workload at one seed and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "values"}: "values" maps
// every end-to-end metric it measured (--trace 0) or every per-layer metric
// (--trace 1) to its value. perfbench/run.py picks from it the metrics
// BENCHMARK.json lists, with their units. Exits non-zero when a check fails.
//
//   perfbench --workload <usp-ensemble|scann-mixed|serve-rw> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// With --trace 1 the workload runs twice in this process on the same
// inputs: untraced, then traced. Per-layer metrics come from the traced
// pass; trace.overhead.<metric> is traced minus untraced.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "usp-ensemble") return MakeUspEnsembleWorkload();
  if (name == "scann-mixed") return MakeScannMixedWorkload();
  if (name == "serve-rw") return MakeServeRwWorkload();
  return nullptr;
}

// Non-finite values are written as Python's json reads them, so run.py can
// refuse them by name.
std::string JsonNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  workload->Prepare(args.seed);

  Report report;
  std::printf("untraced pass\n");
  Metrics e2e = workload->Run(args.seconds, &report);
  e2e["peak_rss_mib"] = PeakRssMib();

  Metrics out = e2e;
  if (args.trace == 1) {
    Tracer tracer;
    SetActiveTracer(&tracer);
    std::printf("traced pass\n");
    Metrics traced = workload->Run(args.seconds, &report);
    SetActiveTracer(nullptr);
    traced["peak_rss_mib"] = PeakRssMib();
    out = LayerMetrics(tracer);
    for (const auto& [name, value] : e2e) {
      out["trace.overhead." + name] = traced[name] - value;
    }
    if (!args.spans.empty() && !tracer.WriteSpans(args.spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    }
  }

  std::string values;
  for (const auto& [name, value] : out) {
    if (!values.empty()) values += ", ";
    values += "\"" + name + "\": " + JsonNumber(value);
  }
  const bool correct = report.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), values.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
