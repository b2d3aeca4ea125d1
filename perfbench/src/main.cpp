// perfbench: the repository benchmark binary.
//
//   perfbench --workload <prefill_batch|decode_open|norm_stream> --seed N
//             --seconds S --trace <0|1> [--commit C] [--out-dir DIR]
//
// --trace 0 prints every end-to-end metric, measured with tracing off.
// --trace 1 runs the workload untraced and then traced on identical inputs
// and prints the per-layer metrics of the layers the workload exercises
// (perfbench/run.py fills in the others as 0 and checks every name and unit
// against BENCHMARK.json). The last stdout line is the JSON result. Exit code
// 1 when any output check fails, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

// Variables that change how the program executes. The benchmark pins the
// ones that select a mode and clears the rest, so settings of the calling
// shell (CI legs, developer experiments) cannot leak into the numbers.
void pin_environment() {
  for (const char* name : {"HAAN_PREFILL_CHUNK", "HAAN_AUTOTUNE", "HAAN_AUTOTUNE_CACHE",
                           "HAAN_NORM_AFFINITY", "HAAN_FORCE_SCALAR"}) {
    unsetenv(name);
  }
  setenv("HAAN_NORM_THREADS", "1", 1);
  setenv("HAAN_SCHED_POLICY", "fifo", 1);
  setenv("HAAN_NUMA", "auto", 1);
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <prefill_batch|decode_open|"
               "norm_stream> --seed N --seconds S --trace <0|1> [--commit C] "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();

  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &rest, 10);
      have_seed = rest != nullptr && *rest == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &rest);
      have_seconds = rest != nullptr && *rest == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 3600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("bad or missing --seed/--seconds/--trace");

  perfbench::Env env;
  env.cpus = usable_cpus();
  env.workers = env.cpus;  // x 1 norm thread each

  perfbench::Report report;
  if (options.workload == "prefill_batch") {
    perfbench::run_prefill_batch(options, env, report);
  } else if (options.workload == "decode_open") {
    perfbench::run_decode_open(options, env, report);
  } else if (options.workload == "norm_stream") {
    perfbench::run_norm_stream(options, env, report);
  } else {
    usage(("unknown workload '" + options.workload + "'").c_str());
  }
  report.print(options.trace);
  return report.correct() ? 0 : 1;
}
