// Measurements shared by the workloads: tensor::linear rates, cold autotune
// and calibration timings, normalizer layer metrics from replay spans, the
// self-time table, and run provenance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "kernels/autotune.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "model/row_partition.hpp"
#include "obs/trace.hpp"
#include "norm_phase.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace model = haan::model;
namespace tensor = haan::tensor;

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

namespace {

struct LinearRate {
  double gmacs = 0.0;  ///< 1e9 multiply-adds per second
  double gbps = 0.0;   ///< 1e9 bytes (x + W + y) per second
};

LinearRate time_linear(const model::Transformer& model, std::size_t rows,
                       double budget_s) {
  const model::BlockWeights& block = model.weights().blocks.front();
  const std::size_t d = model.config().d_model;
  const std::size_t d_ff = model.config().d_ff;
  haan::common::Rng rng(rows);
  const tensor::Tensor x_d = tensor::Tensor::randn({rows, d}, rng);
  const tensor::Tensor x_ff = tensor::Tensor::randn({rows, d_ff}, rng);
  struct Shape {
    const tensor::Tensor* x;
    const tensor::Tensor* w;
  };
  const Shape shapes[] = {{&x_d, &block.wq}, {&x_d, &block.w_up}, {&x_ff, &block.w_down}};

  double macs = 0.0;
  double bytes = 0.0;
  double busy_s = 0.0;
  while (busy_s < budget_s) {
    for (const Shape& shape : shapes) {
      const std::size_t in = shape.w->shape().dim(1);
      const std::size_t out = shape.w->shape().dim(0);
      const Clock::time_point start = Clock::now();
      {
        HAAN_TRACE_SPAN("tensor::linear", "bench", static_cast<std::uint32_t>(rows),
                        static_cast<std::uint32_t>(out));
        tensor::linear(*shape.x, *shape.w, {});
      }
      busy_s += seconds_since(start);
      macs += static_cast<double>(rows * in * out);
      bytes += 4.0 * static_cast<double>(rows * in + in * out + rows * out);
    }
  }
  return {macs / busy_s / 1e9, bytes / busy_s / 1e9};
}

}  // namespace

void report_standalone_layers(const model::Transformer& model, Report& report) {
  const LinearRate prefill = time_linear(model, kPrefillPackRows, 0.5);
  const LinearRate decode = time_linear(model, kDecodePackRows, 0.3);
  report.metric("tensor.linear_gmacs_prefill", prefill.gmacs, "GMAC/s",
                "rows=1040; MACs computed from tensor sizes");
  report.metric("tensor.linear_gmacs_decode", decode.gmacs, "GMAC/s", "rows=5");
  report.metric("tensor.linear_gbps_prefill", prefill.gbps, "GB/s",
                "bytes computed from tensor sizes");
  report.metric("tensor.linear_gbps_decode", decode.gbps, "GB/s");

  model::Transformer fresh(model.config());
  Clock::time_point start = Clock::now();
  {
    HAAN_TRACE_SPAN("calibrate_skip_plan", "bench");
    haan::core::calibrate_skip_plan(fresh, haan::core::CalibrationOptions{});
  }
  report.metric("core.calibrate_s", seconds_since(start), "s");

  haan::kernels::reset_autotune_for_testing();
  start = Clock::now();
  {
    HAAN_TRACE_SPAN("tuned_for", "bench", static_cast<std::uint32_t>(model.config().d_model));
    haan::kernels::tuned_for(model.config().d_model);
  }
  report.metric("kernels.autotune_s", seconds_since(start), "s", "cold tuned_for(d)");
}

void report_layer_table(const TraceSummary& summary, const std::string& title,
                        Report& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "[%s] %-28s %9s %12s %12s", title.c_str(),
                "span", "count", "total_ms", "self_ms");
  report.layer_line(line);
  for (const auto& [name, stats] : summary.by_name) {
    std::snprintf(line, sizeof(line), "[%s] %-28s %9llu %12.3f %12.3f",
                  title.c_str(), name.c_str(),
                  static_cast<unsigned long long>(stats.count),
                  stats.total_us / 1e3, stats.self_us / 1e3);
    report.layer_line(line);
  }
}

void prepare_tracer(std::size_t events) {
  std::size_t capacity = 1 << 12;
  while (capacity < events + events / 4) capacity <<= 1;
  haan::obs::tracer().set_ring_capacity(capacity);
  haan::obs::tracer().reset();
}

namespace {

/// ns per row of the spans named `name`, split into layers whose ISD `plan`
/// computes and layers whose ISD it predicts.
std::pair<double, double> ns_per_row_by_plan(const TraceSummary& trace, const char* name,
                                             const haan::core::SkipPlan& plan) {
  double computed_us = 0.0, computed_rows = 0.0, skipped_us = 0.0, skipped_rows = 0.0;
  const auto it = trace.by_layer.find(name);
  if (it == trace.by_layer.end()) return {0.0, 0.0};
  for (const auto& [layer, stats] : it->second) {
    if (plan.skips(layer)) {
      skipped_us += stats.total_us;
      skipped_rows += stats.sum_b;
    } else {
      computed_us += stats.total_us;
      computed_rows += stats.sum_b;
    }
  }
  return {computed_rows > 0 ? 1e3 * computed_us / computed_rows : 0.0,
          skipped_rows > 0 ? 1e3 * skipped_us / skipped_rows : 0.0};
}

double ns_per_row(const SpanStats& stats) {
  return stats.sum_b > 0 ? 1e3 * stats.total_us / stats.sum_b : 0.0;
}

}  // namespace

void report_norm_layer_metrics(const TraceSummary& trace, const haan::core::SkipPlan& plan,
                               double elements_read, Report& report) {
  const auto [large_computed, large_skipped] = ns_per_row_by_plan(trace, kHaanLarge, plan);
  const auto [small_computed, small_skipped] = ns_per_row_by_plan(trace, kHaanSmall, plan);
  report.metric("core.computed_layer_ns_per_row", large_computed, "ns/row",
                "large blocks, layers whose ISD is computed");
  report.metric("core.skipped_layer_ns_per_row", large_skipped, "ns/row",
                "large blocks, layers whose ISD is predicted");
  report.metric("core.computed_layer_small_ns_per_row", small_computed, "ns/row",
                "small blocks");
  report.metric("core.skipped_layer_small_ns_per_row", small_skipped, "ns/row",
                "small blocks");
  report.metric("kernels.exact_large_ns_per_row", ns_per_row(trace.get(kExactLarge)),
                "ns/row", "ExactNormProvider, same large blocks");
  report.metric("kernels.exact_small_ns_per_row", ns_per_row(trace.get(kExactSmall)),
                "ns/row", "ExactNormProvider, same small blocks");
  const double haan_s =
      (trace.get(kHaanLarge).total_us + trace.get(kHaanSmall).total_us) / 1e6;
  report.metric("kernels.norm_gbps", haan_s > 0 ? 4.0 * elements_read / haan_s / 1e9 : 0.0,
                "GB/s", "bytes = 4 x core.elements_read (computed, not measured)");
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

const char* autotune_mode_name(haan::kernels::AutotuneMode mode) {
  switch (mode) {
    case haan::kernels::AutotuneMode::kOff:
      return "off";
    case haan::kernels::AutotuneMode::kSafe:
      return "safe";
    case haan::kernels::AutotuneMode::kFull:
      return "full";
  }
  return "?";
}

}  // namespace

void report_provenance(const Options& options, const Env& env,
                       const model::ModelConfig& model, Report& report) {
  report.info("workload", options.workload);
  report.info("seed", std::to_string(options.seed));
  report.info("seconds", std::to_string(options.seconds));
  report.info("commit", options.commit);
  report.info("build", std::string(PERFBENCH_BUILD_TYPE) + ", " + PERFBENCH_COMPILER +
                           ", flags '" + PERFBENCH_CXX_FLAGS + "'");
  report.info("cpu", cpu_model());
  report.info("nproc", std::to_string(env.cpus));
  report.info("numa", haan::mem::topology().describe());
  report.info("model", model.name + " d=" + std::to_string(model.d_model) +
                           " blocks=" + std::to_string(model.n_blocks) +
                           " norm_layers=" + std::to_string(model.norm_layer_count()));
  const haan::kernels::AutotuneChoice& choice = haan::kernels::tuned_for(model.d_model);
  report.info("kernels", std::string("dispatch ") + haan::kernels::active_name() +
                             ", tuned " + choice.table->name + " (" +
                             haan::kernels::to_string(choice.source) + ", rows_tile " +
                             std::to_string(choice.rows_tile) + ")");
  report.info("env",
              "workers=" + std::to_string(env.workers) +
                  " norm_threads=1 HAAN_NORM_THREADS=" + env_or("HAAN_NORM_THREADS", "-") +
                  " (pool default " +
                  std::to_string(model::RowPartitionPool::default_threads()) +
                  ") HAAN_SCHED_POLICY=" + env_or("HAAN_SCHED_POLICY", "-") +
                  " HAAN_NUMA=" + env_or("HAAN_NUMA", "-") + " (" +
                  haan::mem::to_string(haan::mem::numa_mode()) +
                  ") HAAN_AUTOTUNE=" + env_or("HAAN_AUTOTUNE", "unset") + " (" +
                  autotune_mode_name(haan::kernels::autotune_mode()) +
                  ") HAAN_AUTOTUNE_CACHE=" + env_or("HAAN_AUTOTUNE_CACHE", "unset") +
                  " HAAN_PREFILL_CHUNK=" + env_or("HAAN_PREFILL_CHUNK", "unset") +
                  " HAAN_NORM_AFFINITY=" + env_or("HAAN_NORM_AFFINITY", "unset") +
                  " HAAN_FORCE_SCALAR=" + env_or("HAAN_FORCE_SCALAR", "unset"));
}

}  // namespace perfbench
