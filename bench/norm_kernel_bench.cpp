// Per-kernel ns/element across d in {768, 2048, 4096, 8192}: every backend's
// kernels plus the seed's scalar two-pass path (separate residual add, exact
// double-precision stats, temp normalize buffer, separate affine pass) as the
// pre-kernel-layer baseline. The JSON report is the anchor recorded in
// bench/kernel_baseline.json; --min-speedup gates CI on the fused vectorized
// residual_add_rmsnorm at d=4096 staying ahead of the seed path.
//
// The linear section times KernelTable::linear per backend in GMAC/s on the
// gpt2-117m surrogate's projection shapes (1040-row prefill packs and 5-row
// decode packs), fails the run if any backend's output differs from scalar
// by a single bit, and --min-linear-speedup gates the dispatched kernel
// against scalar at 1040x128x512.
//
// The gelu section times KernelTable::gelu per backend in ns/element on a
// 1040x512 block (a 1040-row prefill pack's MLP activations), fails the run
// if any backend's output differs from scalar by a single bit, and
// --min-gelu-speedup gates the dispatched kernel against scalar there.
// --gelu-all-inputs additionally checks the dispatched kernel against scalar
// on every one of the 2^32 float inputs (about 30 s on 4 vCPUs).
//
// The attend section times KernelTable::attend per backend in ns per
// multiply-add term (one p_j * v_j[c]) on the gpt2-117m surrogate's attention
// shapes: a 192-token prefill (4 heads, d_head 32) and one decode row over a
// 64-token context. It fails the run if any backend's output differs from
// scalar by a single bit, and --min-attend-speedup gates the dispatched
// kernel against scalar on the prefill shape.
//
//   ./build/bench/norm_kernel_bench --json=bench/kernel_baseline.json
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json_lite.hpp"
#include "common/rng.hpp"
#include "core/haan_norm.hpp"
#include "kernels/autotune.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "model/norm_provider.hpp"
#include "numerics/formats.hpp"
#include "tensor/ops.hpp"

using namespace haan;

namespace {

/// Nominal bytes moved per element by each measured op (float = 4 B per
/// touched stream), so ns/element converts to an effective bandwidth:
/// GB/s = bytes_per_element / ns_per_element. "Nominal" counts the streams
/// the op's contract touches, not cache-line traffic.
constexpr double kStatsBytes = 4.0;              // read z
constexpr double kResidualAddStatsBytes = 12.0;  // read h + r, write h
constexpr double kNormalizeAffineBytes = 16.0;   // read z + alpha + beta, write out
constexpr double kQuantizeBytes = 8.0;           // read + write in place
/// Fused residual+RMSNorm: add pass (12) + normalize pass (16).
constexpr double kFusedRmsBytes = 28.0;
/// LayerNorm adds the centered second-moment re-read of h.
constexpr double kFusedLayerBytes = 32.0;

double gbps(double bytes_per_element, double ns_per_element) {
  return ns_per_element > 0.0 ? bytes_per_element / ns_per_element : 0.0;
}

double g_sink = 0.0;  // defeats dead-code elimination across measurements

void sink(double v) {
  g_sink += v;
  asm volatile("" : : "r,m"(g_sink) : "memory");
}

/// Median-free simple timer: calibrates an iteration count to ~target_ms,
/// then reports ns per element over the timed loop.
double time_ns_per_element(const std::function<void()>& op, std::size_t d,
                           double target_ms) {
  using Clock = std::chrono::steady_clock;
  op();  // warm up caches and code
  std::size_t iters = 1;
  for (;;) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin)
            .count());
    if (ns >= target_ms * 1e6 || iters >= (1u << 24)) {
      return ns / static_cast<double>(iters) / static_cast<double>(d);
    }
    const double scale = ns > 0.0 ? (target_ms * 1.2e6) / ns : 16.0;
    iters = static_cast<std::size_t>(static_cast<double>(iters) *
                                     std::max(2.0, scale));
  }
}

/// The seed's pre-kernel-layer residual + norm sequence, verbatim: one add
/// pass, exact_stats (sum/sum_sq pass + centered two-pass variance), a temp
/// normalized buffer, and a separate affine pass.
void seed_residual_norm(std::vector<float>& h, const std::vector<float>& r,
                        const std::vector<float>& alpha,
                        const std::vector<float>& beta, std::vector<float>& out,
                        bool layernorm, double eps) {
  const std::size_t n = h.size();
  for (std::size_t i = 0; i < n; ++i) h[i] += r[i];
  double sum = 0.0, sum_sq = 0.0;
  for (const float v : h) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double dn = static_cast<double>(n);
  const double mean = sum / dn;
  double acc = 0.0;
  for (const float v : h) {
    const double dv = v - mean;
    acc += dv * dv;
  }
  const double variance = acc / dn;
  const double rms = std::sqrt(sum_sq / dn);
  double isd;
  double shift;
  if (layernorm) {
    isd = 1.0 / std::sqrt(variance + eps);
    shift = mean;
  } else {
    isd = 1.0 / std::sqrt(rms * rms + eps);
    shift = 0.0;
  }
  std::vector<float> normalized(n);
  for (std::size_t i = 0; i < n; ++i) {
    normalized[i] = static_cast<float>((h[i] - shift) * isd);
  }
  for (std::size_t i = 0; i < n; ++i) {
    float v = normalized[i];
    v *= alpha[i];
    v += beta[i];
    out[i] = v;
  }
}

struct Workspace {
  std::vector<float> h, residual, alpha, beta, out, quant;

  explicit Workspace(std::size_t d) : h(d), residual(d), alpha(d), beta(d), out(d), quant(d) {
    common::Rng rng(d);
    rng.fill_gaussian(h, 0.2, 1.5);
    rng.fill_gaussian(residual, 0.0, 0.02);  // keeps repeated adds bounded
    rng.fill_gaussian(alpha, 1.0, 0.1);
    rng.fill_gaussian(beta, 0.0, 0.2);
    rng.fill_gaussian(quant, 0.0, 2.0);
  }
};

/// A (rows x d) block workspace for the row-block measurements.
struct RowWorkspace {
  std::size_t rows, d;
  std::vector<float> h, residual, alpha, beta, out;

  RowWorkspace(std::size_t rows_, std::size_t d_)
      : rows(rows_), d(d_), h(rows_ * d_), residual(rows_ * d_), alpha(d_),
        beta(d_), out(rows_ * d_) {
    common::Rng rng(rows_ * 31 + d_);
    rng.fill_gaussian(h, 0.2, 1.5);
    rng.fill_gaussian(residual, 0.0, 0.02);
    rng.fill_gaussian(alpha, 1.0, 0.1);
    rng.fill_gaussian(beta, 0.0, 0.2);
  }

  std::span<float> row(std::vector<float>& v, std::size_t r) {
    return std::span(v).subspan(r * d, d);
  }
};

/// The provider-seam comparison this PR is about: one virtual fused call per
/// token row (the seed execution model) vs one batched row-block call per
/// norm layer. `haan-full` semantics (full-vector stats, FP32 operands) keep
/// both paths deterministic and predictor-free.
struct RowBlockTimings {
  double per_row_ns = 0.0;
  double rowblock_ns = 0.0;

  double speedup() const {
    return rowblock_ns > 0.0 ? per_row_ns / rowblock_ns : 0.0;
  }
};

RowBlockTimings time_provider_rowblock(model::NormProvider& provider,
                                       RowWorkspace& ws, double target_ms) {
  using model::NormKind;
  const std::size_t rows = ws.rows;
  RowBlockTimings t;
  t.per_row_ns = time_ns_per_element(
      [&] {
        for (std::size_t r = 0; r < rows; ++r) {
          provider.residual_add_normalize(0, r, NormKind::kRMSNorm,
                                          ws.row(ws.h, r), ws.row(ws.residual, r),
                                          ws.alpha, ws.beta, ws.row(ws.out, r));
        }
        sink(ws.out[0]);
      },
      rows * ws.d, target_ms);
  t.rowblock_ns = time_ns_per_element(
      [&] {
        provider.residual_add_normalize_rows(0, 0, NormKind::kRMSNorm, rows,
                                             ws.h, ws.residual, ws.alpha,
                                             ws.beta, ws.out);
        sink(ws.out[0]);
      },
      rows * ws.d, target_ms);
  return t;
}

/// One projection shape of the linear section: (n x in) * (out x in)^T.
struct LinearShape {
  std::size_t n, in, out;
};

struct LinearSection {
  common::Json::Array entries;
  double speedup_1040x128x512 = 0.0;  ///< dispatched vs scalar
  bool bit_identical = true;
};

/// Times KernelTable::linear for every backend family on each shape and
/// checks each backend's output bytes against scalar.
LinearSection run_linear_section(double target_ms) {
  const LinearShape shapes[] = {{1040, 128, 128}, {1040, 128, 512},
                                {1040, 512, 128}, {5, 128, 128},
                                {5, 128, 512},    {5, 512, 128}};
  LinearSection section;
  common::Rng rng(0x11EA);
  std::printf("--- linear: GMAC/s per backend (bit-identity vs scalar) ---\n");
  for (const LinearShape& shape : shapes) {
    std::vector<float> x(shape.n * shape.in), w(shape.out * shape.in),
        bias(shape.out);
    rng.fill_gaussian(x, 0.0, 1.0);
    rng.fill_gaussian(w, 0.0, 0.1);
    rng.fill_gaussian(bias, 0.0, 0.1);
    const auto run = [&](const kernels::KernelTable& table,
                         std::vector<float>& y) {
      table.linear(shape.n, shape.in, shape.out, x.data(), shape.in, w.data(),
                   shape.in, bias.data(), y.data(), shape.out);
    };
    std::vector<float> expected(shape.n * shape.out);
    run(kernels::scalar_kernels(), expected);

    const std::size_t macs = shape.n * shape.in * shape.out;
    common::Json::Object gmacs;
    double scalar_gmacs = 0.0, active_gmacs = 0.0;
    std::string line;
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      std::vector<float> y(expected.size());
      run(*table, y);
      if (std::memcmp(y.data(), expected.data(), y.size() * sizeof(float)) !=
          0) {
        std::fprintf(stderr, "FAIL: linear %zux%zux%zu on %s differs from scalar\n",
                     shape.n, shape.in, shape.out, table->name);
        section.bit_identical = false;
      }
      const double ns_per_mac = time_ns_per_element(
          [&] {
            run(*table, y);
            sink(y[0]);
          },
          macs, target_ms);
      const double rate = ns_per_mac > 0.0 ? 1.0 / ns_per_mac : 0.0;
      gmacs[table->name] = rate;
      if (table == &kernels::scalar_kernels()) scalar_gmacs = rate;
      if (table == &kernels::active()) active_gmacs = rate;
      char cell[64];
      std::snprintf(cell, sizeof(cell), "  %s %6.2f", table->name, rate);
      line += cell;
    }
    const double speedup = scalar_gmacs > 0.0 ? active_gmacs / scalar_gmacs : 0.0;
    common::Json::Object entry;
    entry["n"] = shape.n;
    entry["in"] = shape.in;
    entry["out"] = shape.out;
    entry["gmacs"] = gmacs;
    entry["speedup_vs_scalar"] = speedup;
    section.entries.push_back(entry);
    if (shape.n == 1040 && shape.in == 128 && shape.out == 512) {
      section.speedup_1040x128x512 = speedup;
    }
    std::printf("%4zux%3zux%3zu GMAC/s:%s  (%s %5.2fx scalar)\n", shape.n,
                shape.in, shape.out, line.c_str(), kernels::active_name(),
                speedup);
  }
  return section;
}

struct GeluSection {
  common::Json::Object ns_per_element;  ///< per backend family
  double speedup = 0.0;                 ///< dispatched vs scalar
  bool bit_identical = true;
};

/// Times KernelTable::gelu for every backend family on a 1040 x 512 block of
/// N(0, 1) activations and checks each backend's output bytes against
/// scalar. Each timed call first restores the block with a memcpy, which
/// the ns/element figure includes.
GeluSection run_gelu_section(double target_ms) {
  constexpr std::size_t kRows = 1040;
  constexpr std::size_t kCols = 512;
  constexpr std::size_t kCount = kRows * kCols;
  std::vector<float> input(kCount);
  common::Rng rng(0x6E1u);
  rng.fill_gaussian(input, 0.0, 1.0);
  std::vector<float> expected = input;
  kernels::scalar_kernels().gelu(expected.data(), kCount);

  GeluSection section;
  double scalar_ns = 0.0, active_ns = 0.0;
  std::string line;
  std::printf("--- gelu: ns/element per backend on %zux%zu (bit-identity vs "
              "scalar) ---\n",
              kRows, kCols);
  for (const kernels::KernelTable* table : kernels::supported_kernels()) {
    std::vector<float> work = input;
    table->gelu(work.data(), kCount);
    if (std::memcmp(work.data(), expected.data(), kCount * sizeof(float)) !=
        0) {
      std::fprintf(stderr, "FAIL: gelu on %s differs from scalar\n",
                   table->name);
      section.bit_identical = false;
    }
    const double ns = time_ns_per_element(
        [&] {
          std::memcpy(work.data(), input.data(), kCount * sizeof(float));
          table->gelu(work.data(), kCount);
          sink(work[0]);
        },
        kCount, target_ms);
    section.ns_per_element[table->name] = ns;
    if (table == &kernels::scalar_kernels()) scalar_ns = ns;
    if (table == &kernels::active()) active_ns = ns;
    char cell[64];
    std::snprintf(cell, sizeof(cell), "  %s %6.2f", table->name, ns);
    line += cell;
  }
  section.speedup = active_ns > 0.0 ? scalar_ns / active_ns : 0.0;
  std::printf("ns/element:%s  (%s %5.2fx scalar)\n", line.c_str(),
              kernels::active_name(), section.speedup);
  return section;
}

/// One attention shape of the attend section: `rows` query rows after a
/// cached prefix of ctx0 rows, each of `heads` heads d_head wide.
struct AttendShape {
  const char* name;
  std::size_t rows, ctx0, heads, d_head;
};

struct AttendSection {
  common::Json::Array entries;
  double speedup_prefill = 0.0;  ///< dispatched vs scalar
  bool bit_identical = true;
};

/// Times KernelTable::attend for every backend family on each shape over
/// every head (the layout causal attention uses: head slices of
/// d_model-strided V and context rows, one probability block per head, each
/// row a softmax over its causal prefix) and checks each backend's output
/// bytes against scalar. Each timed call first zeroes the context block,
/// which the ns figure includes.
AttendSection run_attend_section(double target_ms) {
  const AttendShape shapes[] = {{"prefill", 192, 0, 4, 32},
                                {"decode", 1, 63, 4, 32}};
  AttendSection section;
  common::Rng rng(0xA77E);
  std::printf("--- attend: ns/term per backend (bit-identity vs scalar) ---\n");
  for (const AttendShape& shape : shapes) {
    const std::size_t d_model = shape.heads * shape.d_head;
    const std::size_t ctx = shape.ctx0 + shape.rows;
    std::vector<float> v(ctx * d_model), p(shape.heads * shape.rows * ctx);
    rng.fill_gaussian(v, 0.0, 1.0);
    rng.fill_gaussian(p, 0.0, 2.0);
    std::size_t terms = 0;
    for (std::size_t r = 0; r < shape.heads * shape.rows; ++r) {
      const std::size_t prefix = shape.ctx0 + r % shape.rows + 1;
      tensor::softmax_inplace(std::span<float>(p.data() + r * ctx, prefix));
      terms += prefix * shape.d_head;
    }
    const auto run = [&](const kernels::KernelTable& table,
                         std::vector<float>& out) {
      std::fill(out.begin(), out.end(), 0.0f);
      for (std::size_t h = 0; h < shape.heads; ++h) {
        table.attend(shape.rows, shape.ctx0, shape.d_head,
                     p.data() + h * shape.rows * ctx, ctx,
                     v.data() + h * shape.d_head, d_model,
                     out.data() + h * shape.d_head, d_model);
      }
    };
    std::vector<float> expected(shape.rows * d_model);
    run(kernels::scalar_kernels(), expected);

    common::Json::Object ns_per_term;
    double scalar_ns = 0.0, active_ns = 0.0;
    std::string line;
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      std::vector<float> out(expected.size());
      run(*table, out);
      if (std::memcmp(out.data(), expected.data(),
                      out.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: attend %s on %s differs from scalar\n",
                     shape.name, table->name);
        section.bit_identical = false;
      }
      const double ns = time_ns_per_element(
          [&] {
            run(*table, out);
            sink(out[0]);
          },
          terms, target_ms);
      ns_per_term[table->name] = ns;
      if (table == &kernels::scalar_kernels()) scalar_ns = ns;
      if (table == &kernels::active()) active_ns = ns;
      char cell[64];
      std::snprintf(cell, sizeof(cell), "  %s %6.3f", table->name, ns);
      line += cell;
    }
    const double speedup = active_ns > 0.0 ? scalar_ns / active_ns : 0.0;
    common::Json::Object entry;
    entry["shape"] = shape.name;
    entry["rows"] = shape.rows;
    entry["ctx0"] = shape.ctx0;
    entry["heads"] = shape.heads;
    entry["d_head"] = shape.d_head;
    entry["ns_per_term"] = ns_per_term;
    entry["speedup_vs_scalar"] = speedup;
    section.entries.push_back(entry);
    if (shape.ctx0 == 0) section.speedup_prefill = speedup;
    std::printf("%-7s rows=%3zu ctx0=%2zu ns/term:%s  (%s %5.2fx scalar)\n",
                shape.name, shape.rows, shape.ctx0, line.c_str(),
                kernels::active_name(), speedup);
  }
  return section;
}

/// Runs the dispatched gelu and the scalar reference over all 2^32 float
/// bit patterns on `threads` workers and returns how many outputs differ
/// (NaN matches any NaN: the payload is outside the contract).
std::uint64_t gelu_all_inputs_mismatches(unsigned threads) {
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr std::size_t kBlock = 1 << 14;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> expected(kBlock), actual(kBlock);
      std::uint64_t local = 0;
      for (std::uint64_t base = t * kBlock; base < kAll;
           base += std::uint64_t{threads} * kBlock) {
        for (std::size_t i = 0; i < kBlock; ++i) {
          expected[i] =
              std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
        }
        actual = expected;
        kernels::scalar_kernels().gelu(expected.data(), kBlock);
        kernels::active().gelu(actual.data(), kBlock);
        if (std::memcmp(expected.data(), actual.data(),
                        kBlock * sizeof(float)) == 0) {
          continue;
        }
        for (std::size_t i = 0; i < kBlock; ++i) {
          if (std::isnan(expected[i]) && std::isnan(actual[i])) continue;
          if (std::bit_cast<std::uint32_t>(expected[i]) !=
              std::bit_cast<std::uint32_t>(actual[i])) {
            if (local++ == 0) {
              std::fprintf(stderr,
                           "gelu input %08x: scalar %08x, %s %08x\n",
                           static_cast<unsigned>(base + i),
                           std::bit_cast<std::uint32_t>(expected[i]),
                           kernels::active_name(),
                           std::bit_cast<std::uint32_t>(actual[i]));
            }
          }
        }
      }
      mismatches += local;
    });
  }
  for (std::thread& worker : workers) worker.join();
  return mismatches.load();
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("normalization kernel microbenchmark");
  cli.add_flag("target-ms", "25", "per-measurement timed-loop budget, ms");
  cli.add_flag("min-speedup", "0",
               "fail unless fused residual_add_rmsnorm at d=4096 beats the "
               "seed scalar path by this factor (0 disables)");
  cli.add_flag("min-rowblock-speedup", "0",
               "fail unless the batched row-block provider path at d=4096, "
               "rows=64 beats the per-row provider path by this factor "
               "(0 disables)");
  cli.add_flag("min-linear-speedup", "0",
               "fail unless the dispatched linear kernel at 1040x128x512 "
               "beats the scalar reference by this factor (0 disables)");
  cli.add_flag("min-gelu-speedup", "0",
               "fail unless the dispatched gelu kernel on the 1040x512 block "
               "beats the scalar reference by this factor (0 disables)");
  cli.add_flag("gelu-all-inputs", "0",
               "check the dispatched gelu kernel against scalar on all 2^32 "
               "float inputs (up to 4 threads) and fail on any difference");
  cli.add_flag("min-attend-speedup", "0",
               "fail unless the dispatched attend kernel on the 192-token "
               "prefill shape beats the scalar reference by this factor "
               "(0 disables)");
  cli.add_flag("json", "", "write the report as JSON to this path");
  cli.add_flag("tune", "0",
               "run the autotune sweep: per (d, rows) cell compare the static "
               "dispatch table against kernels::tuned_for(d) with the tuner's "
               "own measurement harness");
  cli.add_flag("min-tune-ratio", "0",
               "with --tune, fail unless static_ns/tuned_ns >= this ratio in "
               "every swept cell (0 disables; use <1, e.g. 0.9, for noise "
               "headroom)");
  cli.add_flag("autotune-cache", "",
               "autotune decision cache path (overrides HAAN_AUTOTUNE_CACHE)");
  if (!cli.parse(argc, argv)) return cli.error() ? 1 : 0;

  if (!cli.get("autotune-cache").empty()) {
    kernels::set_autotune_cache_path(cli.get("autotune-cache"));
  }

  const double target_ms = cli.get_double("target-ms");
  const double min_speedup = cli.get_double("min-speedup");
  const std::vector<std::size_t> dims = {768, 2048, 4096, 8192};
  constexpr double kEps = 1e-5;

  std::printf("=== norm_kernel_bench — active dispatch: %s ===\n",
              kernels::active_name());
  std::printf("topology: %s, numa=%s%s\n", mem::topology().describe().c_str(),
              mem::to_string(mem::numa_mode()),
              mem::topology().discovered() ? "" : " (sysfs fallback)");

  common::Json::Array results;
  double rmsnorm_speedup_4096 = 0.0;
  for (const std::size_t d : dims) {
    Workspace ws(d);
    common::Json::Object per_backend;

    // Seed reference: the pre-kernel-layer five-pass scalar path.
    common::Json::Object seed_ref;
    seed_ref["residual_add_rmsnorm"] = time_ns_per_element(
        [&] {
          seed_residual_norm(ws.h, ws.residual, ws.alpha, ws.beta, ws.out,
                             /*layernorm=*/false, kEps);
          sink(ws.out[0]);
        },
        d, target_ms);
    seed_ref["residual_add_layernorm"] = time_ns_per_element(
        [&] {
          seed_residual_norm(ws.h, ws.residual, ws.alpha, ws.beta, ws.out,
                             /*layernorm=*/true, kEps);
          sink(ws.out[0]);
        },
        d, target_ms);
    per_backend["seed_ref"] = seed_ref;

    double active_fused_rmsnorm = 0.0;
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      common::Json::Object ops;
      const auto record = [&ops](const char* name, double bytes_per_element,
                                 double ns) {
        ops[name] = ns;
        ops[std::string(name) + "_gbps"] = gbps(bytes_per_element, ns);
        return ns;
      };
      record("stats", kStatsBytes,
             time_ns_per_element(
                 [&] { sink(table->stats(ws.h.data(), d).sum_sq); }, d,
                 target_ms));
      record("residual_add_stats", kResidualAddStatsBytes,
             time_ns_per_element(
                 [&] {
                   sink(table
                            ->residual_add_stats(ws.h.data(),
                                                 ws.residual.data(), d)
                            .sum_sq);
                 },
                 d, target_ms));
      record("normalize_affine", kNormalizeAffineBytes,
             time_ns_per_element(
                 [&] {
                   table->normalize_affine(ws.h.data(), d, 0.01, 0.66,
                                           ws.alpha.data(), ws.beta.data(),
                                           ws.out.data());
                   sink(ws.out[0]);
                 },
                 d, target_ms));
      record("quantize_int8", kQuantizeBytes,
             time_ns_per_element(
                 [&] {
                   table->quantize_dequantize(ws.quant.data(), d,
                                              numerics::NumericFormat::kINT8,
                                              0.05f);
                   sink(ws.quant[0]);
                 },
                 d, target_ms));
      record("quantize_fp16", kQuantizeBytes,
             time_ns_per_element(
                 [&] {
                   table->quantize_dequantize(ws.quant.data(), d,
                                              numerics::NumericFormat::kFP16,
                                              1.0f);
                   sink(ws.quant[0]);
                 },
                 d, target_ms));
      const double fused_rms =
          record("residual_add_rmsnorm", kFusedRmsBytes,
                 time_ns_per_element(
                     [&] {
                       kernels::residual_add_rmsnorm(*table, ws.h, ws.residual,
                                                     ws.alpha, ws.beta, ws.out,
                                                     kEps);
                       sink(ws.out[0]);
                     },
                     d, target_ms));
      record("residual_add_layernorm", kFusedLayerBytes,
             time_ns_per_element(
                 [&] {
                   kernels::residual_add_layernorm(*table, ws.h, ws.residual,
                                                   ws.alpha, ws.beta, ws.out,
                                                   kEps);
                   sink(ws.out[0]);
                 },
                 d, target_ms));
      per_backend[table->name] = ops;
      if (std::string(table->name) == kernels::active_name()) {
        active_fused_rmsnorm = fused_rms;
      }
    }

    common::Json::Object row;
    row["d"] = d;
    row["ns_per_element"] = per_backend;
    const double seed_rms = per_backend["seed_ref"]
                                .find("residual_add_rmsnorm")
                                ->as_number();
    const double speedup =
        active_fused_rmsnorm > 0.0 ? seed_rms / active_fused_rmsnorm : 0.0;
    row["speedup_fused_rmsnorm_vs_seed"] = speedup;
    if (d == 4096) rmsnorm_speedup_4096 = speedup;
    results.push_back(row);

    std::printf(
        "d=%5zu  seed %6.3f ns/el  fused(%s) %6.3f ns/el (%6.2f GB/s)  "
        "speedup %5.2fx\n",
        d, seed_rms, kernels::active_name(), active_fused_rmsnorm,
        gbps(kFusedRmsBytes, active_fused_rmsnorm), speedup);
  }

  // --- Row-block sweep: batched provider calls vs the per-row seam --------
  const double min_rowblock_speedup = cli.get_double("min-rowblock-speedup");
  const std::vector<std::size_t> row_counts = {8, 64, 256};
  common::Json::Array rowblock_results;
  double rowblock_speedup_4096x64 = 0.0;
  std::printf("--- row-block provider path vs per-row provider path ---\n");
  for (const std::size_t d : dims) {
    for (const std::size_t rows : row_counts) {
      RowWorkspace ws(rows, d);
      // haan-full semantics: full-vector statistics, FP32 operands, fast
      // inverse sqrt; plan disabled so both paths are predictor-free.
      core::HaanNormProvider haan(core::HaanConfig{});
      const RowBlockTimings haan_t = time_provider_rowblock(haan, ws, target_ms);
      model::ExactNormProvider exact;
      const RowBlockTimings exact_t =
          time_provider_rowblock(exact, ws, target_ms);

      common::Json::Object entry;
      entry["d"] = d;
      entry["rows"] = rows;
      entry["haan_per_row_ns"] = haan_t.per_row_ns;
      entry["haan_rowblock_ns"] = haan_t.rowblock_ns;
      entry["haan_speedup"] = haan_t.speedup();
      entry["exact_per_row_ns"] = exact_t.per_row_ns;
      entry["exact_rowblock_ns"] = exact_t.rowblock_ns;
      entry["exact_speedup"] = exact_t.speedup();
      entry["haan_rowblock_gbps"] = gbps(kFusedRmsBytes, haan_t.rowblock_ns);
      entry["exact_rowblock_gbps"] = gbps(kFusedRmsBytes, exact_t.rowblock_ns);
      rowblock_results.push_back(entry);
      if (d == 4096 && rows == 64) {
        rowblock_speedup_4096x64 = haan_t.speedup();
      }
      std::printf(
          "d=%5zu rows=%4zu  haan %6.3f -> %6.3f ns/el (%5.2fx)  exact %6.3f "
          "-> %6.3f ns/el (%5.2fx)\n",
          d, rows, haan_t.per_row_ns, haan_t.rowblock_ns, haan_t.speedup(),
          exact_t.per_row_ns, exact_t.rowblock_ns, exact_t.speedup());
    }
  }

  // --- Autotune sweep: static dispatch table vs tuned_for(d), measured with
  // the tuner's own harness so the gate checks exactly what the tuner
  // optimizes (the fused residual+RMSNorm row-block bandwidth pass). ---------
  const bool tune = cli.get_bool("tune");
  const double min_tune_ratio = cli.get_double("min-tune-ratio");
  common::Json::Object tune_doc;
  bool tune_ok = true;
  if (tune) {
    std::printf("--- autotune sweep: static dispatch vs tuned_for(d) ---\n");
    common::Json::Array tune_entries;
    double worst_ratio = std::numeric_limits<double>::infinity();
    for (const std::size_t d : dims) {
      const kernels::AutotuneChoice& choice = kernels::tuned_for(d);
      for (const std::size_t rows : row_counts) {
        const double static_ns =
            kernels::measure_rows_ns_per_row(kernels::active(), d, rows);
        const double tuned_ns =
            kernels::measure_rows_ns_per_row(*choice.table, d, rows);
        const double ratio = tuned_ns > 0.0 ? static_ns / tuned_ns : 0.0;
        worst_ratio = std::min(worst_ratio, ratio);
        common::Json::Object entry;
        entry["d"] = d;
        entry["rows"] = rows;
        entry["static_table"] = kernels::active_name();
        entry["tuned_table"] = choice.table->name;
        entry["source"] = kernels::to_string(choice.source);
        entry["static_ns_per_row"] = static_ns;
        entry["tuned_ns_per_row"] = tuned_ns;
        entry["static_gbps"] =
            gbps(kFusedRmsBytes, static_ns / static_cast<double>(d));
        entry["tuned_gbps"] =
            gbps(kFusedRmsBytes, tuned_ns / static_cast<double>(d));
        entry["ratio"] = ratio;
        tune_entries.push_back(entry);
        std::printf(
            "d=%5zu rows=%4zu  static(%s) %9.1f ns/row  tuned(%s) %9.1f "
            "ns/row  ratio %5.2fx\n",
            d, rows, kernels::active_name(), static_ns, choice.table->name,
            tuned_ns, ratio);
      }
    }
    tune_doc["entries"] = tune_entries;
    tune_doc["worst_ratio"] = worst_ratio;
    if (min_tune_ratio > 0.0 && worst_ratio < min_tune_ratio) {
      std::fprintf(stderr,
                   "FAIL: autotuned table is %.3fx the static dispatch in the "
                   "worst cell (< required %.3fx)\n",
                   worst_ratio, min_tune_ratio);
      tune_ok = false;
    }

    // AVX-512 vs AVX2 anchor: the tentpole claim — fused RMSNorm d=4096 on
    // large row blocks improves over the AVX2 family when both are runnable.
    // rows=64 (the same cell as the rowblock anchor) keeps the loop
    // compute-bound; past ~128 rows the pass saturates memory bandwidth and
    // the two families converge into noise.
    const kernels::KernelTable* avx512 = kernels::find_kernel_table("avx512");
    const kernels::KernelTable* avx2 = kernels::find_kernel_table("avx2");
    const bool avx512_runnable = [&] {
      if (avx512 == nullptr || avx2 == nullptr) return false;
      for (const kernels::KernelTable* t : kernels::supported_kernels()) {
        if (t == avx512) return true;
      }
      return false;
    }();
    if (avx512_runnable) {
      const std::size_t d = 4096, rows = 64;
      const double avx2_ns = kernels::measure_rows_ns_per_row(*avx2, d, rows);
      const double avx512_ns =
          kernels::measure_rows_ns_per_row(*avx512, d, rows);
      const double ratio = avx512_ns > 0.0 ? avx2_ns / avx512_ns : 0.0;
      common::Json::Object cmp;
      cmp["d"] = d;
      cmp["rows"] = rows;
      cmp["avx2_ns_per_row"] = avx2_ns;
      cmp["avx512_ns_per_row"] = avx512_ns;
      cmp["avx512_speedup_vs_avx2"] = ratio;
      tune_doc["avx512_vs_avx2"] = cmp;
      std::printf(
          "d=%5zu rows=%4zu  avx2 %9.1f ns/row  avx512 %9.1f ns/row  "
          "avx512 speedup %5.2fx\n",
          d, rows, avx2_ns, avx512_ns, ratio);
      if (min_tune_ratio > 0.0 && ratio < min_tune_ratio) {
        std::fprintf(stderr,
                     "FAIL: avx512 fused RMSNorm d=4096 rows=256 is %.3fx "
                     "avx2 (< required %.3fx)\n",
                     ratio, min_tune_ratio);
        tune_ok = false;
      }
    }
  }

  const LinearSection linear = run_linear_section(target_ms);
  const GeluSection gelu = run_gelu_section(target_ms);
  const AttendSection attend = run_attend_section(target_ms);
  const bool gelu_all_inputs = cli.get_bool("gelu-all-inputs");
  std::uint64_t gelu_all_mismatches = 0;
  if (gelu_all_inputs) {
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const auto begin = std::chrono::steady_clock::now();
    gelu_all_mismatches = gelu_all_inputs_mismatches(threads);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
    std::printf("gelu all 2^32 inputs, %s vs scalar: %llu mismatches "
                "(%u threads, %.1f s)\n",
                kernels::active_name(),
                static_cast<unsigned long long>(gelu_all_mismatches), threads,
                seconds);
  }

  common::Json::Object doc;
  doc["bench"] = "norm_kernel_bench";
  doc["active_kernel"] = kernels::active_name();
  doc["topology"] = mem::topology().describe();
  doc["numa_nodes"] = mem::topology().nodes();
  doc["numa_mode"] = mem::to_string(mem::numa_mode());
  common::Json::Array dims_json;
  for (const std::size_t d : dims) dims_json.push_back(d);
  doc["dims"] = dims_json;
  doc["results"] = results;
  common::Json::Array rows_json;
  for (const std::size_t r : row_counts) rows_json.push_back(r);
  doc["rowblock_rows"] = rows_json;
  doc["rowblock_results"] = rowblock_results;
  doc["rowblock_speedup_d4096_rows64"] = rowblock_speedup_4096x64;
  doc["linear"] = linear.entries;
  doc["linear_speedup_1040x128x512"] = linear.speedup_1040x128x512;
  doc["linear_bit_identical"] = linear.bit_identical;
  doc["gelu_ns_per_element_1040x512"] = gelu.ns_per_element;
  doc["gelu_speedup_1040x512"] = gelu.speedup;
  doc["gelu_bit_identical"] = gelu.bit_identical;
  if (gelu_all_inputs) doc["gelu_all_inputs_mismatches"] = gelu_all_mismatches;
  doc["attend"] = attend.entries;
  doc["attend_speedup_prefill"] = attend.speedup_prefill;
  doc["attend_bit_identical"] = attend.bit_identical;
  if (tune) doc["tune"] = tune_doc;

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    if (!common::write_file(json_path, common::Json(doc).dump_pretty() + "\n")) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json report: %s\n", json_path.c_str());
  }

  if (min_speedup > 0.0 && rmsnorm_speedup_4096 < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: fused residual_add_rmsnorm at d=4096 is %.2fx the seed "
                 "path (< required %.2fx)\n",
                 rmsnorm_speedup_4096, min_speedup);
    return 1;
  }
  if (min_rowblock_speedup > 0.0 &&
      rowblock_speedup_4096x64 < min_rowblock_speedup) {
    std::fprintf(stderr,
                 "FAIL: row-block provider path at d=4096, rows=64 is %.2fx "
                 "the per-row path (< required %.2fx)\n",
                 rowblock_speedup_4096x64, min_rowblock_speedup);
    return 1;
  }
  if (!linear.bit_identical) return 1;
  const double min_linear_speedup = cli.get_double("min-linear-speedup");
  if (min_linear_speedup > 0.0 &&
      linear.speedup_1040x128x512 < min_linear_speedup) {
    std::fprintf(stderr,
                 "FAIL: dispatched linear at 1040x128x512 is %.2fx scalar "
                 "(< required %.2fx)\n",
                 linear.speedup_1040x128x512, min_linear_speedup);
    return 1;
  }
  if (!gelu.bit_identical || gelu_all_mismatches != 0) return 1;
  const double min_gelu_speedup = cli.get_double("min-gelu-speedup");
  if (min_gelu_speedup > 0.0 && gelu.speedup < min_gelu_speedup) {
    std::fprintf(stderr,
                 "FAIL: dispatched gelu on 1040x512 is %.2fx scalar "
                 "(< required %.2fx)\n",
                 gelu.speedup, min_gelu_speedup);
    return 1;
  }
  if (!attend.bit_identical) return 1;
  const double min_attend_speedup = cli.get_double("min-attend-speedup");
  if (min_attend_speedup > 0.0 && attend.speedup_prefill < min_attend_speedup) {
    std::fprintf(stderr,
                 "FAIL: dispatched attend on the prefill shape is %.2fx scalar "
                 "(< required %.2fx)\n",
                 attend.speedup_prefill, min_attend_speedup);
    return 1;
  }
  if (!tune_ok) return 1;
  return 0;
}
