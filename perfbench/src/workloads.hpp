// The three benchmark workloads and the measurements they share.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "bench.hpp"
#include "core/skip_planner.hpp"
#include "model/transformer.hpp"

namespace perfbench {

/// Resolved execution environment of the run.
struct Env {
  std::size_t cpus = 1;     ///< CPUs this process may run on
  std::size_t workers = 1;  ///< serve workers (x 1 norm thread each = cpus)
};

void run_prefill_batch(const Options& options, const Env& env, Report& report);
void run_decode_open(const Options& options, const Env& env, Report& report);
void run_norm_stream(const Options& options, const Env& env, Report& report);

// --- Shared pieces (layers.cpp) ---------------------------------------------

/// Number of setups per run; setup_s reports their median. A norm_stream
/// setup (Algorithm 1 on the 32-block model) costs about three serve setups,
/// so it runs fewer to keep every run of the benchmark within its time.
inline constexpr std::size_t kSetupReps = 5;
inline constexpr std::size_t kNormStreamSetupReps = 3;

/// Normalizer replay blocks: 8 sequences x 64 positions (a 512-row
/// prefill-shaped block per layer, and 64 decode-shaped 8-row blocks), in
/// two input sets streamed in turn so errors and token matches average over
/// 16 prompts.
inline constexpr std::size_t kNormSeqs = 8;
inline constexpr std::size_t kNormRows = 64;
inline constexpr std::size_t kNormSets = 2;

/// tensor::linear timing shapes: the mean pack rows of prefill_batch and
/// decode_open, measured at the commit that introduced this benchmark, so
/// every commit is timed on the same shapes.
inline constexpr std::size_t kPrefillPackRows = 1040;
inline constexpr std::size_t kDecodePackRows = 5;

/// Runs fn(i) for i in [0, n) on up to `threads` threads.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Times, inside benchmark-side spans, the layers the benchmark calls on its
/// own and reports their metrics: tensor::linear on the model's projection
/// shapes (d->d, d->d_ff, d_ff->d) at the two serve workloads' mean pack rows
/// (MACs and bytes computed from the tensor sizes), calibrate_skip_plan on a
/// fresh model with the server's default options, and a cold tuned_for(d).
void report_standalone_layers(const haan::model::Transformer& model, Report& report);

/// Adds the self-time table of `summary` to the report.
void report_layer_table(const TraceSummary& summary, const std::string& title,
                        Report& report);

/// Trace ring capacity (events per thread) for a traced pass expected to
/// record about `events` events on its busiest thread.
void prepare_tracer(std::size_t events);

/// Normalizer per-layer metrics from the replay spans in `trace`: haan layer
/// timings grouped by `plan` (ISD computed vs predicted), the exact
/// provider's floor on the same blocks, and bandwidth from the provider's
/// counted element reads over the traced replays.
void report_norm_layer_metrics(const TraceSummary& trace, const haan::core::SkipPlan& plan,
                               double elements_read, Report& report);

/// Provenance lines shared by every workload.
void report_provenance(const Options& options, const Env& env,
                       const haan::model::ModelConfig& model, Report& report);

}  // namespace perfbench
