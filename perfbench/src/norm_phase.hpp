// The normalizer phase: captures the norm-layer inputs of a model's haan
// forwards over seeded prompts, then streams them layer by layer through one
// provider's normalize_rows on one thread, in prefill-shaped large blocks and
// decode-shaped small blocks. norm_stream runs it for the whole measured
// time; the serve workloads run a short slice of it on their own model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "model/norm_provider.hpp"
#include "model/transformer.hpp"

namespace perfbench {

namespace model = haan::model;

/// Norm-layer inputs of one packed forward of `seqs` prompts.
struct NormSet {
  /// [layer] -> (seqs*rows x d) block, row s*rows + p = sequence s position p.
  std::vector<std::vector<float>> large;
  /// [p*layers + layer] -> (seqs x d) block: position p of every sequence.
  std::vector<std::vector<float>> small;
  /// Final hidden rows of the capture forward, packed as `large`.
  std::vector<float> final_hidden;
};

/// Captured norm-layer inputs, laid out for replay.
struct NormInputs {
  std::size_t d = 0;
  std::size_t layers = 0;
  std::size_t seqs = 0;  ///< sequences per block
  std::size_t rows = 0;  ///< positions per sequence
  model::NormKind kind = model::NormKind::kLayerNorm;
  std::vector<std::vector<float>> alpha, beta;  ///< per layer affine params
  std::vector<NormSet> sets;
};

/// The exact provider on one thread (the reference for errors and tokens).
std::unique_ptr<model::NormProvider> make_exact_provider();

/// kNormSets sets of kNormSeqs prompts of kNormRows tokens drawn from `seed`.
std::vector<std::vector<std::vector<int>>> seeded_prompt_sets(std::size_t vocab,
                                                              std::uint64_t seed);

/// Runs one packed forward per prompt set (every prompt of a set the same
/// length) with `provider`, recording every norm-layer input. `threads`
/// span-parallelizes the forwards' attention and MLP; it changes no value.
NormInputs capture_norm_inputs(model::Transformer& model,
                               model::NormProvider& provider,
                               const std::vector<std::vector<std::vector<int>>>& prompt_sets,
                               std::size_t threads);

/// Final hidden rows of a packed forward of `prompts` (for exact references).
std::vector<float> packed_final_hidden(const model::Transformer& model,
                                       model::NormProvider& provider,
                                       const std::vector<std::vector<int>>& prompts,
                                       std::size_t threads);

/// Positions whose greedy next token (argmax of the tied-embedding logits)
/// agrees between two (rows x d) final-hidden blocks.
std::size_t greedy_token_matches(const model::Transformer& model,
                                 const std::vector<float>& hidden,
                                 const std::vector<float>& reference);

/// Span names of the replays (category "replay"), per provider and block.
inline constexpr const char* kHaanLarge = "haan-large";
inline constexpr const char* kHaanSmall = "haan-small";
inline constexpr const char* kExactLarge = "exact-large";
inline constexpr const char* kExactSmall = "exact-small";

/// Replays captured inputs through a provider. Each replay begins a sequence
/// (begin_sequence) and makes one normalize_rows call per norm layer; with
/// tracing on, every call is a span in category "replay" named `span_large` /
/// `span_small`, argument a = layer, b = rows.
class Replayer {
 public:
  Replayer(const NormInputs& inputs, model::NormProvider& provider,
           const char* span_large, const char* span_small);

  /// Set `set`'s large block through every layer; returns its wall seconds.
  double large(std::size_t set);
  /// Position p's small block of set `set` through every layer; returns its
  /// wall seconds.
  double small(std::size_t set, std::size_t p);

  const std::vector<std::vector<float>>& large_out() const { return large_out_; }
  const std::vector<std::vector<float>>& small_out() const { return small_out_; }

 private:
  const NormInputs& in_;
  model::NormProvider& provider_;
  const char* span_large_;
  const char* span_small_;
  std::vector<std::vector<float>> large_out_;
  std::vector<std::vector<float>> small_out_;
};

/// Outcome of timed replay groups. Group g replays set g mod sets: its large
/// block, then its `rows` small blocks.
struct ReplayRun {
  std::size_t groups = 0;
  std::vector<double> large_s;  ///< per group: its large replay
  std::vector<double> step_s;   ///< per group: mean of its small replays
  std::vector<double> group_s;  ///< per group: large + all small replays
  double large_total_s = 0.0;
  double small_total_s = 0.0;
  std::uint64_t mismatches = 0;  ///< replays whose output differed from the first
  std::uint64_t checksum = 0;    ///< FNV-1a of the first group's outputs

  /// Row-layer normalizations per second at the median replay time, which
  /// keeps short stalls of a shared host out of the rate.
  double large_rows_per_s(const NormInputs& in) const {
    return static_cast<double>(in.seqs * in.rows * in.layers) / median(large_s);
  }
  double small_rows_per_s(const NormInputs& in) const {
    return static_cast<double>(in.seqs * in.layers) / median(step_s);
  }
};

/// Runs groups until `budget_s` of wall time is spent (at least one per set),
/// or exactly `groups` groups when `groups` > 0. Every replay's output is
/// compared bit for bit with the first replay of the same set, outside the
/// timed region.
ReplayRun run_replay_groups(Replayer& replayer, const NormInputs& inputs,
                            double budget_s, std::size_t groups = 0);

/// Error of `out` against `ref` over every large and small block of every
/// set (replays each set once through both, untimed).
struct RelativeError {
  /// RMS(out - ref) / RMS(ref) over all rows. A few rows far into the skip
  /// window, whose predicted ISD is far off, can dominate it.
  double rms = 0.0;
  /// 90th percentile over rows of ||out - ref|| / ||ref||.
  double row_p90 = 0.0;
};
RelativeError relative_error(Replayer& out, Replayer& ref, const NormInputs& inputs);

/// Affine parameters of every norm layer, in execution order.
void norm_layer_params(const model::Transformer& model,
                       std::vector<std::vector<float>>& alpha,
                       std::vector<std::vector<float>>& beta);

}  // namespace perfbench
