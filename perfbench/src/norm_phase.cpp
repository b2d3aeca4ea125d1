#include "norm_phase.hpp"

#include <cmath>
#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/provider_factory.hpp"
#include "model/batch_layout.hpp"
#include "model/row_partition.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<model::NormProvider> make_exact_provider() {
  haan::core::ProviderOptions options;
  options.norm_threads = 1;
  return haan::core::make_norm_provider("exact", options);
}

std::vector<std::vector<std::vector<int>>> seeded_prompt_sets(std::size_t vocab,
                                                              std::uint64_t seed) {
  haan::common::Rng rng(seed);
  std::vector<std::vector<std::vector<int>>> sets(
      kNormSets, std::vector<std::vector<int>>(kNormSeqs, std::vector<int>(kNormRows)));
  for (auto& prompts : sets) {
    for (auto& prompt : prompts) {
      for (int& token : prompt) token = static_cast<int>(rng.uniform_index(vocab));
    }
  }
  return sets;
}

void norm_layer_params(const model::Transformer& model,
                       std::vector<std::vector<float>>& alpha,
                       std::vector<std::vector<float>>& beta) {
  alpha.clear();
  beta.clear();
  for (const model::BlockWeights& block : model.weights().blocks) {
    alpha.push_back(block.norm1_alpha);
    beta.push_back(block.norm1_beta);
    alpha.push_back(block.norm2_alpha);
    beta.push_back(block.norm2_beta);
  }
  if (model.config().final_norm) {
    alpha.push_back(model.weights().final_alpha);
    beta.push_back(model.weights().final_beta);
  }
}

namespace {

haan::tensor::Tensor packed_forward(const model::Transformer& model,
                                    model::NormProvider& provider,
                                    const std::vector<std::vector<int>>& prompts,
                                    std::size_t threads) {
  std::vector<std::span<const int>> sequences(prompts.begin(), prompts.end());
  const model::BatchLayout layout = model::BatchLayout::from_sequences(sequences);
  model::RowPartitionPool pool(threads);
  return model.forward_hidden_batch(sequences, layout, provider, &pool);
}

}  // namespace

NormInputs capture_norm_inputs(model::Transformer& model,
                               model::NormProvider& provider,
                               const std::vector<std::vector<std::vector<int>>>& prompt_sets,
                               std::size_t threads) {
  HAAN_EXPECTS(!prompt_sets.empty() && !prompt_sets.front().empty());
  NormInputs in;
  in.d = model.config().d_model;
  in.layers = model.config().norm_layer_count();
  in.seqs = prompt_sets.front().size();
  in.rows = prompt_sets.front().front().size();
  in.kind = model.config().norm_kind;
  norm_layer_params(model, in.alpha, in.beta);
  for (const auto& prompts : prompt_sets) {
    HAAN_EXPECTS(prompts.size() == in.seqs);
    for (const auto& prompt : prompts) HAAN_EXPECTS(prompt.size() == in.rows);
    NormSet set;
    set.large.assign(in.layers, std::vector<float>(in.seqs * in.rows * in.d));
    // The observer sees each packed row (s*rows + p) of every norm layer's
    // input, on the forward's calling thread.
    model.set_norm_observer([&set, d = in.d](std::size_t layer, std::size_t row,
                                             std::span<const float> z) {
      std::memcpy(set.large[layer].data() + row * d, z.data(), d * sizeof(float));
    });
    const haan::tensor::Tensor hidden = packed_forward(model, provider, prompts, threads);
    model.set_norm_observer({});
    set.final_hidden.assign(hidden.data().begin(), hidden.data().end());

    set.small.assign(in.rows * in.layers, std::vector<float>(in.seqs * in.d));
    for (std::size_t p = 0; p < in.rows; ++p) {
      for (std::size_t layer = 0; layer < in.layers; ++layer) {
        for (std::size_t q = 0; q < in.seqs; ++q) {
          std::memcpy(set.small[p * in.layers + layer].data() + q * in.d,
                      set.large[layer].data() + (q * in.rows + p) * in.d,
                      in.d * sizeof(float));
        }
      }
    }
    in.sets.push_back(std::move(set));
  }
  return in;
}

std::vector<float> packed_final_hidden(const model::Transformer& model,
                                       model::NormProvider& provider,
                                       const std::vector<std::vector<int>>& prompts,
                                       std::size_t threads) {
  const haan::tensor::Tensor hidden = packed_forward(model, provider, prompts, threads);
  return {hidden.data().begin(), hidden.data().end()};
}

std::size_t greedy_token_matches(const model::Transformer& model,
                                 const std::vector<float>& hidden,
                                 const std::vector<float>& reference) {
  const std::size_t d = model.config().d_model;
  HAAN_EXPECTS(hidden.size() == reference.size() && hidden.size() % d == 0);
  std::size_t equal = 0;
  for (std::size_t r = 0; r < hidden.size() / d; ++r) {
    const std::span<const float> a(hidden.data() + r * d, d);
    const std::span<const float> b(reference.data() + r * d, d);
    equal += haan::tensor::argmax(model.logits_for_hidden_row(a)) ==
             haan::tensor::argmax(model.logits_for_hidden_row(b));
  }
  return equal;
}

Replayer::Replayer(const NormInputs& inputs, model::NormProvider& provider,
                   const char* span_large, const char* span_small)
    : in_(inputs),
      provider_(provider),
      span_large_(span_large),
      span_small_(span_small),
      large_out_(inputs.layers, std::vector<float>(inputs.seqs * inputs.rows * inputs.d)),
      small_out_(inputs.rows * inputs.layers, std::vector<float>(inputs.seqs * inputs.d)) {}

double Replayer::large(std::size_t set) {
  const NormSet& in = in_.sets[set];
  const Clock::time_point start = Clock::now();
  provider_.begin_sequence();
  const std::size_t rows = in_.seqs * in_.rows;
  for (std::size_t layer = 0; layer < in_.layers; ++layer) {
    HAAN_TRACE_SPAN(span_large_, "replay", static_cast<std::uint32_t>(layer),
                    static_cast<std::uint32_t>(rows));
    provider_.normalize_rows(layer, 0, in_.kind, rows, in.large[layer],
                             in_.alpha[layer], in_.beta[layer], large_out_[layer]);
  }
  return seconds_since(start);
}

double Replayer::small(std::size_t set, std::size_t p) {
  const NormSet& in = in_.sets[set];
  const Clock::time_point start = Clock::now();
  provider_.begin_sequence();
  for (std::size_t layer = 0; layer < in_.layers; ++layer) {
    const std::size_t slot = p * in_.layers + layer;
    HAAN_TRACE_SPAN(span_small_, "replay", static_cast<std::uint32_t>(layer),
                    static_cast<std::uint32_t>(in_.seqs));
    provider_.normalize_rows(layer, 0, in_.kind, in_.seqs, in.small[slot],
                             in_.alpha[layer], in_.beta[layer], small_out_[slot]);
  }
  return seconds_since(start);
}

namespace {

bool same_bits(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) != 0) return false;
  }
  return true;
}

}  // namespace

ReplayRun run_replay_groups(Replayer& replayer, const NormInputs& inputs,
                            double budget_s, std::size_t groups) {
  ReplayRun run;
  const std::size_t sets = inputs.sets.size();
  std::vector<std::vector<std::vector<float>>> first_large(sets);
  std::vector<std::vector<std::vector<float>>> first_small(sets);
  const Clock::time_point start = Clock::now();
  while (groups > 0 ? run.groups < groups
                    : run.groups < sets || seconds_since(start) < budget_s) {
    const std::size_t set = run.groups % sets;
    const bool first = run.groups < sets;
    const double large = replayer.large(set);
    run.large_s.push_back(large);
    run.large_total_s += large;
    if (first) {
      first_large[set] = replayer.large_out();
    } else if (!same_bits(replayer.large_out(), first_large[set])) {
      run.mismatches += 1;
    }
    double small = 0.0;
    for (std::size_t p = 0; p < inputs.rows; ++p) small += replayer.small(set, p);
    run.step_s.push_back(small / static_cast<double>(inputs.rows));
    run.group_s.push_back(large + small);
    run.small_total_s += small;
    if (first) {
      first_small[set] = replayer.small_out();
    } else if (!same_bits(replayer.small_out(), first_small[set])) {
      run.mismatches += 1;
    }
    if (run.groups == 0) {
      std::uint64_t hash = haan::serve::kChecksumSeed;
      for (const auto& block : first_large[0]) hash = haan::serve::checksum_floats(block, hash);
      for (const auto& block : first_small[0]) hash = haan::serve::checksum_floats(block, hash);
      run.checksum = hash;
    }
    run.groups += 1;
  }
  return run;
}

RelativeError relative_error(Replayer& out, Replayer& ref, const NormInputs& inputs) {
  double err = 0.0;
  double norm = 0.0;
  std::vector<double> per_row;
  const auto accumulate = [&](const std::vector<std::vector<float>>& a,
                              const std::vector<std::vector<float>>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t r = 0; r < a[i].size(); r += inputs.d) {
        double row_err = 0.0;
        double row_norm = 0.0;
        for (std::size_t j = r; j < r + inputs.d; ++j) {
          const double diff = static_cast<double>(a[i][j]) - b[i][j];
          row_err += diff * diff;
          row_norm += static_cast<double>(b[i][j]) * b[i][j];
        }
        err += row_err;
        norm += row_norm;
        per_row.push_back(row_norm > 0.0 ? std::sqrt(row_err / row_norm) : 0.0);
      }
    }
  };
  for (std::size_t set = 0; set < inputs.sets.size(); ++set) {
    out.large(set);
    ref.large(set);
    accumulate(out.large_out(), ref.large_out());
    for (std::size_t p = 0; p < inputs.rows; ++p) {
      out.small(set, p);
      ref.small(set, p);
    }
    accumulate(out.small_out(), ref.small_out());
  }
  RelativeError result;
  result.rms = norm == 0.0 ? 0.0 : std::sqrt(err / norm);
  result.row_p90 = percentile(std::move(per_row), 90.0);
  return result;
}

}  // namespace perfbench
