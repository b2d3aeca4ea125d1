// Golden bit-identity guard for the forward pass. Every other parity test
// compares two execution paths that share the same projection and attention
// arithmetic, so a kernel that changed values in both would pass them all.
// These cases pin the FNV-1a checksums of the gpt2-117m surrogate's hidden
// states (and its greedy tokens) as constants recorded from the serial-loop
// reference implementation: any backend of `kernels::KernelTable::linear` and
// `kernels::KernelTable::gelu`, and HAAN_FORCE_SCALAR=1, must reproduce them
// bit for bit. (A kernel that only reorders its double accumulation rarely
// moves a float result on model activations;
// tests/kernels/test_linear_parity.cpp's cancelling-input case catches that
// one.)
//
// Normalization runs through a test-local provider pinned to the scalar
// kernel table, because the SIMD norm kernels are only tolerance-equal to
// scalar (see kernels.hpp); that keeps the constants independent of the CPU's
// widest backend. GELU's tanh is not libm's but the in-repo port
// kernels::tanh_ref, pinned to glibc 2.36's bits by
// tests/kernels/test_gelu_parity.cpp. The one libm call left, exp in
// softmax, makes the constants specific to the platform's libm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "model/batch_layout.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"
#include "serve/request.hpp"
#include "tensor/norm_ref.hpp"
#include "tensor/ops.hpp"

namespace haan::model {
namespace {

/// Exact norm over the scalar kernel table on every CPU.
class ScalarNormProvider final : public NormProvider {
 public:
  void normalize(std::size_t, std::size_t, NormKind kind,
                 std::span<const float> z, std::span<const float> alpha,
                 std::span<const float> beta, std::span<float> out) override {
    const kernels::KernelTable& k = kernels::scalar_kernels();
    if (kind == NormKind::kLayerNorm) {
      tensor::layernorm(k, z, alpha, beta, out, kEps);
    } else {
      tensor::rmsnorm(k, z, alpha, beta, out, kEps);
    }
  }

 private:
  static constexpr double kEps = 1e-5;
};

const Transformer& golden_model() {
  static const Transformer model(gpt2_117m_surrogate(128));
  return model;
}

std::vector<int> prompt(std::size_t len, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int> tokens(len);
  for (auto& t : tokens) {
    t = static_cast<int>(rng.uniform_index(golden_model().config().vocab_size));
  }
  return tokens;
}

TEST(GoldenForward, OneShotHiddenChecksum) {
  ScalarNormProvider norm;
  const tensor::Tensor h = golden_model().forward_hidden(prompt(40, 1), norm);
  EXPECT_EQ(serve::checksum_floats(h.data()), 0xAF0BC89131B64213ULL);
}

TEST(GoldenForward, PackedThreeSpanHiddenChecksum) {
  ScalarNormProvider norm;
  const std::vector<int> a = prompt(17, 2), b = prompt(33, 3), c = prompt(9, 4);
  const std::span<const int> sequences[] = {a, b, c};
  const BatchLayout layout = BatchLayout::from_sequences(sequences);
  const tensor::Tensor h =
      golden_model().forward_hidden_batch(sequences, layout, norm);
  EXPECT_EQ(serve::checksum_floats(h.data()), 0xCB5457567E1D33C2ULL);
}

TEST(GoldenForward, ChunkedIncrementalDecode) {
  // Serve-style session: the prompt is fed in 8-row chunks through a KvCache,
  // then each greedy token (argmax over the tied-embedding logits of the
  // step's newest row) is fed back as a one-row step. The checksum chains
  // over every fed row in position order, like RequestResult::hidden_checksum;
  // a second checksum chains the logits behind each greedy token.
  constexpr std::size_t kChunk = 8;
  constexpr std::size_t kNewTokens = 6;
  const Transformer& model = golden_model();
  ScalarNormProvider norm;
  KvCache cache = model.make_kv_cache();
  std::vector<int> fed_tokens = prompt(21, 5);
  const std::size_t prompt_len = fed_tokens.size();
  std::vector<int> generated;
  std::uint64_t hash = serve::kChecksumSeed;
  std::uint64_t logits_hash = serve::kChecksumSeed;
  std::size_t fed = 0;
  while (generated.size() < kNewTokens) {
    const std::size_t rows =
        fed < prompt_len ? std::min(kChunk, prompt_len - fed) : 1;
    const std::span<const int> step =
        std::span<const int>(fed_tokens).subspan(fed, rows);
    const std::span<const int> sequences[] = {step};
    KvCache* caches[] = {&cache};
    const tensor::Tensor h = model.forward_hidden_batch(
        sequences, BatchLayout::single(rows, fed), norm, nullptr, caches);
    hash = serve::checksum_floats(h.data(), hash);
    fed += rows;
    if (fed < prompt_len) continue;
    const auto logits = model.logits_for_hidden_row(h.row(rows - 1));
    logits_hash = serve::checksum_floats(logits, logits_hash);
    generated.push_back(static_cast<int>(tensor::argmax(logits)));
    fed_tokens.push_back(generated.back());
  }
  EXPECT_EQ(hash, 0x72F6F8321AD78A9BULL);
  EXPECT_EQ(logits_hash, 0x6000A8FB9B6022BDULL);
  EXPECT_EQ(generated, (std::vector<int>{487, 487, 487, 487, 487, 487}));
}

}  // namespace
}  // namespace haan::model
