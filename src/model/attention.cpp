#include "model/attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace haan::model {
namespace {

/// Causal scores of one head through the projection kernel. Row i of
/// [0, rows) sits at absolute position start + i and gets, for j in
/// [0, start + i], scores[i * lds + j] = scale * (float)(q_i . k_j), where
/// q_i = q[i * ld ...] and k_j = k[j * ld ...] are d_head-long strided head
/// views (ld = d_model). The kernel's double dot rounded to float, then the
/// float multiply by `scale`, is the arithmetic of a serial tensor::dot.
/// Rows go in blocks so each kernel call covers only the causal prefix of
/// its block's last row; entries past a row's own prefix are unspecified.
void causal_head_scores(const float* q, const float* k, std::size_t ld,
                        std::size_t d_head, std::size_t rows,
                        std::size_t start, float scale, float* scores,
                        std::size_t lds) {
  constexpr std::size_t kRowBlock = 16;
  const kernels::KernelTable& table = kernels::active();
  for (std::size_t i0 = 0; i0 < rows; i0 += kRowBlock) {
    const std::size_t n = std::min(kRowBlock, rows - i0);
    table.linear(n, d_head, start + i0 + n, q + i0 * ld, ld, k, ld, nullptr,
                 scores + i0 * lds, lds);
    for (std::size_t i = i0; i < i0 + n; ++i) {
      float* row = scores + i * lds;
      for (std::size_t j = 0; j <= start + i; ++j) row[j] = scale * row[j];
    }
  }
}

}  // namespace

tensor::Tensor multi_head_attention(const tensor::Tensor& x, const BlockWeights& block,
                                    std::size_t n_heads) {
  HAAN_EXPECTS(x.shape().rank() == 2);
  const std::size_t seq_len = x.shape().dim(0);
  const std::size_t d_model = x.shape().dim(1);
  HAAN_EXPECTS(d_model % n_heads == 0);
  const std::size_t d_head = d_model / n_heads;

  const tensor::Tensor q = tensor::linear(x, block.wq, {});
  const tensor::Tensor k = tensor::linear(x, block.wk, {});
  const tensor::Tensor v = tensor::linear(x, block.wv, {});

  tensor::Tensor context(tensor::Shape{seq_len, d_model});
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));

  for (std::size_t h = 0; h < n_heads; ++h) {
    const std::size_t off = h * d_head;
    // scores = Q_h K_h^T, causal-masked softmax, then scores V_h.
    tensor::Tensor scores(tensor::Shape{seq_len, seq_len});
    causal_head_scores(q.data().data() + off, k.data().data() + off, d_model,
                       d_head, seq_len, /*start=*/0, scale,
                       scores.data().data(), seq_len);
    tensor::causal_softmax(scores);
    for (std::size_t i = 0; i < seq_len; ++i) {
      const auto out_row = context.row(i).subspan(off, d_head);
      for (std::size_t j = 0; j <= i; ++j) {
        const float p = scores.at(i, j);
        if (p == 0.0f) continue;
        const auto vj = v.row(j).subspan(off, d_head);
        for (std::size_t c = 0; c < d_head; ++c) out_row[c] += p * vj[c];
      }
    }
  }
  return tensor::linear(context, block.wo, {});
}

tensor::Tensor multi_head_attention_cached(const tensor::Tensor& x_new,
                                           const BlockWeights& block,
                                           std::size_t n_heads, KvCache& cache,
                                           std::size_t block_index,
                                           std::size_t start_position) {
  HAAN_EXPECTS(x_new.shape().rank() == 2);
  const std::size_t rows = x_new.shape().dim(0);
  const std::size_t d_model = x_new.shape().dim(1);
  HAAN_EXPECTS(d_model % n_heads == 0);
  HAAN_EXPECTS(cache.valid() && cache.d_model() == d_model);
  HAAN_EXPECTS(block_index < cache.blocks());
  HAAN_EXPECTS(cache.rows(block_index) == start_position);
  const std::size_t d_head = d_model / n_heads;

  const tensor::Tensor q = tensor::linear(x_new, block.wq, {});
  {
    const tensor::Tensor k_new = tensor::linear(x_new, block.wk, {});
    const tensor::Tensor v_new = tensor::linear(x_new, block.wv, {});
    cache.append(block_index, k_new.data(), v_new.data());
  }
  const std::span<const float> k_all = cache.k(block_index);
  const std::span<const float> v_all = cache.v(block_index);

  tensor::Tensor context(tensor::Shape{rows, d_model});
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  // Row i's scores over the cached K rows (stride d_model in the cache).
  const std::size_t max_ctx = start_position + rows;
  std::vector<float> score_block(rows * max_ctx);

  for (std::size_t h = 0; h < n_heads; ++h) {
    const std::size_t off = h * d_head;
    causal_head_scores(q.data().data() + off, k_all.data() + off, d_model,
                       d_head, rows, start_position, scale, score_block.data(),
                       max_ctx);
    for (std::size_t i = 0; i < rows; ++i) {
      // New row i is absolute token start_position + i: it attends over the
      // causal prefix [0, ctx) of the cached K/V rows.
      const std::size_t ctx = start_position + i + 1;
      float* scores = score_block.data() + i * max_ctx;
      // Stable softmax over the prefix, in causal_softmax's arithmetic order.
      float max_v = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < ctx; ++j) max_v = std::max(max_v, scores[j]);
      double sum = 0.0;
      for (std::size_t j = 0; j < ctx; ++j) {
        scores[j] = std::exp(scores[j] - max_v);
        sum += scores[j];
      }
      HAAN_ASSERT(sum > 0.0);
      for (std::size_t j = 0; j < ctx; ++j) {
        scores[j] = static_cast<float>(scores[j] / sum);
      }
      const auto out_row = context.row(i).subspan(off, d_head);
      for (std::size_t j = 0; j < ctx; ++j) {
        const float p = scores[j];
        if (p == 0.0f) continue;
        const auto vj = v_all.subspan(j * d_model + off, d_head);
        for (std::size_t c = 0; c < d_head; ++c) out_row[c] += p * vj[c];
      }
    }
  }
  return tensor::linear(context, block.wo, {});
}

}  // namespace haan::model
