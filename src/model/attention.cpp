#include "model/attention.hpp"

#include <algorithm>
#include <cmath>
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

/// Causal attention of every head for `rows` query rows at absolute
/// positions [start, start + rows) over K/V rows [0, start + rows): context
/// row i, head h, gets softmax(scale * q_i . k_j) . v_j over j in
/// [0, start + i], all views d_head-long slices of d_model-strided rows.
/// Scores go through the projection kernel, each row's causal prefix through
/// tensor::softmax_inplace and the context sum through the attend kernel,
/// so one-shot and cached attention share every operation. `context` must be
/// zeroed (attend accumulates into it).
void causal_attention(const float* q, const float* k, const float* v,
                      std::size_t d_model, std::size_t n_heads,
                      std::size_t rows, std::size_t start, float* context) {
  const std::size_t d_head = d_model / n_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  const std::size_t max_ctx = start + rows;
  // Row i's scores over the K rows; entries past its causal prefix are
  // unspecified and never read.
  std::vector<float> scores(rows * max_ctx);
  const kernels::KernelTable& table = kernels::active();
  for (std::size_t h = 0; h < n_heads; ++h) {
    const std::size_t off = h * d_head;
    causal_head_scores(q + off, k + off, d_model, d_head, rows, start, scale,
                       scores.data(), max_ctx);
    for (std::size_t i = 0; i < rows; ++i) {
      tensor::softmax_inplace(
          std::span<float>(scores.data() + i * max_ctx, start + i + 1));
    }
    table.attend(rows, start, d_head, scores.data(), max_ctx, v + off,
                 d_model, context + off, d_model);
  }
}

}  // namespace

tensor::Tensor multi_head_attention(const tensor::Tensor& x, const BlockWeights& block,
                                    std::size_t n_heads) {
  HAAN_EXPECTS(x.shape().rank() == 2);
  const std::size_t seq_len = x.shape().dim(0);
  const std::size_t d_model = x.shape().dim(1);
  HAAN_EXPECTS(d_model % n_heads == 0);

  const tensor::Tensor q = tensor::linear(x, block.wq, {});
  const tensor::Tensor k = tensor::linear(x, block.wk, {});
  const tensor::Tensor v = tensor::linear(x, block.wv, {});

  tensor::Tensor context(tensor::Shape{seq_len, d_model});
  causal_attention(q.data().data(), k.data().data(), v.data().data(), d_model,
                   n_heads, seq_len, /*start=*/0, context.data().data());
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

  const tensor::Tensor q = tensor::linear(x_new, block.wq, {});
  {
    const tensor::Tensor k_new = tensor::linear(x_new, block.wk, {});
    const tensor::Tensor v_new = tensor::linear(x_new, block.wv, {});
    cache.append(block_index, k_new.data(), v_new.data());
  }

  // New row i is absolute token start_position + i: it attends over the
  // causal prefix [0, start_position + i] of the cached K/V rows.
  tensor::Tensor context(tensor::Shape{rows, d_model});
  causal_attention(q.data().data(), cache.k(block_index).data(),
                   cache.v(block_index).data(), d_model, n_heads, rows,
                   start_position, context.data().data());
  return tensor::linear(context, block.wo, {});
}

}  // namespace haan::model
