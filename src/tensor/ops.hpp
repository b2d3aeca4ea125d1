// Tensor operations for the transformer simulator: projections, row softmax,
// activations, elementwise arithmetic, reductions. `linear` and `gelu_inplace`
// run on the dispatched kernel table (KernelTable::linear and ::gelu, each
// bit-identical in every backend), so the forward's projection and GELU cost
// runs at SIMD speed. The rest are plain float loops; softmax and SiLU call
// libm's exp.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace haan::tensor {

/// y = x * W^T + b, where x is (n x in), w is (out x in), b has length out
/// (or is empty). The (out x in) weight layout matches how the model stores
/// projections. A thin wrapper over kernels::active().linear: each output
/// accumulates in double over ascending inputs, so HAAN_FORCE_SCALAR=1 and
/// every SIMD backend give the same bits.
Tensor linear(const Tensor& x, const Tensor& w, std::span<const float> bias);

/// In-place numerically stable softmax over `values`, the one softmax every
/// caller shares: max in float, exp(v - max) in float via libm, a serial
/// double sum in ascending order, then each value divided by the sum in
/// double and rounded to float. Causal attention applies it to each row's
/// unmasked prefix.
void softmax_inplace(std::span<float> values);

/// In-place numerically stable softmax over the last axis of a rank-2 tensor.
void softmax_rows(Tensor& t);

/// In-place masked causal softmax for attention scores (rank-2, square):
/// row i is softmax_inplace over its prefix [0, i]; entries (i, j) with
/// j > i become 0.
void causal_softmax(Tensor& scores);

/// Elementwise GELU (tanh approximation, as used by GPT-2 / OPT). A thin
/// wrapper over kernels::active().gelu, whose tanh is the in-repo
/// kernels::tanh_ref: HAAN_FORCE_SCALAR=1 and every SIMD backend give the
/// same bits, on any libm.
void gelu_inplace(Tensor& t);

/// Elementwise SiLU (x * sigmoid(x), as used by LLaMA).
void silu_inplace(Tensor& t);

/// a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

/// t *= s.
void scale_inplace(Tensor& t, float s);

/// Elementwise product into a new tensor.
Tensor hadamard(const Tensor& a, const Tensor& b);

/// Mean over rows of a rank-2 tensor -> vector of length cols.
std::vector<float> mean_rows(const Tensor& t);

/// Index of the maximum element of a span (first on ties).
std::size_t argmax(std::span<const float> values);

/// Dot product of equal-length spans.
double dot(std::span<const float> a, std::span<const float> b);

/// L2 norm of a span.
double l2_norm(std::span<const float> values);

/// Normalizes a span to unit L2 norm in place; leaves zero vectors untouched.
void l2_normalize(std::span<float> values);

/// Max |a[i] - b[i]| over equal-length spans.
double max_abs_error(std::span<const float> a, std::span<const float> b);

/// sqrt(mean((a-b)^2)) over equal-length spans.
double rms_error(std::span<const float> a, std::span<const float> b);

}  // namespace haan::tensor
