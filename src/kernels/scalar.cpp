// Portable scalar backend: the bit-exact reference every SIMD backend is
// tested against. The loop bodies reproduce the seed's `tensor::norm_ref`,
// `core::subsample`, `tensor::linear`, `tensor::gelu_inplace` and attention
// `p · V` arithmetic exactly — same accumulation order, same double
// intermediates, same float rounding points — so HAAN_FORCE_SCALAR=1 runs are
// bit-identical to the pre-kernel-layer implementation. GELU's tanh is an
// in-repo port of fdlibm's tanhf (tanh_ref below), which gives glibc 2.36's
// std::tanh bits on every float input, so the reference does not depend on
// the platform's libm.
#include "kernels/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace haan::kernels {
namespace {

SumStats stats_scalar(const float* z, std::size_t n) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = z[i];
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  return {sum, sum_sq};
}

double centered_sum_sq_scalar(const float* z, std::size_t n, double mean) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

void residual_add_scalar(float* h, const float* residual, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_scalar(float* h, const float* residual, float* dst,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

SumStats residual_add_stats_scalar(float* h, const float* residual,
                                   std::size_t n) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  return {sum, sum_sq};
}

void normalize_affine_scalar(const float* z, std::size_t n, double mean,
                             double isd, const float* alpha, const float* beta,
                             float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_dequantize_scalar(float* values, std::size_t n,
                                numerics::NumericFormat format, float scale) {
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(values[i], format, scale);
  }
}

// Row-block kernels: plain loops over the per-row bodies above, so each row
// rounds exactly like the per-row entry points.

void stats_rows_scalar(const float* x, std::size_t rows, std::size_t stride,
                       std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_scalar(x + r * stride, n);
  }
}

void centered_sum_sq_rows_scalar(const float* x, std::size_t rows,
                                 std::size_t stride, std::size_t n,
                                 const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_scalar(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_scalar(float* h, const float* residual,
                                    std::size_t rows, std::size_t d,
                                    std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    // Fused add+stats over the statistics prefix, plain add over the rest.
    // The float adds are elementwise, so the updated h and the prefix stats
    // round identically to a full-row add followed by a prefix stats pass.
    out[r] = residual_add_stats_scalar(hr, rr, nstats);
    residual_add_scalar(hr + nstats, rr + nstats, d - nstats);
  }
}

void normalize_affine_rows_scalar(const float* x, std::size_t rows,
                                  std::size_t d, const double* mean,
                                  const double* isd, const float* alpha,
                                  const float* beta, float* out, bool saturate) {
  constexpr float kSaturation = 65504.0f;  // FP16 max, the widest I/O format
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_scalar(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (!saturate) continue;
    for (std::size_t i = 0; i < d; ++i) {
      const float v = out_r[i];
      out_r[i] = std::isnan(v) ? 0.0f : std::clamp(v, -kSaturation, kSaturation);
    }
  }
}

void quantize_dequantize_rows_scalar(float* x, std::size_t rows, std::size_t d,
                                     numerics::NumericFormat format,
                                     const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_scalar(x + r * d, d, format, scales[r]);
  }
}

void linear_scalar(std::size_t n, std::size_t in, std::size_t out,
                   const float* x, std::size_t ldx, const float* w,
                   std::size_t ldw, const float* bias, float* y,
                   std::size_t ldy) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* x_row = x + i * ldx;
    float* y_row = y + i * ldy;
    for (std::size_t o = 0; o < out; ++o) {
      const float* w_row = w + o * ldw;
      double acc = bias == nullptr ? 0.0 : bias[o];
      for (std::size_t p = 0; p < in; ++p) {
        acc += static_cast<double>(x_row[p]) * static_cast<double>(w_row[p]);
      }
      y_row[o] = static_cast<float>(acc);
    }
  }
}

// fdlibm's expm1f (as shipped in glibc 2.36), op for op in float with the
// polynomial in Horner form: any other evaluation order changes result bits.
float expm1_scalar(float x) {
  constexpr float kOne = 1.0f;
  constexpr float kHuge = 1.0e+30f;
  constexpr float kTiny = 1.0e-30f;
  constexpr float kOverflow = 8.8721679688e+01f;  // 0x42b17180
  constexpr float kLn2Hi = 6.9313812256e-01f;     // 0x3f317180
  constexpr float kLn2Lo = 9.0580006145e-06f;     // 0x3717f7d1
  constexpr float kInvLn2 = 1.4426950216e+00f;    // 0x3fb8aa3b
  constexpr float kQ1 = -3.3333335072e-02f;
  constexpr float kQ2 = 1.5873016091e-03f;
  constexpr float kQ3 = -7.9365076090e-05f;
  constexpr float kQ4 = 4.0082177293e-06f;
  constexpr float kQ5 = -2.0109921195e-07f;

  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const bool negative = (bits & 0x80000000u) != 0;
  const std::uint32_t hx = bits & 0x7fffffffu;

  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.72...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return negative ? -1.0f : x;
      if (x > kOverflow) return kHuge * kHuge;
    }
    if (negative) return kTiny - kOne;
  }

  // Argument reduction: x = k ln2 + r with |r| <= 0.5 ln2, r rounded to
  // float as hi - lo and c its rounding error.
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    float hi, lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      k = negative ? -1 : 1;
      hi = negative ? x + kLn2Hi : x - kLn2Hi;
      lo = negative ? -kLn2Lo : kLn2Lo;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    const float t = kHuge + x;
    return x - (t - (kHuge + x));
  }

  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  // 2^k * (1 + r') - 1, with the 2^k applied by adding k to the exponent.
  const auto scale = [k](float y) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                                (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) return scale(kOne - (e - x)) - kOne;
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return scale(t - (e - x));
  }
  t = std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  return scale((x - (e + t)) + kOne);
}

void gelu_scalar(float* x, std::size_t n) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    x[i] = 0.5f * v * (1.0f + tanh_ref(inner));
  }
}

void attend_scalar(std::size_t rows, std::size_t ctx0, std::size_t d_head,
                   const float* p, std::size_t ldp, const float* v,
                   std::size_t ldv, float* out, std::size_t ldo) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* p_row = p + i * ldp;
    float* out_row = out + i * ldo;
    for (std::size_t j = 0; j <= ctx0 + i; ++j) {
      const float pj = p_row[j];
      if (pj == 0.0f) continue;
      const float* v_row = v + j * ldv;
      for (std::size_t c = 0; c < d_head; ++c) out_row[c] += pj * v_row[c];
    }
  }
}

constexpr KernelTable kScalarTable = {
    "scalar",
    stats_scalar,
    centered_sum_sq_scalar,
    residual_add_scalar,
    residual_add_copy_scalar,
    residual_add_stats_scalar,
    normalize_affine_scalar,
    quantize_dequantize_scalar,
    stats_rows_scalar,
    centered_sum_sq_rows_scalar,
    residual_add_stats_rows_scalar,
    normalize_affine_rows_scalar,
    quantize_dequantize_rows_scalar,
    linear_scalar,
    gelu_scalar,
    attend_scalar,
};

}  // namespace

const KernelTable& scalar_kernels() { return kScalarTable; }

// fdlibm's tanhf (as shipped in glibc 2.36), op for op in float.
float tanh_ref(float x) {
  constexpr float kOne = 1.0f;
  constexpr float kTwo = 2.0f;
  constexpr float kTiny = 1.0e-30f;
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const bool negative = (bits & 0x80000000u) != 0;
  const std::uint32_t ix = bits & 0x7fffffffu;

  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) return x;  // +-0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = expm1_scalar(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1_scalar(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {
    z = kOne - kTiny;  // |x| >= 22: +-1
  }
  return negative ? -z : z;
}

}  // namespace haan::kernels
