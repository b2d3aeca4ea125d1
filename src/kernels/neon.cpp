// NEON (AArch64) backend. AdvSIMD is mandatory on AArch64, so no runtime
// feature check is needed; the dispatcher uses this table whenever the build
// targets aarch64 and scalar is not forced. Mirrors the AVX2 backend: double
// accumulators for reductions, elementwise kernels bit-identical to scalar
// under the header's tolerance contract, and projection, GELU and attention
// context kernels that are bit-identical to scalar (see KernelTable::linear,
// ::gelu and ::attend).
#include "kernels/backends.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace haan::kernels {
namespace {

/// Accumulates sum and sum-of-squares of the 4 floats in `v`.
void accumulate4(float32x4_t v, float64x2_t& sum0, float64x2_t& sum1,
                 float64x2_t& sq0, float64x2_t& sq1) {
  const float64x2_t lo = vcvt_f64_f32(vget_low_f32(v));
  const float64x2_t hi = vcvt_high_f64_f32(v);
  sum0 = vaddq_f64(sum0, lo);
  sum1 = vaddq_f64(sum1, hi);
  sq0 = vfmaq_f64(sq0, lo, lo);
  sq1 = vfmaq_f64(sq1, hi, hi);
}

SumStats stats_neon(const float* z, std::size_t n) {
  float64x2_t sum0 = vdupq_n_f64(0.0), sum1 = vdupq_n_f64(0.0);
  float64x2_t sq0 = vdupq_n_f64(0.0), sq1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    accumulate4(vld1q_f32(z + i), sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = vaddvq_f64(vaddq_f64(sum0, sum1));
  out.sum_sq = vaddvq_f64(vaddq_f64(sq0, sq1));
  for (; i < n; ++i) {
    const float v = z[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

double centered_sum_sq_neon(const float* z, std::size_t n, double mean) {
  const float64x2_t mean_v = vdupq_n_f64(mean);
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(z + i);
    const float64x2_t lo = vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), mean_v);
    const float64x2_t hi = vsubq_f64(vcvt_high_f64_f32(v), mean_v);
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  double acc = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

void residual_add_neon(float* h, const float* residual, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(h + i, vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i)));
  }
  for (; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_neon(float* h, const float* residual, float* dst,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t sum =
        vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i));
    vst1q_f32(h + i, sum);
    vst1q_f32(dst + i, sum);
  }
  for (; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

SumStats residual_add_stats_neon(float* h, const float* residual,
                                 std::size_t n) {
  float64x2_t sum0 = vdupq_n_f64(0.0), sum1 = vdupq_n_f64(0.0);
  float64x2_t sq0 = vdupq_n_f64(0.0), sq1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t sum =
        vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i));
    vst1q_f32(h + i, sum);
    accumulate4(sum, sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = vaddvq_f64(vaddq_f64(sum0, sum1));
  out.sum_sq = vaddvq_f64(vaddq_f64(sq0, sq1));
  for (; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

void normalize_affine_neon(const float* z, std::size_t n, double mean,
                           double isd, const float* alpha, const float* beta,
                           float* out) {
  const float64x2_t mean_v = vdupq_n_f64(mean);
  const float64x2_t isd_v = vdupq_n_f64(isd);
  const float32x4_t ones = vdupq_n_f32(1.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t zv = vld1q_f32(z + i);
    const float64x2_t lo =
        vmulq_f64(vsubq_f64(vcvt_f64_f32(vget_low_f32(zv)), mean_v), isd_v);
    const float64x2_t hi =
        vmulq_f64(vsubq_f64(vcvt_high_f64_f32(zv), mean_v), isd_v);
    float32x4_t v = vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi));
    const float32x4_t a = alpha != nullptr ? vld1q_f32(alpha + i) : ones;
    v = vmulq_f32(v, a);
    if (beta != nullptr) v = vaddq_f32(v, vld1q_f32(beta + i));
    vst1q_f32(out + i, v);
  }
  for (; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_int8_neon(float* values, std::size_t n, float scale) {
  const float32x4_t scale_v = vdupq_n_f32(scale);
  const float32x4_t lo_v = vdupq_n_f32(-128.0f);
  const float32x4_t hi_v = vdupq_n_f32(127.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(values + i);
    const float32x4_t q = vrndnq_f32(vdivq_f32(v, scale_v));
    const float32x4_t clamped = vminq_f32(hi_v, vmaxq_f32(lo_v, q));
    vst1q_f32(values + i, vmulq_f32(clamped, scale_v));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kINT8, scale);
  }
}

void quantize_fp16_neon(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float16x4_t half = vcvt_f16_f32(vld1q_f32(values + i));
    vst1q_f32(values + i, vcvt_f32_f16(half));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kFP16, 1.0f);
  }
}

void quantize_bf16_neon(float* values, std::size_t n) {
  const uint32x4_t inf_bits = vdupq_n_u32(0x7F800000u);
  const uint32x4_t abs_mask = vdupq_n_u32(0x7FFFFFFFu);
  const uint32x4_t round_base = vdupq_n_u32(0x7FFFu);
  const uint32x4_t one = vdupq_n_u32(1u);
  const uint32x4_t quiet_bit = vdupq_n_u32(0x40u);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(values + i));
    const uint32x4_t abs = vandq_u32(bits, abs_mask);
    const uint32x4_t is_nan = vcgtq_u32(abs, inf_bits);
    const uint32x4_t top = vshrq_n_u32(bits, 16);
    const uint32x4_t nan_res = vshlq_n_u32(vorrq_u32(top, quiet_bit), 16);
    const uint32x4_t lsb = vandq_u32(top, one);
    const uint32x4_t rounded = vaddq_u32(bits, vaddq_u32(round_base, lsb));
    const uint32x4_t rne_res = vshlq_n_u32(vshrq_n_u32(rounded, 16), 16);
    const uint32x4_t res = vbslq_u32(is_nan, nan_res, rne_res);
    vst1q_f32(values + i, vreinterpretq_f32_u32(res));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kBF16, 1.0f);
  }
}

void quantize_dequantize_neon(float* values, std::size_t n,
                              numerics::NumericFormat format, float scale) {
  switch (format) {
    case numerics::NumericFormat::kFP32:
      return;
    case numerics::NumericFormat::kFP16:
      quantize_fp16_neon(values, n);
      return;
    case numerics::NumericFormat::kBF16:
      quantize_bf16_neon(values, n);
      return;
    case numerics::NumericFormat::kINT8:
      quantize_int8_neon(values, n, scale);
      return;
  }
}

// Row-block kernels: loop the per-row bodies above inside this TU, so every
// row runs the same vector/tail split as the per-row entry points (bit-
// identical per backend) with no per-row dispatch.

void stats_rows_neon(const float* x, std::size_t rows, std::size_t stride,
                     std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_neon(x + r * stride, n);
  }
}

void centered_sum_sq_rows_neon(const float* x, std::size_t rows,
                               std::size_t stride, std::size_t n,
                               const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_neon(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_neon(float* h, const float* residual,
                                  std::size_t rows, std::size_t d,
                                  std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    out[r] = residual_add_stats_neon(hr, rr, nstats);
    residual_add_neon(hr + nstats, rr + nstats, d - nstats);
  }
}

/// NaN -> 0, clamp to +/-65504; elementwise, matching the scalar backend's
/// std::isnan/std::clamp sequence bit for bit (vmin/vmax propagate NaN).
void saturate_neon(float* v, std::size_t n) {
  constexpr float kSaturation = 65504.0f;
  const float32x4_t hi = vdupq_n_f32(kSaturation);
  const float32x4_t lo = vdupq_n_f32(-kSaturation);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t x = vld1q_f32(v + i);
    const uint32x4_t ordered = vceqq_f32(x, x);  // false lanes are NaN
    const float32x4_t clamped = vminq_f32(hi, vmaxq_f32(lo, x));
    vst1q_f32(v + i, vbslq_f32(ordered, clamped, zero));
  }
  for (; i < n; ++i) {
    const float x = v[i];
    v[i] = std::isnan(x) ? 0.0f : std::clamp(x, -kSaturation, kSaturation);
  }
}

void normalize_affine_rows_neon(const float* x, std::size_t rows, std::size_t d,
                                const double* mean, const double* isd,
                                const float* alpha, const float* beta,
                                float* out, bool saturate) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_neon(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (saturate) saturate_neon(out_r, d);
  }
}

void quantize_dequantize_rows_neon(float* x, std::size_t rows, std::size_t d,
                                   numerics::NumericFormat format,
                                   const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_neon(x + r * d, d, format, scales[r]);
  }
}

// Projection kernel, the layout of linear_x86.hpp at 128-bit width: panels
// of kLinearPanel outputs packed transposed as doubles into per-thread
// scratch, 4-row tiles holding 16 two-lane accumulators (of AdvSIMD's 32
// registers), lanes across outputs and p ascending. vfmaq_f64 rounds exactly
// like the scalar multiply-add because a float x float product is exact in
// double.
constexpr std::size_t kLinearPanel = 8;
constexpr std::size_t kLinearRows = 4;

void pack_linear_panel_neon(const float* w, std::size_t ldw, std::size_t in,
                            std::size_t cols, double* panel) {
  for (std::size_t c = 0; c < cols; ++c) {
    const float* wc = w + c * ldw;
    for (std::size_t p = 0; p < in; ++p) panel[p * kLinearPanel + c] = wc[p];
  }
  for (std::size_t c = cols; c < kLinearPanel; ++c) {
    for (std::size_t p = 0; p < in; ++p) panel[p * kLinearPanel + c] = 0.0;
  }
}

template <std::size_t R>
void linear_tile_neon(const float* x, std::size_t ldx, const double* panel,
                      std::size_t in, const double* init, std::size_t cols,
                      float* y, std::size_t ldy) {
  constexpr std::size_t kV = kLinearPanel / 2;
  float64x2_t acc[R][kV];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < kV; ++v) acc[r][v] = vld1q_f64(init + 2 * v);
  }
  for (std::size_t p = 0; p < in; ++p) {
    const double* wp = panel + p * kLinearPanel;
    float64x2_t wv[kV];
    for (std::size_t v = 0; v < kV; ++v) wv[v] = vld1q_f64(wp + 2 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const float64x2_t xb = vdupq_n_f64(static_cast<double>(x[r * ldx + p]));
      for (std::size_t v = 0; v < kV; ++v) {
        acc[r][v] = vfmaq_f64(acc[r][v], xb, wv[v]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float tail[kLinearPanel];
    for (std::size_t v = 0; v < kV; ++v) {
      vst1_f32(tail + 2 * v, vcvt_f32_f64(acc[r][v]));
    }
    std::memcpy(y + r * ldy, tail, cols * sizeof(float));
  }
}

void linear_neon(std::size_t n, std::size_t in, std::size_t out,
                 const float* x, std::size_t ldx, const float* w,
                 std::size_t ldw, const float* bias, float* y,
                 std::size_t ldy) {
  thread_local std::vector<double> panel;
  panel.resize(std::max(panel.size(),
                        std::max<std::size_t>(in, 1) * kLinearPanel));
  for (std::size_t o0 = 0; o0 < out; o0 += kLinearPanel) {
    const std::size_t cols = std::min(kLinearPanel, out - o0);
    double init[kLinearPanel] = {};
    if (bias != nullptr) {
      for (std::size_t c = 0; c < cols; ++c) init[c] = bias[o0 + c];
    }
    pack_linear_panel_neon(w + o0 * ldw, ldw, in, cols, panel.data());
    std::size_t i = 0;
    for (; i + kLinearRows <= n; i += kLinearRows) {
      linear_tile_neon<kLinearRows>(x + i * ldx, ldx, panel.data(), in, init,
                                    cols, y + i * ldy + o0, ldy);
    }
    const float* x_tail = x + i * ldx;
    float* y_tail = y + i * ldy + o0;
    switch (n - i) {
      case 3:
        linear_tile_neon<3>(x_tail, ldx, panel.data(), in, init, cols, y_tail,
                            ldy);
        break;
      case 2:
        linear_tile_neon<2>(x_tail, ldx, panel.data(), in, init, cols, y_tail,
                            ldy);
        break;
      case 1:
        linear_tile_neon<1>(x_tail, ldx, panel.data(), in, init, cols, y_tail,
                            ldy);
        break;
      default:
        break;
    }
  }
}

// GELU: gelu_x86.hpp's lane-wise transcription of tanh_ref / expm1 at 4
// lanes — every branch tanh's arguments take computed, the lane's own kept
// by a blend, no fused multiply-add (the TU builds with -ffp-contract=off) —
// so it is bit-identical to scalar.
float32x4_t expm1_neon(float32x4_t x) {
  const uint32x4_t bits = vreinterpretq_u32_f32(x);
  const uint32x4_t hx = vandq_u32(bits, vdupq_n_u32(0x7fffffffu));
  const uint32x4_t negative =
      vreinterpretq_u32_s32(vshrq_n_s32(vreinterpretq_s32_u32(bits), 31));

  const uint32x4_t reduce = vcgtq_u32(hx, vdupq_n_u32(0x3eb17218u));
  const uint32x4_t near = vcltq_u32(hx, vdupq_n_u32(0x3f851592u));
  const float32x4_t half =
      vbslq_f32(negative, vdupq_n_f32(-0.5f), vdupq_n_f32(0.5f));
  const int32x4_t k_far = vcvtq_s32_f32(
      vaddq_f32(vmulq_f32(vdupq_n_f32(1.4426950216e+00f), x), half));
  const int32x4_t k_near =
      vorrq_s32(vreinterpretq_s32_u32(negative), vdupq_n_s32(1));
  const int32x4_t k = vandq_s32(vbslq_s32(near, k_near, k_far),
                                vreinterpretq_s32_u32(reduce));
  const float32x4_t t = vcvtq_f32_s32(k);
  const float32x4_t hi =
      vsubq_f32(x, vmulq_f32(t, vdupq_n_f32(6.9313812256e-01f)));
  const float32x4_t lo = vmulq_f32(t, vdupq_n_f32(9.0580006145e-06f));
  const float32x4_t r = vsubq_f32(hi, lo);
  const float32x4_t c = vsubq_f32(vsubq_f32(hi, r), lo);

  const float32x4_t hfx = vmulq_f32(vdupq_n_f32(0.5f), r);
  const float32x4_t hxs = vmulq_f32(r, hfx);
  float32x4_t p = vmulq_f32(hxs, vdupq_n_f32(-2.0109921195e-07f));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(4.0082177293e-06f), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(-7.9365076090e-05f), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(1.5873016091e-03f), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(-3.3333335072e-02f), p));
  const float32x4_t r1 = vaddq_f32(vdupq_n_f32(1.0f), p);
  const float32x4_t t3 = vsubq_f32(vdupq_n_f32(3.0f), vmulq_f32(r1, hfx));
  float32x4_t e = vmulq_f32(
      hxs, vdivq_f32(vsubq_f32(r1, t3),
                     vsubq_f32(vdupq_n_f32(6.0f), vmulq_f32(r, t3))));
  const float32x4_t k0 = vsubq_f32(r, vsubq_f32(vmulq_f32(r, e), hxs));
  e = vsubq_f32(vsubq_f32(vmulq_f32(r, vsubq_f32(e, c)), c), hxs);

  const float32x4_t k_minus1 = vsubq_f32(
      vmulq_f32(vdupq_n_f32(0.5f), vsubq_f32(r, e)), vdupq_n_f32(0.5f));
  const uint32x4_t far = vorrq_u32(vcleq_s32(k, vdupq_n_s32(-2)),
                                   vcgtq_s32(k, vdupq_n_s32(56)));
  const uint32x4_t high = vbicq_u32(vcgtq_s32(k, vdupq_n_s32(22)), far);
  const float32x4_t t_low = vbslq_f32(
      far, vdupq_n_f32(1.0f),
      vreinterpretq_f32_u32(vsubq_u32(
          vdupq_n_u32(0x3f800000u),
          vshlq_u32(vdupq_n_u32(0x1000000u), vnegq_s32(k)))));
  const float32x4_t t_high = vreinterpretq_f32_s32(
      vshlq_n_s32(vsubq_s32(vdupq_n_s32(0x7f), k), 23));
  const float32x4_t y = vbslq_f32(
      high,
      vaddq_f32(vsubq_f32(r, vaddq_f32(e, t_high)), vdupq_n_f32(1.0f)),
      vsubq_f32(t_low, vsubq_f32(e, r)));
  const float32x4_t scaled = vreinterpretq_f32_s32(
      vaddq_s32(vreinterpretq_s32_f32(y), vshlq_n_s32(k, 23)));

  float32x4_t result =
      vbslq_f32(far, vsubq_f32(scaled, vdupq_n_f32(1.0f)), scaled);
  result = vbslq_f32(vceqq_s32(k, vdupq_n_s32(-1)), k_minus1, result);
  result = vbslq_f32(vceqq_s32(k, vdupq_n_s32(0)), k0, result);
  return vbslq_f32(vcltq_u32(hx, vdupq_n_u32(0x33000000u)), x, result);
}

float32x4_t tanh_neon(float32x4_t x) {
  const uint32x4_t bits = vreinterpretq_u32_f32(x);
  const uint32x4_t ix = vandq_u32(bits, vdupq_n_u32(0x7fffffffu));
  const uint32x4_t at_least_1 = vcgeq_u32(ix, vdupq_n_u32(0x3f800000u));
  const float32x4_t two_ax =
      vmulq_f32(vdupq_n_f32(2.0f), vreinterpretq_f32_u32(ix));
  const float32x4_t t =
      expm1_neon(vbslq_f32(at_least_1, two_ax, vnegq_f32(two_ax)));
  const float32x4_t q =
      vdivq_f32(vbslq_f32(at_least_1, vdupq_n_f32(2.0f), vnegq_f32(t)),
                vaddq_f32(t, vdupq_n_f32(2.0f)));
  float32x4_t z = vbslq_f32(at_least_1, vsubq_f32(vdupq_n_f32(1.0f), q), q);
  z = vbslq_f32(vcgeq_u32(ix, vdupq_n_u32(0x41b00000u)),
                vdupq_n_f32(1.0f - 1.0e-30f), z);
  z = vreinterpretq_f32_u32(veorq_u32(
      vreinterpretq_u32_f32(z), vandq_u32(bits, vdupq_n_u32(0x80000000u))));
  z = vbslq_f32(vcltq_u32(ix, vdupq_n_u32(0x24000000u)),
                vmulq_f32(x, vaddq_f32(vdupq_n_f32(1.0f), x)), z);
  return vbslq_f32(vmvnq_u32(vceqq_f32(x, x)), vaddq_f32(x, x), z);
}

float32x4_t gelu4_neon(float32x4_t v) {
  const float32x4_t cube =
      vmulq_f32(vmulq_f32(vmulq_f32(vdupq_n_f32(0.044715f), v), v), v);
  const float32x4_t inner =
      vmulq_f32(vdupq_n_f32(0.7978845608028654f), vaddq_f32(v, cube));
  return vmulq_f32(vmulq_f32(vdupq_n_f32(0.5f), v),
                   vaddq_f32(vdupq_n_f32(1.0f), tanh_neon(inner)));
}

void gelu_neon(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(x + i, gelu4_neon(vld1q_f32(x + i)));
  if (i < n) {
    float tail[4] = {};
    std::memcpy(tail, x + i, (n - i) * sizeof(float));
    vst1q_f32(tail, gelu4_neon(vld1q_f32(tail)));
    std::memcpy(x + i, tail, (n - i) * sizeof(float));
  }
}

// Attention context: attend_x86.hpp's layout at 4 lanes. Each row keeps up
// to kAttendVecs x 4 columns in registers and walks j in ascending order,
// one multiply and one add per step (the TU builds with -ffp-contract=off);
// a column tail of fewer than 4 runs the scalar reference's loop.
constexpr std::size_t kAttendVecs = 4;

template <std::size_t kVecs>
void attend_block_neon(const float* p, std::size_t ctx, const float* v,
                       std::size_t ldv, float* out) {
  float32x4_t acc[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) acc[k] = vld1q_f32(out + 4 * k);
  for (std::size_t j = 0; j < ctx; ++j) {
    if (p[j] == 0.0f) continue;
    const float32x4_t pj = vdupq_n_f32(p[j]);
    const float* vj = v + j * ldv;
    for (std::size_t k = 0; k < kVecs; ++k) {
      acc[k] = vaddq_f32(acc[k], vmulq_f32(pj, vld1q_f32(vj + 4 * k)));
    }
  }
  for (std::size_t k = 0; k < kVecs; ++k) vst1q_f32(out + 4 * k, acc[k]);
}

void attend_neon(std::size_t rows, std::size_t ctx0, std::size_t d_head,
                 const float* p, std::size_t ldp, const float* v,
                 std::size_t ldv, float* out, std::size_t ldo) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* p_row = p + i * ldp;
    float* out_row = out + i * ldo;
    const std::size_t ctx = ctx0 + i + 1;
    std::size_t c = 0;
    for (; c + 4 * kAttendVecs <= d_head; c += 4 * kAttendVecs) {
      attend_block_neon<kAttendVecs>(p_row, ctx, v + c, ldv, out_row + c);
    }
    switch ((d_head - c) / 4) {
      case 3:
        attend_block_neon<3>(p_row, ctx, v + c, ldv, out_row + c);
        c += 12;
        break;
      case 2:
        attend_block_neon<2>(p_row, ctx, v + c, ldv, out_row + c);
        c += 8;
        break;
      case 1:
        attend_block_neon<1>(p_row, ctx, v + c, ldv, out_row + c);
        c += 4;
        break;
      default:
        break;
    }
    for (std::size_t j = 0; c < d_head && j < ctx; ++j) {
      const float pj = p_row[j];
      if (pj == 0.0f) continue;
      const float* v_row = v + j * ldv;
      for (std::size_t t = c; t < d_head; ++t) out_row[t] += pj * v_row[t];
    }
  }
}

constexpr KernelTable kNeonTable = {
    "neon",
    stats_neon,
    centered_sum_sq_neon,
    residual_add_neon,
    residual_add_copy_neon,
    residual_add_stats_neon,
    normalize_affine_neon,
    quantize_dequantize_neon,
    stats_rows_neon,
    centered_sum_sq_rows_neon,
    residual_add_stats_rows_neon,
    normalize_affine_rows_neon,
    quantize_dequantize_rows_neon,
    linear_neon,
    gelu_neon,
    attend_neon,
};

}  // namespace

namespace detail {
const KernelTable* neon_table() { return &kNeonTable; }
}  // namespace detail

}  // namespace haan::kernels

#else  // !aarch64

namespace haan::kernels::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace haan::kernels::detail

#endif
