// AVX2 backend. This translation unit is compiled with -mavx2 -mfma -mf16c on
// x86 targets (see CMakeLists); the dispatcher verifies CPU support via
// __builtin_cpu_supports before handing out this table, so no code here runs
// on machines without the ISA.
//
// Reductions widen to double lanes (two accumulators per moment) and so
// reassociate relative to the scalar reference; elementwise kernels perform
// the same rounding steps as scalar and are bit-identical except where the
// header's tolerance contract says otherwise (FP16 NaN payloads). The
// projection kernel (linear_x86.hpp), the GELU kernel (gelu_x86.hpp) and the
// attention context kernel (attend_x86.hpp) are bit-identical to scalar.
#include "kernels/backends.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "kernels/attend_x86.hpp"
#include "kernels/gelu_x86.hpp"
#include "kernels/linear_x86.hpp"

namespace haan::kernels {
namespace {

/// Software-prefetch lookahead for the kPF row-block variants, in floats
/// (1 KiB ahead of the streaming read).
constexpr std::size_t kPrefetchAhead = 256;

double hsum_pd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

/// Accumulates sum and sum-of-squares of the 8 floats in `v`.
void accumulate8(__m256 v, __m256d& sum0, __m256d& sum1, __m256d& sq0,
                 __m256d& sq1) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  sum0 = _mm256_add_pd(sum0, lo);
  sum1 = _mm256_add_pd(sum1, hi);
  sq0 = _mm256_fmadd_pd(lo, lo, sq0);
  sq1 = _mm256_fmadd_pd(hi, hi, sq1);
}

template <bool kPF>
SumStats stats_body(const float* z, std::size_t n) {
  __m256d sum0 = _mm256_setzero_pd(), sum1 = _mm256_setzero_pd();
  __m256d sq0 = _mm256_setzero_pd(), sq1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if constexpr (kPF) {
      _mm_prefetch(reinterpret_cast<const char*>(z + i + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    accumulate8(_mm256_loadu_ps(z + i), sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = hsum_pd(_mm256_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd(_mm256_add_pd(sq0, sq1));
  for (; i < n; ++i) {
    const float v = z[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

SumStats stats_avx2(const float* z, std::size_t n) {
  return stats_body<false>(z, n);
}

template <bool kPF>
double centered_sum_sq_body(const float* z, std::size_t n, double mean) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if constexpr (kPF) {
      _mm_prefetch(reinterpret_cast<const char*>(z + i + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    const __m256 v = _mm256_loadu_ps(z + i);
    const __m256d lo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), mean_v);
    const __m256d hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), mean_v);
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

double centered_sum_sq_avx2(const float* z, std::size_t n, double mean) {
  return centered_sum_sq_body<false>(z, n, mean);
}

void residual_add_avx2(float* h, const float* residual, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
  }
  for (; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_avx2(float* h, const float* residual, float* dst,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
    _mm256_storeu_ps(dst + i, sum);
  }
  for (; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

template <bool kPF>
SumStats residual_add_stats_body(float* h, const float* residual,
                                 std::size_t n) {
  __m256d sum0 = _mm256_setzero_pd(), sum1 = _mm256_setzero_pd();
  __m256d sq0 = _mm256_setzero_pd(), sq1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if constexpr (kPF) {
      _mm_prefetch(reinterpret_cast<const char*>(h + i + kPrefetchAhead),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(residual + i + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
    accumulate8(sum, sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = hsum_pd(_mm256_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd(_mm256_add_pd(sq0, sq1));
  for (; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

SumStats residual_add_stats_avx2(float* h, const float* residual,
                                 std::size_t n) {
  return residual_add_stats_body<false>(h, residual, n);
}

void normalize_affine_avx2(const float* z, std::size_t n, double mean,
                           double isd, const float* alpha, const float* beta,
                           float* out) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  const __m256d isd_v = _mm256_set1_pd(isd);
  // alpha == nullptr multiplies by 1.0f, which is exact for every value; a
  // missing beta must genuinely skip the add (0.0f + -0.0f would flip signs).
  const __m256 ones = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256d lo = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(zv)), mean_v),
        isd_v);
    const __m256d hi = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(zv, 1)), mean_v),
        isd_v);
    __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
    const __m256 a = alpha != nullptr ? _mm256_loadu_ps(alpha + i) : ones;
    v = _mm256_mul_ps(v, a);
    if (beta != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(beta + i));
    _mm256_storeu_ps(out + i, v);
  }
  for (; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_int8_avx2(float* values, std::size_t n, float scale) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  const __m256 lo_v = _mm256_set1_ps(-128.0f);
  const __m256 hi_v = _mm256_set1_ps(127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(values + i);
    const __m256 q = _mm256_round_ps(_mm256_div_ps(v, scale_v),
                                     _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    // Keep q as the second operand so min/max propagate NaN like std::clamp.
    const __m256 clamped = _mm256_min_ps(hi_v, _mm256_max_ps(lo_v, q));
    _mm256_storeu_ps(values + i, _mm256_mul_ps(clamped, scale_v));
  }
  for (; i < n; ++i) {
    values[i] =
        numerics::quantize_dequantize(values[i], numerics::NumericFormat::kINT8,
                                      scale);
  }
}

void quantize_fp16_avx2(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i half =
        _mm256_cvtps_ph(_mm256_loadu_ps(values + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(values + i, _mm256_cvtph_ps(half));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kFP16, 1.0f);
  }
}

void quantize_bf16_avx2(float* values, std::size_t n) {
  // Integer replica of BFloat16::from_float/to_float: round-to-nearest-even
  // on the truncated 16 bits, quiet-NaN preservation. Bit-exact vs scalar.
  const __m256i inf_bits = _mm256_set1_epi32(0x7F800000);
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i round_base = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i quiet_bit = _mm256_set1_epi32(0x40);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_castps_si256(_mm256_loadu_ps(values + i));
    const __m256i abs = _mm256_and_si256(bits, abs_mask);
    const __m256i is_nan = _mm256_cmpgt_epi32(abs, inf_bits);
    const __m256i top = _mm256_srli_epi32(bits, 16);
    const __m256i nan_res =
        _mm256_slli_epi32(_mm256_or_si256(top, quiet_bit), 16);
    const __m256i lsb = _mm256_and_si256(top, one);
    const __m256i rounded =
        _mm256_add_epi32(bits, _mm256_add_epi32(round_base, lsb));
    const __m256i rne_res =
        _mm256_slli_epi32(_mm256_srli_epi32(rounded, 16), 16);
    const __m256i res = _mm256_blendv_epi8(rne_res, nan_res, is_nan);
    _mm256_storeu_ps(values + i, _mm256_castsi256_ps(res));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kBF16, 1.0f);
  }
}

void quantize_dequantize_avx2(float* values, std::size_t n,
                              numerics::NumericFormat format, float scale) {
  switch (format) {
    case numerics::NumericFormat::kFP32:
      return;
    case numerics::NumericFormat::kFP16:
      quantize_fp16_avx2(values, n);
      return;
    case numerics::NumericFormat::kBF16:
      quantize_bf16_avx2(values, n);
      return;
    case numerics::NumericFormat::kINT8:
      quantize_int8_avx2(values, n, scale);
      return;
  }
}

// Row-block kernels: loop the per-row bodies above inside this TU, so every
// row runs the same vector/tail split as the per-row entry points (bit-
// identical per backend) with no per-row dispatch.

template <bool kPF>
void stats_rows_t(const float* x, std::size_t rows, std::size_t stride,
                  std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_body<kPF>(x + r * stride, n);
  }
}

template <bool kPF>
void centered_sum_sq_rows_t(const float* x, std::size_t rows,
                            std::size_t stride, std::size_t n,
                            const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_body<kPF>(x + r * stride, n, mean[r]);
  }
}

template <bool kPF>
void residual_add_stats_rows_t(float* h, const float* residual,
                               std::size_t rows, std::size_t d,
                               std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    out[r] = residual_add_stats_body<kPF>(hr, rr, nstats);
    residual_add_avx2(hr + nstats, rr + nstats, d - nstats);
  }
}

constexpr float kSaturation = 65504.0f;  // FP16 max, the widest I/O format

/// NaN -> 0, clamp to +/-65504; elementwise, matching the scalar backend's
/// std::isnan/std::clamp sequence bit for bit.
inline __m256 saturate_lanes(__m256 x) {
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  const __m256 clamped = _mm256_min_ps(_mm256_set1_ps(kSaturation),
                                       _mm256_max_ps(_mm256_set1_ps(-kSaturation), x));
  return _mm256_blendv_ps(clamped, _mm256_setzero_ps(), nan_mask);
}

void saturate_avx2(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, saturate_lanes(_mm256_loadu_ps(v + i)));
  }
  for (; i < n; ++i) {
    const float x = v[i];
    v[i] = std::isnan(x) ? 0.0f : std::clamp(x, -kSaturation, kSaturation);
  }
}

inline float normalize_one(const float* z, std::size_t i, double mean,
                           double isd, const float* alpha, const float* beta) {
  float v = static_cast<float>((z[i] - mean) * isd);
  if (alpha != nullptr) v *= alpha[i];
  if (beta != nullptr) v += beta[i];
  return v;
}

inline float saturate_one(float x) {
  return std::isnan(x) ? 0.0f : std::clamp(x, -kSaturation, kSaturation);
}

/// Streaming-store normalize row: a scalar head peels to 32-byte alignment of
/// the output (scalar and vector lanes round identically, so the head is
/// value-identical), the body streams cache-bypassing stores, and the tail
/// finishes scalar. The saturation clamp is fused in-register — clamping
/// before the store equals clamping a stored value elementwise.
void normalize_affine_nt_avx2(const float* z, std::size_t n, double mean,
                              double isd, const float* alpha, const float* beta,
                              float* out, bool saturate) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  const __m256d isd_v = _mm256_set1_pd(isd);
  const __m256 ones = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(out + i) & 31u) != 0) {
    const float v = normalize_one(z, i, mean, isd, alpha, beta);
    out[i] = saturate ? saturate_one(v) : v;
    ++i;
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256d lo = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(zv)), mean_v),
        isd_v);
    const __m256d hi = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(zv, 1)), mean_v),
        isd_v);
    __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
    const __m256 a = alpha != nullptr ? _mm256_loadu_ps(alpha + i) : ones;
    v = _mm256_mul_ps(v, a);
    if (beta != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(beta + i));
    if (saturate) v = saturate_lanes(v);
    _mm256_stream_ps(out + i, v);
  }
  for (; i < n; ++i) {
    const float v = normalize_one(z, i, mean, isd, alpha, beta);
    out[i] = saturate ? saturate_one(v) : v;
  }
}

template <bool kNT>
void normalize_affine_rows_t(const float* x, std::size_t rows, std::size_t d,
                             const double* mean, const double* isd,
                             const float* alpha, const float* beta, float* out,
                             bool saturate) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    if constexpr (kNT) {
      normalize_affine_nt_avx2(x + r * d, d, mean[r], isd[r], alpha, beta,
                               out_r, saturate);
    } else {
      normalize_affine_avx2(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
      if (saturate) saturate_avx2(out_r, d);
    }
  }
  // Streaming stores are weakly ordered; fence once per block so readers on
  // other pool threads observe the rows.
  if constexpr (kNT) _mm_sfence();
}

void quantize_dequantize_rows_avx2(float* x, std::size_t rows, std::size_t d,
                                   numerics::NumericFormat format,
                                   const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_avx2(x + r * d, d, format, scales[r]);
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    residual_add_stats_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_t<false>,
    centered_sum_sq_rows_t<false>,
    residual_add_stats_rows_t<false>,
    normalize_affine_rows_t<false>,
    quantize_dequantize_rows_avx2,
    linear_x86<2>,
    gelu_x86,
    attend_x86,
};

// Variant tables share every per-row kernel with the base; only the
// row-block entries the autotuner's fused-norm harness actually measures
// differ (prefetch on the streaming reductions, nontemporal on the
// normalize output stream).
constexpr KernelTable kAvx2PfTable = {
    "avx2-pf",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    residual_add_stats_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_t<true>,
    centered_sum_sq_rows_t<true>,
    residual_add_stats_rows_t<true>,
    normalize_affine_rows_t<false>,
    quantize_dequantize_rows_avx2,
    linear_x86<2>,
    gelu_x86,
    attend_x86,
};

constexpr KernelTable kAvx2NtTable = {
    "avx2-nt",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    residual_add_stats_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_t<false>,
    centered_sum_sq_rows_t<false>,
    residual_add_stats_rows_t<false>,
    normalize_affine_rows_t<true>,
    quantize_dequantize_rows_avx2,
    linear_x86<2>,
    gelu_x86,
    attend_x86,
};

constexpr KernelTable kAvx2NtPfTable = {
    "avx2-ntpf",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    residual_add_stats_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_t<true>,
    centered_sum_sq_rows_t<true>,
    residual_add_stats_rows_t<true>,
    normalize_affine_rows_t<true>,
    quantize_dequantize_rows_avx2,
    linear_x86<2>,
    gelu_x86,
    attend_x86,
};

constexpr const KernelTable* kAvx2Variants[] = {&kAvx2PfTable, &kAvx2NtTable,
                                                &kAvx2NtPfTable};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kAvx2Table; }
std::span<const KernelTable* const> avx2_variant_tables() {
  return kAvx2Variants;
}
}  // namespace detail

}  // namespace haan::kernels

#else  // !x86

namespace haan::kernels::detail {
const KernelTable* avx2_table() { return nullptr; }
std::span<const KernelTable* const> avx2_variant_tables() { return {}; }
}  // namespace haan::kernels::detail

#endif
