// The 256-bit GELU kernel shared by the x86 backends. Included only by
// avx2.cpp and avx512.cpp, which compile it with their own ISA flags (and
// -ffp-contract=off, so no multiply is fused into an add); the unnamed
// namespace gives each translation unit a private copy, as in linear_x86.hpp.
//
// Every lane runs the scalar reference's tanh_ref / expm1 arithmetic (see
// scalar.cpp) op for op: each branch is computed for all 8 lanes and a blend
// keeps the lane's own branch, so the result is bit-identical to scalar. The
// AVX-512 table uses this 256-bit code too, for the reason linear_x86.hpp
// gives: 512-bit lanes lowered the normalizer rates measured after decode
// serving.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstring>

namespace haan::kernels {
namespace {

/// Lane-wise mask ? if_true : if_false, for all-ones / all-zeros lane masks.
__m256 select_ps(__m256i mask, __m256 if_true, __m256 if_false) {
  return _mm256_blendv_ps(if_false, if_true, _mm256_castsi256_ps(mask));
}

__m256i splat(int v) { return _mm256_set1_epi32(v); }

__m256 splat(float v) { return _mm256_set1_ps(v); }

/// expm1_scalar over 8 lanes, for every argument tanh passes it: x in
/// (-2, 0] or [2, 44). The reference's branches that no such argument takes
/// are left out: k == 1 (0.5 ln2 < x < 1.5 ln2), x <= -27 ln2, overflow and
/// non-finite input.
__m256 expm1_x86(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i hx = _mm256_and_si256(bits, splat(0x7fffffff));
  const __m256i negative = _mm256_srai_epi32(bits, 31);

  // Argument reduction. Lanes with |x| <= 0.5 ln2 get k = 0, for which the
  // reduction below yields r = x and c = 0 exactly, as the reference's
  // unreduced path has it; |x| < 1.5 ln2 gets k = +-1, for which t * ln2_hi
  // and t * ln2_lo are the reference's exact +-ln2_hi and +-ln2_lo.
  const __m256i reduce = _mm256_cmpgt_epi32(hx, splat(0x3eb17218));
  const __m256i near = _mm256_cmpgt_epi32(splat(0x3f851592), hx);
  const __m256 half = select_ps(negative, splat(-0.5f), splat(0.5f));
  const __m256i k_far = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(splat(1.4426950216e+00f), x), half));
  const __m256i k_near = _mm256_or_si256(negative, splat(1));
  const __m256i k =
      _mm256_and_si256(_mm256_blendv_epi8(k_far, k_near, near), reduce);
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi =
      _mm256_sub_ps(x, _mm256_mul_ps(t, splat(6.9313812256e-01f)));
  const __m256 lo = _mm256_mul_ps(t, splat(9.0580006145e-06f));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  // Horner polynomial, innermost term first.
  const __m256 hfx = _mm256_mul_ps(splat(0.5f), r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 p = _mm256_mul_ps(hxs, splat(-2.0109921195e-07f));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat(4.0082177293e-06f), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat(-7.9365076090e-05f), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat(1.5873016091e-03f), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat(-3.3333335072e-02f), p));
  const __m256 r1 = _mm256_add_ps(splat(1.0f), p);
  const __m256 t3 = _mm256_sub_ps(splat(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(splat(6.0f), _mm256_mul_ps(r, t3))));
  const __m256 k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
  e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);

  const __m256 k_minus1 = _mm256_sub_ps(
      _mm256_mul_ps(splat(0.5f), _mm256_sub_ps(r, e)), splat(0.5f));
  // 2^k * (1 + r') - 1 for the other k: far (k <= -2 or k > 56) and
  // low (2 <= k < 23) share y = t - (e - r) with t = 1 resp. 1 - 2^-k; high
  // (23 <= k <= 56) uses y = (r - (e + 2^-k)) + 1.
  const __m256i far =
      _mm256_or_si256(_mm256_cmpgt_epi32(splat(-1), k),
                      _mm256_cmpgt_epi32(k, splat(56)));
  const __m256i high =
      _mm256_andnot_si256(far, _mm256_cmpgt_epi32(k, splat(22)));
  const __m256 t_low = select_ps(
      far, splat(1.0f),
      _mm256_castsi256_ps(_mm256_sub_epi32(
          splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k))));
  const __m256 t_high = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 y = select_ps(
      high,
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_high)), splat(1.0f)),
      _mm256_sub_ps(t_low, _mm256_sub_ps(e, r)));
  const __m256 scaled = _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));

  __m256 result = select_ps(far, _mm256_sub_ps(scaled, splat(1.0f)), scaled);
  result = select_ps(_mm256_cmpeq_epi32(k, splat(-1)), k_minus1, result);
  result = select_ps(_mm256_cmpeq_epi32(k, splat(0)), k0, result);
  // |x| < 2^-25: expm1(x) rounds to x.
  return select_ps(_mm256_cmpgt_epi32(splat(0x33000000), hx), x, result);
}

/// tanh_ref over 8 lanes, every input.
__m256 tanh_x86(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(bits, splat(0x7fffffff));
  const __m256 sign_bit = _mm256_castsi256_ps(splat(int(0x80000000u)));
  const __m256i at_least_1 = _mm256_cmpgt_epi32(ix, splat(0x3f7fffff));

  // |x| >= 1: z = 1 - 2 / (t + 2) with t = expm1(2|x|); otherwise
  // z = -t / (t + 2) with t = expm1(-2|x|). One expm1 and one division
  // serve both branches (negation is exact, so -2|x| == -(2|x|)).
  const __m256 two_ax = _mm256_mul_ps(splat(2.0f), _mm256_castsi256_ps(ix));
  const __m256 t = expm1_x86(
      select_ps(at_least_1, two_ax, _mm256_xor_ps(two_ax, sign_bit)));
  const __m256 q = _mm256_div_ps(
      select_ps(at_least_1, splat(2.0f), _mm256_xor_ps(t, sign_bit)),
      _mm256_add_ps(t, splat(2.0f)));
  __m256 z = select_ps(at_least_1, _mm256_sub_ps(splat(1.0f), q), q);
  z = select_ps(_mm256_cmpgt_epi32(ix, splat(0x41afffff)),  // |x| >= 22
                splat(1.0f - 1.0e-30f), z);
  z = _mm256_xor_ps(z, _mm256_and_ps(x, sign_bit));  // +-inf land here too
  // |x| < 2^-55 (+-0 included): x * (1 + x).
  z = select_ps(_mm256_cmpgt_epi32(splat(0x24000000), ix),
                _mm256_mul_ps(x, _mm256_add_ps(splat(1.0f), x)), z);
  return select_ps(_mm256_castps_si256(_mm256_cmp_ps(x, x, _CMP_UNORD_Q)),
                   _mm256_add_ps(x, x), z);
}

__m256 gelu8_x86(__m256 v) {
  const __m256 cube =
      _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(splat(0.044715f), v), v), v);
  const __m256 inner =
      _mm256_mul_ps(splat(0.7978845608028654f), _mm256_add_ps(v, cube));
  return _mm256_mul_ps(_mm256_mul_ps(splat(0.5f), v),
                       _mm256_add_ps(splat(1.0f), tanh_x86(inner)));
}

/// KernelTable::gelu. Two vectors per step: each is one long dependency
/// chain through expm1's polynomial and two divisions, and a second,
/// independent chain in the same step lets the core overlap them (about
/// 10% faster than one vector per step on a 4-vCPU AVX-512 Xeon). The tail
/// runs the same code on a zero-padded copy, so no lane reads or writes
/// past x[n - 1].
void gelu_x86(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 lo = gelu8_x86(_mm256_loadu_ps(x + i));
    const __m256 hi = gelu8_x86(_mm256_loadu_ps(x + i + 8));
    _mm256_storeu_ps(x + i, lo);
    _mm256_storeu_ps(x + i + 8, hi);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, gelu8_x86(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    float tail[8] = {};
    std::memcpy(tail, x + i, (n - i) * sizeof(float));
    _mm256_storeu_ps(tail, gelu8_x86(_mm256_loadu_ps(tail)));
    std::memcpy(x + i, tail, (n - i) * sizeof(float));
  }
}

}  // namespace
}  // namespace haan::kernels
