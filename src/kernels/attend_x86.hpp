// The 256-bit attention context kernel shared by the x86 backends. Included
// only by avx2.cpp and avx512.cpp, which compile it with their own ISA flags
// (and -ffp-contract=off, so no multiply is fused into an add); the unnamed
// namespace gives each translation unit a private copy, as in linear_x86.hpp.
//
// Lanes run across the head's columns c, never across the context index j:
// each output row keeps up to kAttendVecs x 8 columns in registers and walks
// j in ascending order, adding p_j * v_j one float multiply and one float add
// at a time, exactly like the scalar reference. A column tail of fewer than 8
// goes through masked loads and stores, whose lanes do the same arithmetic.
// The AVX-512 table uses this 256-bit code too, for the reason
// linear_x86.hpp gives: 512-bit lanes lowered the normalizer rates measured
// after decode serving.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace haan::kernels {
namespace {

/// Accumulator registers per column block (32 columns).
constexpr std::size_t kAttendVecs = 4;

/// One row's columns [0, kVecs * 8) of the block at `out`: out += p_j * v_j
/// over j in [0, ctx), skipping p_j == 0.
template <std::size_t kVecs>
void attend_block_x86(const float* p, std::size_t ctx, const float* v,
                      std::size_t ldv, float* out) {
  __m256 acc[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) acc[k] = _mm256_loadu_ps(out + 8 * k);
  for (std::size_t j = 0; j < ctx; ++j) {
    if (p[j] == 0.0f) continue;
    const __m256 pj = _mm256_set1_ps(p[j]);
    const float* vj = v + j * ldv;
    for (std::size_t k = 0; k < kVecs; ++k) {
      acc[k] = _mm256_add_ps(acc[k],
                             _mm256_mul_ps(pj, _mm256_loadu_ps(vj + 8 * k)));
    }
  }
  for (std::size_t k = 0; k < kVecs; ++k) _mm256_storeu_ps(out + 8 * k, acc[k]);
}

/// attend_block_x86 over the first `cols` < 8 columns only: masked-off lanes
/// are neither read nor written.
void attend_tail_x86(const float* p, std::size_t ctx, const float* v,
                     std::size_t ldv, float* out, std::size_t cols) {
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<std::int32_t>(cols)), lanes);
  __m256 acc = _mm256_maskload_ps(out, mask);
  for (std::size_t j = 0; j < ctx; ++j) {
    if (p[j] == 0.0f) continue;
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(p[j]),
                           _mm256_maskload_ps(v + j * ldv, mask)));
  }
  _mm256_maskstore_ps(out, mask, acc);
}

void attend_x86(std::size_t rows, std::size_t ctx0, std::size_t d_head,
                const float* p, std::size_t ldp, const float* v,
                std::size_t ldv, float* out, std::size_t ldo) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* p_row = p + i * ldp;
    float* out_row = out + i * ldo;
    const std::size_t ctx = ctx0 + i + 1;
    std::size_t c = 0;
    for (; c + 8 * kAttendVecs <= d_head; c += 8 * kAttendVecs) {
      attend_block_x86<kAttendVecs>(p_row, ctx, v + c, ldv, out_row + c);
    }
    switch ((d_head - c) / 8) {
      case 3:
        attend_block_x86<3>(p_row, ctx, v + c, ldv, out_row + c);
        c += 24;
        break;
      case 2:
        attend_block_x86<2>(p_row, ctx, v + c, ldv, out_row + c);
        c += 16;
        break;
      case 1:
        attend_block_x86<1>(p_row, ctx, v + c, ldv, out_row + c);
        c += 8;
        break;
      default:
        break;
    }
    if (c < d_head) {
      attend_tail_x86(p_row, ctx, v + c, ldv, out_row + c, d_head - c);
    }
  }
}

}  // namespace
}  // namespace haan::kernels
