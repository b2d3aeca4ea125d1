// The 256-bit projection kernel shared by the x86 backends. Included only by
// avx2.cpp and avx512.cpp, which compile it with their own ISA flags; the
// unnamed namespace gives each translation unit a private copy, so the
// AVX-512 TU's encoding can never be linked into the AVX2 table.
//
// Layout: the weights are packed, one panel of kPanel = 4 * kV outputs at a
// time, transposed and widened into per-thread scratch
// (panel[p * kPanel + c] = (double)w[c][p]), so one aligned 256-bit load gives
// four outputs' weights at step p. A tile of kLinearRows rows then keeps
// kLinearRows x kV accumulators of four outputs each in registers and walks p in
// ascending order: lanes run across outputs, never across p, so each output
// accumulates exactly like the scalar reference. The AVX2 table uses kV = 2
// (8 outputs: 8 accumulators fit its 16 registers); the AVX-512 table uses
// kV = 4 (16 outputs: 16 accumulators fit AVX-512VL's 32 registers) at
// 256-bit width, chosen by measurement: a 512-bit version reached about the
// same projection rate but lowered the normalizer rates measured after
// decode serving, and the 256-bit one does not.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

namespace haan::kernels {
namespace {

/// Rows per register tile.
constexpr std::size_t kLinearRows = 4;

/// Packs outputs [0, cols) of `w` (row stride ldw) into the transposed
/// double panel; lanes [cols, kPanel) are zero-filled so the tile never
/// reads past the panel. Full groups of four outputs go through a 4x4
/// register transpose.
template <std::size_t kPanel>
void pack_linear_panel(const float* w, std::size_t ldw, std::size_t in,
                       std::size_t cols, double* panel) {
  const std::size_t groups = cols / 4 * 4;
  for (std::size_t c = 0; c < groups; c += 4) {
    const float* w0 = w + c * ldw;
    const float* w1 = w0 + ldw;
    const float* w2 = w1 + ldw;
    const float* w3 = w2 + ldw;
    std::size_t p = 0;
    for (; p + 4 <= in; p += 4) {
      const __m256d a = _mm256_cvtps_pd(_mm_loadu_ps(w0 + p));
      const __m256d b = _mm256_cvtps_pd(_mm_loadu_ps(w1 + p));
      const __m256d e = _mm256_cvtps_pd(_mm_loadu_ps(w2 + p));
      const __m256d f = _mm256_cvtps_pd(_mm_loadu_ps(w3 + p));
      const __m256d ab_lo = _mm256_unpacklo_pd(a, b);
      const __m256d ab_hi = _mm256_unpackhi_pd(a, b);
      const __m256d ef_lo = _mm256_unpacklo_pd(e, f);
      const __m256d ef_hi = _mm256_unpackhi_pd(e, f);
      double* dst = panel + p * kPanel + c;
      _mm256_store_pd(dst, _mm256_permute2f128_pd(ab_lo, ef_lo, 0x20));
      _mm256_store_pd(dst + kPanel, _mm256_permute2f128_pd(ab_hi, ef_hi, 0x20));
      _mm256_store_pd(dst + 2 * kPanel,
                      _mm256_permute2f128_pd(ab_lo, ef_lo, 0x31));
      _mm256_store_pd(dst + 3 * kPanel,
                      _mm256_permute2f128_pd(ab_hi, ef_hi, 0x31));
    }
    for (; p < in; ++p) {
      double* dst = panel + p * kPanel + c;
      dst[0] = w0[p];
      dst[1] = w1[p];
      dst[2] = w2[p];
      dst[3] = w3[p];
    }
  }
  for (std::size_t c = groups; c < cols; ++c) {
    const float* wc = w + c * ldw;
    for (std::size_t p = 0; p < in; ++p) panel[p * kPanel + c] = wc[p];
  }
  for (std::size_t c = cols; c < kPanel; ++c) {
    for (std::size_t p = 0; p < in; ++p) panel[p * kPanel + c] = 0.0;
  }
}

/// One register tile: R rows x kPanel outputs over the whole p range.
/// `bias` holds kPanel doubles (the initial accumulators); only the first
/// `cols` outputs are stored.
template <std::size_t R, std::size_t kV>
void linear_tile(const float* x, std::size_t ldx, const double* panel,
                 std::size_t in, const double* bias, std::size_t cols,
                 float* y, std::size_t ldy) {
  constexpr std::size_t kPanel = 4 * kV;
  __m256d acc[R][kV];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kV; ++v) acc[r][v] = _mm256_load_pd(bias + 4 * v);
  }
  for (std::size_t p = 0; p < in; ++p) {
    const double* wp = panel + p * kPanel;
    __m256d wv[kV];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kV; ++v) wv[v] = _mm256_load_pd(wp + 4 * v);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d xb = _mm256_set1_pd(static_cast<double>(x[r * ldx + p]));
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kV; ++v) {
        acc[r][v] = _mm256_fmadd_pd(xb, wv[v], acc[r][v]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* y_row = y + r * ldy;
    if (cols == kPanel) {
      for (std::size_t v = 0; v < kV; ++v) {
        _mm_storeu_ps(y_row + 4 * v, _mm256_cvtpd_ps(acc[r][v]));
      }
    } else {
      float tail[kPanel];
      for (std::size_t v = 0; v < kV; ++v) {
        _mm_storeu_ps(tail + 4 * v, _mm256_cvtpd_ps(acc[r][v]));
      }
      std::memcpy(y_row, tail, cols * sizeof(float));
    }
  }
}

/// KernelTable::linear over kPanel = 4 * kV outputs per packed panel.
template <std::size_t kV>
void linear_x86(std::size_t n, std::size_t in, std::size_t out, const float* x,
                std::size_t ldx, const float* w, std::size_t ldw,
                const float* bias, float* y, std::size_t ldy) {
  constexpr std::size_t kPanel = 4 * kV;
  // One panel of scratch per thread, grown to the widest `in` seen: 32 x in
  // bytes (AVX2) or 128 x in bytes (AVX-512).
  struct alignas(32) Lane {
    double v[4];
  };
  thread_local std::vector<Lane> scratch;
  scratch.resize(std::max(scratch.size(), std::max<std::size_t>(in, 1) * kV));
  double* panel = scratch.front().v;
  for (std::size_t o0 = 0; o0 < out; o0 += kPanel) {
    const std::size_t cols = std::min(kPanel, out - o0);
    alignas(32) double init[kPanel] = {};
    if (bias != nullptr) {
      for (std::size_t c = 0; c < cols; ++c) init[c] = bias[o0 + c];
    }
    pack_linear_panel<kPanel>(w + o0 * ldw, ldw, in, cols, panel);
    std::size_t i = 0;
    for (; i + kLinearRows <= n; i += kLinearRows) {
      linear_tile<kLinearRows, kV>(x + i * ldx, ldx, panel, in, init, cols,
                                   y + i * ldy + o0, ldy);
    }
    const float* x_tail = x + i * ldx;
    float* y_tail = y + i * ldy + o0;
    switch (n - i) {
      case 3:
        linear_tile<3, kV>(x_tail, ldx, panel, in, init, cols, y_tail, ldy);
        break;
      case 2:
        linear_tile<2, kV>(x_tail, ldx, panel, in, init, cols, y_tail, ldy);
        break;
      case 1:
        linear_tile<1, kV>(x_tail, ldx, panel, in, init, cols, y_tail, ldy);
        break;
      default:
        break;
    }
  }
}

}  // namespace
}  // namespace haan::kernels
