// Bit-identity of KernelTable::gelu: every runnable table (families and
// row-block variants) must reproduce the scalar reference's bytes over a
// strided sweep of all 2^32 float bit patterns, over the inputs that put
// tanh_ref's argument within a few ulps of each of its own and its expm1's
// branch bounds, and over signed zeros, subnormals and infinities. NaN inputs
// must give NaN; the payload may differ (see KernelTable::gelu).
//
// Inputs run in lengths 0, 1, ..., 17 in turn, each through a buffer
// allocated at exactly that length, so the tail handling of every vector
// width is covered and the sanitizer build catches any read or write past
// the end of a run.
//
// The TanhRef cases pin kernels::tanh_ref itself: a checksum over the same
// sweep, recorded from glibc 2.36's std::tanh, so the reference cannot drift
// from the libm bits it was ported to reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

/// Step between swept bit patterns: a prime, so the sweep visits every
/// residue of the low mantissa bits (about 4.2M inputs).
constexpr std::uint64_t kSweepStride = 1021;

/// Longest run length; runs cycle through 0, 1, ..., kMaxRun.
constexpr std::size_t kMaxRun = 17;

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

std::uint32_t to_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

std::vector<float> strided_sweep() {
  std::vector<float> values;
  values.reserve((std::uint64_t{1} << 32) / kSweepStride + 1);
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
       bits += kSweepStride) {
    values.push_back(from_bits(static_cast<std::uint32_t>(bits)));
  }
  return values;
}

/// GELU's tanh argument, computed as the reference computes it.
float gelu_inner(float v) {
  return 0.7978845608028654f * (v + 0.044715f * v * v * v);
}

/// expm1's reduction exponent k for argument a (|a| > 1.5 ln2), computed as
/// the reference computes it.
std::int32_t reduction_k(float a) {
  return static_cast<std::int32_t>(1.4426950216e+00f * a +
                                   (a < 0.0f ? -0.5f : 0.5f));
}

/// Smallest positive float in (0, limit] for which `pred` holds, for a
/// predicate that is monotone (false, then true) over positive floats.
template <class Pred>
float first_positive_where(Pred pred, float limit) {
  std::uint32_t lo = 0;  // pred(lo) false or lo == 0
  std::uint32_t hi = to_bits(limit);
  EXPECT_TRUE(pred(limit));
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    (pred(from_bits(mid)) ? hi : lo) = mid;
  }
  return from_bits(hi);
}

/// |tanh argument| at each branch bound of tanh_ref and of the expm1 it
/// calls (whose argument is +-2|x|).
std::vector<float> tanh_branch_bounds() {
  std::vector<float> bounds;
  // tanh_ref: |x| < 2^-55, |x| >= 1, |x| >= 22.
  for (const std::uint32_t bits : {0x24000000u, 0x3f800000u, 0x41b00000u}) {
    bounds.push_back(from_bits(bits));
  }
  // expm1: |a| < 2^-25, |a| > 0.5 ln2, |a| < 1.5 ln2, |a| >= 27 ln2.
  for (const std::uint32_t bits :
       {0x33000000u, 0x3eb17218u, 0x3f851592u, 0x4195b844u}) {
    bounds.push_back(from_bits(bits) / 2.0f);
  }
  // expm1's reduction exponent: the first |a| at which k reaches each of the
  // values its final step distinguishes (+-1, +-2, < 23, <= 56). k is odd in
  // a (every step is sign-symmetric), so one sign finds both bounds.
  for (const std::int32_t k : {1, 2, 3, 22, 23, 56, 57}) {
    const float a = first_positive_where(
        [&](float x) { return reduction_k(x) >= k; }, 64.0f);
    EXPECT_EQ(reduction_k(a), k);
    EXPECT_EQ(reduction_k(from_bits(to_bits(a) - 1)), k - 1);
    EXPECT_EQ(reduction_k(-a), -k);
    bounds.push_back(a / 2.0f);
  }
  return bounds;
}

/// GELU inputs within a few ulps of every point where GELU's tanh argument
/// crosses a branch bound, both signs. Around these bounds one ulp of v moves
/// the argument by 0.4 to 6 of its ulps, so +-8 ulps of v spans at least +-3
/// ulps of the argument. The bounds themselves, +-8 ulps, are inputs too.
std::vector<float> branch_bound_inputs() {
  std::vector<float> values;
  for (const float bound : tanh_branch_bounds()) {
    const float v = first_positive_where(
        [&](float x) { return gelu_inner(x) >= bound; }, 64.0f);
    for (const float center : {v, bound}) {
      for (std::int32_t ulps = -8; ulps <= 8; ++ulps) {
        const float near =
            from_bits(to_bits(center) + static_cast<std::uint32_t>(ulps));
        values.push_back(near);
        values.push_back(-near);
      }
    }
  }
  return values;
}

std::vector<float> special_inputs() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> values = {0.0f,     -0.0f,    inf,      -inf,
                               FLT_MIN,  -FLT_MIN, FLT_MAX,  -FLT_MAX,
                               1.0e13f,  -1.0e13f, 1.0e-30f, -1.0e-30f};
  for (const std::uint32_t bits :
       {0x00000001u, 0x00000002u, 0x00012345u, 0x00400000u, 0x007fffffu}) {
    values.push_back(from_bits(bits));
    values.push_back(-from_bits(bits));
  }
  // Quiet and signalling NaNs, both signs, default and custom payloads.
  for (const std::uint32_t bits :
       {0x7fc00000u, 0xffc00000u, 0x7fc12345u, 0x7f800001u, 0xff812345u}) {
    values.push_back(from_bits(bits));
  }
  return values;
}

/// Same bits, or NaN for NaN.
bool same_result(float expected, float actual) {
  if (std::isnan(expected)) return std::isnan(actual);
  return to_bits(expected) == to_bits(actual);
}

/// Runs `inputs` through every non-scalar table in consecutive runs of
/// length 0, 1, ..., kMaxRun, 0, 1, ..., each run copied into a buffer of
/// exactly its length, and compares every output with scalar's.
void expect_matches_scalar(const std::vector<float>& inputs) {
  std::vector<float> expected = inputs;
  scalar_kernels().gelu(expected.data(), expected.size());
  for (const KernelTable* table : supported_kernel_variants()) {
    if (table == &scalar_kernels()) continue;
    std::vector<std::vector<float>> runs(kMaxRun + 1);
    for (std::size_t len = 0; len <= kMaxRun; ++len) runs[len].resize(len);
    std::size_t mismatches = 0;
    std::string first;
    std::size_t begin = 0;
    for (std::size_t len = 0; begin < inputs.size();
         len = (len + 1) % (kMaxRun + 1)) {
      std::vector<float>& run = runs[std::min(len, inputs.size() - begin)];
      const std::size_t n = run.size();
      std::copy_n(inputs.begin() + begin, n, run.begin());
      table->gelu(run.data(), n);
      if (n > 0 && std::memcmp(run.data(), expected.data() + begin,
                               n * sizeof(float)) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (same_result(expected[begin + i], run[i])) continue;
          if (mismatches++ == 0) {
            char text[160];
            std::snprintf(text, sizeof(text),
                          "input %08x: scalar %08x, %s %08x",
                          to_bits(inputs[begin + i]),
                          to_bits(expected[begin + i]), table->name,
                          to_bits(run[i]));
            first = text;
          }
        }
      }
      begin += n;
    }
    EXPECT_EQ(mismatches, 0u) << table->name << " differs from scalar on "
                              << mismatches << " of " << inputs.size()
                              << " inputs; first: " << first;
  }
}

TEST(GeluParity, StridedSweepMatchesScalar) {
  expect_matches_scalar(strided_sweep());
}

TEST(GeluParity, TanhAndExpm1BranchBoundsMatchScalar) {
  expect_matches_scalar(branch_bound_inputs());
}

TEST(GeluParity, SpecialValuesMatchScalar) {
  const std::vector<float> inputs = special_inputs();
  expect_matches_scalar(inputs);
  // NaN in, NaN out, in every table.
  for (const KernelTable* table : supported_kernel_variants()) {
    std::vector<float> out = inputs;
    table->gelu(out.data(), out.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (std::isnan(inputs[i])) {
        EXPECT_TRUE(std::isnan(out[i]))
            << table->name << " input " << to_bits(inputs[i]);
      }
    }
  }
}

/// FNV-1a over the little-endian bytes of each value, every NaN hashed as
/// the default quiet NaN.
std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 14695981039346656037ull;
  for (const float v : values) {
    const std::uint32_t bits = std::isnan(v) ? 0x7fc00000u : to_bits(v);
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Recorded from std::tanh over strided_sweep() on x86-64 with glibc 2.36.
constexpr std::uint64_t kGlibcTanhSweepFnv = 0x86b4d3eedb7c637eull;

TEST(TanhRef, StridedSweepMatchesPinnedGlibcChecksum) {
  std::vector<float> values = strided_sweep();
  for (float& v : values) v = tanh_ref(v);
  EXPECT_EQ(fnv1a(values), kGlibcTanhSweepFnv);
}

TEST(TanhRef, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(to_bits(tanh_ref(0.0f)), to_bits(0.0f));
  EXPECT_EQ(to_bits(tanh_ref(-0.0f)), to_bits(-0.0f));
  EXPECT_EQ(tanh_ref(inf), 1.0f);
  EXPECT_EQ(tanh_ref(-inf), -1.0f);
  EXPECT_EQ(tanh_ref(22.0f), 1.0f);
  EXPECT_EQ(to_bits(tanh_ref(1.0e-30f)), to_bits(1.0e-30f));
  EXPECT_TRUE(std::isnan(tanh_ref(std::numeric_limits<float>::quiet_NaN())));
}

}  // namespace
}  // namespace haan::kernels
