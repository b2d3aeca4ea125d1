// Bit-identity of KernelTable::linear: every runnable table (families and
// row-block variants) must produce memcmp-equal output to the scalar
// reference over ragged shapes, strided operands (head slices of a wider
// row), with and without bias, and over inputs holding signed zeros,
// subnormals, infinities, NaN and values near FLT_MAX.
//
// Every operand is allocated at its exact extent, so the last row of x, w and
// y ends at the end of its allocation and the sanitizer build catches any
// read or write past a tail. y starts filled with a sentinel so writes into
// the stride padding between rows show up as a mismatch too.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

const std::size_t kRows[] = {1, 2, 3, 4, 5, 17};
const std::size_t kIns[] = {1, 7, 32, 128, 513};
const std::size_t kOuts[] = {1, 7, 8, 15, 16, 17, 129};

/// The NaN this platform's arithmetic generates (inf * 0). NaN inputs use
/// this encoding: when every NaN in play has the same bits, which operand an
/// add propagates cannot change the result (see KernelTable::linear).
float generated_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  volatile float zero = 0.0f;
  return inf * zero;
}

/// Extent of a strided (rows x cols) view with leading dimension ld.
std::size_t extent(std::size_t rows, std::size_t cols, std::size_t ld) {
  return (rows - 1) * ld + cols;
}

struct Shape {
  std::size_t n, in, out;
  std::size_t ldx, ldw, ldy;
};

std::string describe(const Shape& s, bool bias) {
  return "n=" + std::to_string(s.n) + " in=" + std::to_string(s.in) +
         " out=" + std::to_string(s.out) + " ldx=" + std::to_string(s.ldx) +
         " ldw=" + std::to_string(s.ldw) + " ldy=" + std::to_string(s.ldy) +
         (bias ? " bias" : " no-bias");
}

/// How make_operands fills x, w and bias.
enum class Fill {
  kGaussian,
  /// Gaussians plus, in every row of x and w, a pair of huge entries at
  /// inputs p1 < p2 whose products are +2^60 and -2^60 for every (i, o).
  /// Adding 2^60 absorbs the small partial sum and subtracting it leaves
  /// zero, so the result depends on which inputs come before p1, between
  /// the two and after p2: any change in accumulation order shows. With
  /// plain gaussians the double sum sits so far below float resolution that
  /// a reordered chain almost never changes the rounded result.
  kCancelling,
};

/// Operands for one shape, with `specials` (when non-empty) scattered over
/// x, w and bias at seeded positions.
struct Operands {
  std::vector<float> x, w, bias;
};

Operands make_operands(const Shape& s, std::uint64_t seed, Fill fill,
                       const std::vector<float>& specials) {
  common::Rng rng(seed);
  Operands ops{std::vector<float>(extent(s.n, s.in, s.ldx)),
               std::vector<float>(extent(s.out, s.in, s.ldw)),
               std::vector<float>(s.out)};
  rng.fill_gaussian(ops.x, 0.0, 1.0);
  rng.fill_gaussian(ops.w, 0.0, 1.0);
  rng.fill_gaussian(ops.bias, 0.0, 1.0);
  if (fill == Fill::kCancelling && s.in >= 3) {
    const float huge = std::ldexp(1.0f, 30);
    const std::size_t p1 = s.in / 3, p2 = 2 * s.in / 3;
    for (std::size_t i = 0; i < s.n; ++i) {
      ops.x[i * s.ldx + p1] = huge;
      ops.x[i * s.ldx + p2] = huge;
    }
    for (std::size_t o = 0; o < s.out; ++o) {
      ops.w[o * s.ldw + p1] = huge;
      ops.w[o * s.ldw + p2] = -huge;
    }
  }
  if (!specials.empty()) {
    for (std::vector<float>* v : {&ops.x, &ops.w, &ops.bias}) {
      // About one element in eight becomes a special value.
      for (float& e : *v) {
        if (rng.uniform_index(8) == 0) {
          e = specials[rng.uniform_index(specials.size())];
        }
      }
    }
  }
  return ops;
}

std::vector<float> run(const KernelTable& table, const Shape& s,
                       const Operands& ops, bool bias) {
  std::vector<float> y(extent(s.n, s.out, s.ldy), -12345.0f);
  table.linear(s.n, s.in, s.out, ops.x.data(), s.ldx, ops.w.data(), s.ldw,
               bias ? ops.bias.data() : nullptr, y.data(), s.ldy);
  return y;
}

/// Runs every shape of the ragged grid (dense and strided) through every
/// table and compares bytes with scalar.
void expect_all_tables_match(Fill fill, const std::vector<float>& specials,
                             std::uint64_t seed) {
  const KernelTable& scalar = scalar_kernels();
  const auto tables = supported_kernel_variants();
  for (const std::size_t n : kRows) {
    for (const std::size_t in : kIns) {
      for (const std::size_t out : kOuts) {
        const Shape dense{n, in, out, in, in, out};
        // Head-slice views: rows of x and w sit inside wider rows (as Q/K
        // head views do at stride d_model), and y rows are padded.
        const Shape strided{n, in, out, in + 3, in + 5, out + 2};
        for (const Shape& s : {dense, strided}) {
          const Operands ops = make_operands(s, seed++, fill, specials);
          for (const bool bias : {false, true}) {
            const std::vector<float> expected = run(scalar, s, ops, bias);
            for (const KernelTable* table : tables) {
              const std::vector<float> got = run(*table, s, ops, bias);
              ASSERT_EQ(got.size(), expected.size());
              EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                    got.size() * sizeof(float)),
                        0)
                  << table->name << " " << describe(s, bias);
            }
          }
        }
      }
    }
  }
}

TEST(LinearParity, GaussianInputsBitIdentical) {
  expect_all_tables_match(Fill::kGaussian, {}, 1);
}

TEST(LinearParity, CancellingInputsBitIdentical) {
  expect_all_tables_match(Fill::kCancelling, {}, 500);
}

TEST(LinearParity, SpecialValuesBitIdentical) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  expect_all_tables_match(Fill::kGaussian,
                          {0.0f, -0.0f, denorm_min, -denorm_min,
                           FLT_MIN / 3.0f, -FLT_MIN / 7.0f, inf, -inf,
                           generated_nan(), FLT_MAX, -FLT_MAX,
                           FLT_MAX / 2.0f},
                          1000);
}

TEST(LinearParity, ScalarMatchesSerialDoubleLoop) {
  // The reference itself: one double accumulator per output, bias first,
  // inputs in ascending order, one rounding to float.
  const Shape s{5, 33, 9, 40, 35, 11};
  const Operands ops = make_operands(s, 7, Fill::kGaussian, {});
  const std::vector<float> y = run(scalar_kernels(), s, ops, true);
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t o = 0; o < s.out; ++o) {
      double acc = ops.bias[o];
      for (std::size_t p = 0; p < s.in; ++p) {
        acc += static_cast<double>(ops.x[i * s.ldx + p]) *
               static_cast<double>(ops.w[o * s.ldw + p]);
      }
      EXPECT_EQ(y[i * s.ldy + o], static_cast<float>(acc)) << i << "," << o;
    }
  }
}

TEST(LinearParity, SignedZeroAccumulatorStart) {
  // No bias starts the sum at +0.0, so an all -0 product row gives +0; a -0
  // bias keeps the sign. Every backend must agree on both.
  const std::vector<float> x = {-0.0f, 0.0f};
  const std::vector<float> w = {0.0f, -0.0f};
  const float neg_zero_bias = -0.0f;
  for (const KernelTable* table : supported_kernel_variants()) {
    float y = 1.0f;
    table->linear(1, 2, 1, x.data(), 2, w.data(), 2, nullptr, &y, 1);
    EXPECT_FALSE(std::signbit(y)) << table->name;
    table->linear(1, 2, 1, x.data(), 2, w.data(), 2, &neg_zero_bias, &y, 1);
    EXPECT_TRUE(std::signbit(y)) << table->name;
  }
}

}  // namespace
}  // namespace haan::kernels
