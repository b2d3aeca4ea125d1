// Bit-identity of KernelTable::attend: every runnable table (families and
// row-block variants) must reproduce the scalar reference's bytes on the
// attention context sum out += p · V, over head widths that exercise every
// vector tail (1..17, 32, 64, 80), 0 and 1 rows, a zero and a non-zero cached
// prefix, and strides longer than the rows they stride.
//
// Each buffer is allocated at exactly the size the contract lets the kernel
// touch (the last row ends at its last used element), so the sanitizer build
// catches any read or write past it; the stride gaps between rows hold a
// sentinel that must survive. p holds exact +0 and -0, subnormals and
// ordinary probabilities. Some context rows j have p == 0 in every query row
// and hold +-inf and NaN in v: the kernel must skip them, so out stays
// finite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

struct AttendCase {
  std::size_t rows, ctx0, d_head, pad;
};

/// Elements a row-major view of `rows` rows of `len` used elements at
/// stride `ld` spans, ending at the last used element.
std::size_t extent(std::size_t rows, std::size_t ld, std::size_t len) {
  return rows == 0 ? 0 : (rows - 1) * ld + len;
}

constexpr float kSentinel = 12345.0f;

struct AttendInputs {
  AttendCase shape;
  std::size_t ldp, ldv, ldo;
  std::vector<float> p, v, out;
};

/// Random inputs for one case. Context rows j with j % 5 == 3 are "dead":
/// p is +0 or -0 there in every query row and v holds +-inf and NaN.
AttendInputs make_inputs(const AttendCase& c, common::Rng& rng) {
  AttendInputs in{c, 0, 0, 0, {}, {}, {}};
  const std::size_t ctx = c.ctx0 + c.rows;  // context rows read in total
  in.ldp = ctx + c.pad;
  in.ldv = c.d_head + c.pad;
  in.ldo = c.d_head + 2 * c.pad;
  in.p.assign(extent(c.rows, in.ldp, ctx), kSentinel);
  in.v.assign(extent(ctx, in.ldv, c.d_head), kSentinel);
  in.out.assign(extent(c.rows, in.ldo, c.d_head), kSentinel);

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {inf, -inf, nan};
  for (std::size_t j = 0; j < ctx; ++j) {
    const bool dead = j % 5 == 3;
    for (std::size_t col = 0; col < c.d_head; ++col) {
      in.v[j * in.ldv + col] = dead ? specials[(j + col) % 3]
                                    : static_cast<float>(rng.gaussian(0.0, 1.0));
    }
  }
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = 0; j <= c.ctx0 + i; ++j) {
      float value = static_cast<float>(rng.uniform(0.0, 1.0));
      const std::size_t kind = rng.uniform_index(8);
      if (kind == 0) value = 0.0f;
      if (kind == 1) value = -0.0f;
      if (kind == 2) value = std::bit_cast<float>(
          static_cast<std::uint32_t>(1 + rng.uniform_index(0x7fffff)));
      if (j % 5 == 3) value = (i + j) % 2 == 0 ? 0.0f : -0.0f;
      in.p[i * in.ldp + j] = value;
    }
    for (std::size_t col = 0; col < c.d_head; ++col) {
      in.out[i * in.ldo + col] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
  }
  return in;
}

std::vector<float> run(const KernelTable& table, const AttendInputs& in) {
  std::vector<float> out = in.out;
  const AttendCase& c = in.shape;
  table.attend(c.rows, c.ctx0, c.d_head, in.p.data(), in.ldp, in.v.data(),
               in.ldv, out.data(), in.ldo);
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<AttendCase> all_cases() {
  std::vector<std::size_t> widths;
  for (std::size_t d = 1; d <= 17; ++d) widths.push_back(d);
  for (const std::size_t d : {32u, 64u, 80u}) widths.push_back(d);
  std::vector<AttendCase> cases;
  for (const std::size_t d : widths) {
    for (const std::size_t rows : {0u, 1u, 2u, 7u}) {
      for (const std::size_t ctx0 : {0u, 1u, 37u}) {
        for (const std::size_t pad : {0u, 3u}) {
          cases.push_back({rows, ctx0, d, pad});
        }
      }
    }
  }
  return cases;
}

/// The scalar reference's own output on `in`: finite in every used column
/// (the dead context rows are skipped) and the stride gaps left untouched.
void expect_finite_and_gaps_kept(const AttendInputs& in,
                                 const std::vector<float>& out) {
  for (std::size_t i = 0; i < in.shape.rows; ++i) {
    for (std::size_t col = 0; col < in.ldo; ++col) {
      if (i * in.ldo + col >= out.size()) break;
      const float value = out[i * in.ldo + col];
      if (col < in.shape.d_head) {
        EXPECT_TRUE(std::isfinite(value)) << "row " << i << " col " << col;
      } else {
        EXPECT_EQ(value, kSentinel) << "wrote the stride gap of row " << i;
      }
    }
  }
}

TEST(AttendParity, EveryTableMatchesScalarBytes) {
  common::Rng rng(0xA77E);
  for (const AttendCase& c : all_cases()) {
    SCOPED_TRACE(::testing::Message()
                 << "rows=" << c.rows << " ctx0=" << c.ctx0
                 << " d_head=" << c.d_head << " pad=" << c.pad);
    const AttendInputs in = make_inputs(c, rng);
    const std::vector<float> expected = run(scalar_kernels(), in);
    expect_finite_and_gaps_kept(in, expected);
    for (const KernelTable* table : supported_kernel_variants()) {
      EXPECT_TRUE(same_bytes(run(*table, in), expected)) << table->name;
    }
  }
}

TEST(AttendParity, AccumulatesInAscendingJ) {
  // One row over a 4-long prefix. In ascending j, float adds give
  // ((0 + 1e8) - 1e8) + 1 = 1; any other order of the three live terms gives
  // 0 or 2. The -0 probability is skipped, so its NaN never reaches the sum.
  const float p[] = {1.0f, -0.0f, 1.0f, 1.0f};
  const float v[] = {1.0e8f, std::numeric_limits<float>::quiet_NaN(), -1.0e8f,
                     1.0f};
  for (const KernelTable* table : supported_kernel_variants()) {
    float out[] = {0.0f};
    table->attend(1, 3, 1, p, 4, v, 1, out, 1);
    EXPECT_EQ(out[0], 1.0f) << table->name;
  }
}

}  // namespace
}  // namespace haan::kernels
