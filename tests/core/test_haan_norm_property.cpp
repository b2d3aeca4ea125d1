// Randomized semantic properties of the HAAN normalization operator.
//
// The sweeps draw hundreds of distinct row widths, and the default safe-mode
// autotuner would measure each one on first use (seconds of tuning for a
// test of normalization properties, not of tuning). The binary therefore
// runs with HAAN_AUTOTUNE=0, so every provider uses the static dispatch
// table; the kernels_, serve_ and other core_ tests keep exercising the
// tuner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/rng.hpp"
#include "core/haan_norm.hpp"
#include "kernels/autotune.hpp"
#include "tensor/norm_ref.hpp"
#include "tensor/ops.hpp"

namespace haan::core {
namespace {

/// Pins the providers of this binary to the static dispatch table.
class StaticKernelsEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    ASSERT_EQ(::setenv("HAAN_AUTOTUNE", "0", 1), 0);
    kernels::reset_autotune_for_testing();
  }
};

const ::testing::Environment* const kStaticKernels =
    ::testing::AddGlobalTestEnvironment(new StaticKernelsEnvironment);

std::vector<float> random_vector(common::Rng& rng, std::size_t n) {
  std::vector<float> z(n);
  rng.fill_gaussian(z, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0));
  return z;
}

class HaanNormPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HaanNormPropertySweep, RmsNormScaleInvariance) {
  // RMSNorm(c * z) == RMSNorm(z) for c > 0 — and HAAN preserves this even
  // with subsampling, because the estimated ISD scales by exactly 1/c.
  common::Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = 64 + rng.uniform_index(256);
    HaanConfig config;
    config.use_fast_invsqrt = false;  // invsqrt rounding would break exactness
    config.eps = 0.0;
    config.nsub = 1 + rng.uniform_index(n);
    HaanNormProvider provider(config);

    const auto z = random_vector(rng, n);
    const float c = static_cast<float>(rng.uniform(0.5, 8.0));
    std::vector<float> scaled(n);
    for (std::size_t k = 0; k < n; ++k) scaled[k] = c * z[k];

    std::vector<float> out1(n), out2(n);
    provider.begin_sequence();
    provider.normalize(0, 0, model::NormKind::kRMSNorm, z, {}, {}, out1);
    provider.normalize(0, 1, model::NormKind::kRMSNorm, scaled, {}, {}, out2);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(out1[k], out2[k], 2e-3f * (1.0f + std::abs(out1[k])));
    }
  }
}

TEST_P(HaanNormPropertySweep, LayerNormShiftInvariance) {
  // LayerNorm(z + c) == LayerNorm(z): re-centering removes any constant
  // shift, including through the subsampled mean estimate (the shift moves
  // the prefix mean by exactly c).
  common::Rng rng(GetParam() + 1);
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = 64 + rng.uniform_index(256);
    HaanConfig config;
    config.use_fast_invsqrt = false;
    config.nsub = n;  // full-vector stats: shift cancels exactly
    HaanNormProvider provider(config);

    const auto z = random_vector(rng, n);
    const float c = static_cast<float>(rng.uniform(-5.0, 5.0));
    std::vector<float> shifted(n);
    for (std::size_t k = 0; k < n; ++k) shifted[k] = z[k] + c;

    std::vector<float> out1(n), out2(n);
    provider.begin_sequence();
    provider.normalize(0, 0, model::NormKind::kLayerNorm, z, {}, {}, out1);
    provider.normalize(0, 1, model::NormKind::kLayerNorm, shifted, {}, {}, out2);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(out1[k], out2[k], 5e-4f * (1.0f + std::abs(out1[k])));
    }
  }
}

TEST_P(HaanNormPropertySweep, OutputAlwaysFinite) {
  // Whatever the configuration — including absurd skip plans — the provider
  // never emits inf/NaN (the hardware datapath saturates).
  common::Rng rng(GetParam() + 2);
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = 32 + rng.uniform_index(128);
    HaanConfig config;
    config.nsub = rng.uniform_index(2) ? 0 : 1 + rng.uniform_index(n);
    config.format = rng.uniform_index(2) ? numerics::NumericFormat::kINT8
                                         : numerics::NumericFormat::kFP16;
    SkipPlan plan;
    plan.start = 0;
    plan.end = 3;
    plan.decay = rng.uniform(-5.0, 5.0);  // wildly wrong slopes included
    plan.enabled = true;
    config.plan = plan;
    HaanNormProvider provider(config);

    const auto z = random_vector(rng, n);
    std::vector<float> out(n);
    provider.begin_sequence();
    for (std::size_t layer = 0; layer <= 3; ++layer) {
      provider.normalize(layer, 0, model::NormKind::kRMSNorm, z, {}, {}, out);
      for (const float v : out) ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST_P(HaanNormPropertySweep, CountersAddUp) {
  common::Rng rng(GetParam() + 3);
  SkipPlan plan;
  plan.start = 1;
  plan.end = 3;
  plan.decay = -0.1;
  plan.enabled = true;
  HaanConfig config;
  config.plan = plan;
  HaanNormProvider provider(config);

  const std::size_t layers = 6;
  const std::size_t positions = 4;
  provider.begin_sequence();
  const auto z = random_vector(rng, 64);
  std::vector<float> out(64);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t pos = 0; pos < positions; ++pos) {
      provider.normalize(layer, pos, model::NormKind::kRMSNorm, z, {}, {}, out);
    }
  }
  const auto& counters = provider.counters();
  EXPECT_EQ(counters.norm_calls, layers * positions);
  EXPECT_EQ(counters.isd_predicted, plan.skipped_count() * positions);
  EXPECT_EQ(counters.isd_computed + counters.isd_predicted, counters.norm_calls);
}

TEST_P(HaanNormPropertySweep, FullConfigStaysCloseToReference) {
  // Full-vector statistics + FP32 + exact invsqrt reproduces the reference
  // within float rounding for any input.
  common::Rng rng(GetParam() + 4);
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = 8 + rng.uniform_index(512);
    HaanConfig config;
    config.use_fast_invsqrt = false;
    HaanNormProvider provider(config);
    const auto z = random_vector(rng, n);
    std::vector<float> alpha(n), beta(n);
    rng.fill_gaussian(alpha, 1.0, 0.2);
    rng.fill_gaussian(beta, 0.0, 0.1);
    std::vector<float> out(n), ref(n);
    provider.begin_sequence();
    provider.normalize(0, 0, model::NormKind::kLayerNorm, z, alpha, beta, out);
    tensor::layernorm(z, alpha, beta, ref, config.eps);
    EXPECT_LT(tensor::max_abs_error(out, ref), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HaanNormPropertySweep,
                         ::testing::Values(1001u, 2002u, 3003u));

}  // namespace
}  // namespace haan::core
