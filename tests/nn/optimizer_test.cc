#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace crowdrl {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = Σ (x_i − c_i)²; Adam should converge to c.
  Matrix x(1, 4);
  const float c[] = {1.0f, -2.0f, 0.5f, 3.0f};
  OptimizerConfig cfg;
  cfg.learning_rate = 0.05;
  cfg.clip_norm = 0;  // no clipping for the pure convergence test
  Adam adam({&x}, cfg);

  for (int step = 0; step < 800; ++step) {
    std::vector<Matrix> grads(1, Matrix(1, 4));
    for (int i = 0; i < 4; ++i) grads[0](0, i) = 2.0f * (x(0, i) - c[i]);
    adam.Step(grads);
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x(0, i), c[i], 1e-2f);
}

TEST(AdamTest, StepCountAdvances) {
  Matrix x(1, 1);
  Adam adam({&x}, OptimizerConfig{});
  EXPECT_EQ(adam.step_count(), 0);
  std::vector<Matrix> grads(1, Matrix(1, 1));
  adam.Step(grads);
  adam.Step(grads);
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(AdamTest, ClippingBoundsTheUpdate) {
  Matrix a(1, 1), b(1, 1);
  OptimizerConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.clip_norm = 1.0;
  Adam adam({&a}, cfg);
  OptimizerConfig unclipped = cfg;
  unclipped.clip_norm = 0;
  Adam adam_unclipped({&b}, unclipped);

  std::vector<Matrix> huge(1, Matrix(1, 1));
  huge[0](0, 0) = 1e6f;
  adam.Step(huge);
  adam_unclipped.Step(huge);
  // Both take a step in the same direction; the clipped second-moment is
  // far smaller, so its effective state remains sane.
  EXPECT_LT(std::fabs(a(0, 0)), 0.2f);
  EXPECT_LT(a(0, 0), 0.0f);
  EXPECT_LT(b(0, 0), 0.0f);
}

TEST(AdamTest, GradScaleEquivalentToScaledGradients) {
  Matrix a = Matrix::FromRows({{1.0f}});
  Matrix b = Matrix::FromRows({{1.0f}});
  OptimizerConfig cfg;
  cfg.clip_norm = 0;
  Adam adam_a({&a}, cfg);
  Adam adam_b({&b}, cfg);

  std::vector<Matrix> g(1, Matrix(1, 1));
  g[0](0, 0) = 4.0f;
  adam_a.Step(g, 0.5);
  std::vector<Matrix> g_half(1, Matrix(1, 1));
  g_half[0](0, 0) = 2.0f;
  adam_b.Step(g_half, 1.0);
  EXPECT_FLOAT_EQ(a(0, 0), b(0, 0));
}

internal::AdamCoefficients SomeCoefficients() {
  internal::AdamCoefficients k;
  k.b1 = 0.9f;
  k.b2 = 0.999f;
  k.c1 = 1.0f - k.b1;
  k.c2 = 1.0f - k.b2;
  k.inv_bc1 = 1.0f / 0.271f;
  k.inv_bc2 = 1.0f / 0.00299f;
  k.lr = 1e-3f;
  k.eps = 1e-8f;
  k.grad_scale = 1.0f / 32.0f;
  return k;
}

TEST(AdamKernelTest, AvxEqualsPortableBitForBit) {
  const internal::AdamUpdateFn avx = internal::AvxAdamUpdate();
  if (avx == nullptr) GTEST_SKIP() << "CPU has no AVX";
  const internal::AdamCoefficients k = SomeCoefficients();
  Rng rng(3);
  // Lengths off the 8-lane grid exercise the scalar tail.
  for (size_t n : {1u, 7u, 8u, 13u, 64u, 4097u}) {
    std::vector<float> g(n), p(n), m(n), v(n);
    for (size_t j = 0; j < n; ++j) {
      g[j] = static_cast<float>(rng.Uniform(-5.0, 5.0));
      p[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      m[j] = static_cast<float>(rng.Uniform(-0.1, 0.1));
      v[j] = static_cast<float>(rng.Uniform(0.0, 0.01));
    }
    std::vector<float> p2 = p, m2 = m, v2 = v;
    for (int step = 0; step < 3; ++step) {
      internal::PortableAdamUpdate()(k, g.data(), p.data(), m.data(),
                                     v.data(), n);
      avx(k, g.data(), p2.data(), m2.data(), v2.data(), n);
    }
    EXPECT_EQ(std::memcmp(p.data(), p2.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(m.data(), m2.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(v.data(), v2.data(), n * sizeof(float)), 0) << n;
  }
}

TEST(AdamKernelTest, NaNPassesThroughBothBuilds) {
  std::vector<internal::AdamUpdateFn> builds = {
      internal::PortableAdamUpdate()};
  if (internal::AvxAdamUpdate() != nullptr) {
    builds.push_back(internal::AvxAdamUpdate());
  }
  const internal::AdamCoefficients k = SomeCoefficients();
  for (const internal::AdamUpdateFn update : builds) {
    // A NaN gradient in lane 3 and in the tail (index 9) poisons exactly
    // its own parameter and moments.
    const size_t n = 11;
    std::vector<float> g(n, 0.5f), p(n, 1.0f), m(n, 0.0f), v(n, 0.0f);
    g[3] = g[9] = std::numeric_limits<float>::quiet_NaN();
    update(k, g.data(), p.data(), m.data(), v.data(), n);
    for (size_t j = 0; j < n; ++j) {
      const bool poisoned = j == 3 || j == 9;
      EXPECT_EQ(std::isnan(p[j]), poisoned) << j;
      EXPECT_EQ(std::isnan(m[j]), poisoned) << j;
      EXPECT_EQ(std::isnan(v[j]), poisoned) << j;
    }
  }
}

TEST(SgdTest, TakesPlainGradientSteps) {
  Matrix x = Matrix::FromRows({{10.0f}});
  Sgd sgd({&x}, 0.1);
  std::vector<Matrix> g(1, Matrix(1, 1));
  g[0](0, 0) = 2.0f;
  sgd.Step(g);
  EXPECT_FLOAT_EQ(x(0, 0), 9.8f);
  sgd.Step(g, 0.5);
  EXPECT_FLOAT_EQ(x(0, 0), 9.7f);
}

TEST(SgdTest, MinimizesQuadratic) {
  Matrix x = Matrix::FromRows({{5.0f}});
  Sgd sgd({&x}, 0.1);
  for (int i = 0; i < 200; ++i) {
    std::vector<Matrix> g(1, Matrix(1, 1));
    g[0](0, 0) = 2.0f * x(0, 0);
    sgd.Step(g);
  }
  EXPECT_NEAR(x(0, 0), 0.0f, 1e-4f);
}

}  // namespace
}  // namespace crowdrl
