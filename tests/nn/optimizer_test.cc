#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "nn/set_qnetwork.h"

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

// ---- the learner's fused gradient scan ----

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double SequentialSquaredNormSum(const std::vector<Matrix>& ms) {
  double total = 0;
  for (const Matrix& m : ms) total += m.SquaredNorm();
  return total;
}

/// A learner-shaped net (hidden 64, 4 heads: ten of its 16 parameter
/// matrices are 64×64) and the gradients of one backward pass.
struct NetAndGradients {
  SetQNetwork net;
  SetQNetwork::Gradients grads;
};

NetAndGradients LearnerShapedGradients() {
  SetQNetworkConfig cfg;
  cfg.input_dim = 57;
  cfg.hidden_dim = 64;
  cfg.num_heads = 4;
  Rng rng(77);
  NetAndGradients out{SetQNetwork(cfg, &rng), {}};
  const Matrix x = Matrix::Uniform(9, cfg.input_dim, &rng);
  SetQNetwork::Cache cache;
  const Matrix q = out.net.ForwardInto(x, 7, &cache);
  Matrix dq = Matrix::Uniform(q.rows(), 1, &rng);
  out.grads = out.net.MakeGradients();
  out.net.Backward(x, dq, cache, &out.grads);
  return out;
}

TEST(SquaredNormSumTest, EqualsTheSequentialSumBitForBit) {
  const NetAndGradients ng = LearnerShapedGradients();
  ASSERT_EQ(ng.grads.g.size(), 16u);
  EXPECT_TRUE(SameBits(SquaredNormSum(ng.grads.g),
                       SequentialSquaredNormSum(ng.grads.g)));

  // Ragged lists longer than one window of held sums, empty matrices
  // included, so chains of every length retire and refill mid-flight.
  Rng rng(78);
  for (size_t count : {size_t{0}, size_t{1}, size_t{5}, size_t{33},
                       size_t{70}}) {
    std::vector<Matrix> ms;
    for (size_t i = 0; i < count; ++i) {
      const size_t rows = rng.UniformInt(9);
      ms.push_back(Matrix::Normal(rows, 1 + rng.UniformInt(70), &rng, 0.0f,
                                  1e3f));
    }
    EXPECT_TRUE(SameBits(SquaredNormSum(ms), SequentialSquaredNormSum(ms)))
        << count << " matrices";
  }
}

TEST(SquaredNormSumTest, NonFiniteExactlyWhenSomeEntryIs) {
  const NetAndGradients ng = LearnerShapedGradients();
  const float kBad[] = {std::nanf(""), std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (size_t i = 0; i < ng.grads.g.size(); ++i) {
    for (float bad : kBad) {
      std::vector<Matrix> g = ng.grads.g;
      g[i].data()[g[i].size() / 2] = bad;
      EXPECT_FALSE(std::isfinite(SquaredNormSum(g)))
          << "matrix " << i << " value " << bad;
    }
  }
  // Every entry ±FLT_MAX: huge, but finite.
  std::vector<Matrix> g = ng.grads.g;
  for (size_t i = 0; i < g.size(); ++i) {
    g[i].Fill(i % 2 == 0 ? std::numeric_limits<float>::max()
                         : -std::numeric_limits<float>::max());
  }
  EXPECT_TRUE(std::isfinite(SquaredNormSum(g)));
}

TEST(AdamTest, StepIfFiniteRefusesAnyNonFiniteGradientUntouched) {
  const NetAndGradients ng = LearnerShapedGradients();
  const float kBad[] = {std::nanf(""), std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (size_t i = 0; i < ng.grads.g.size(); ++i) {
    for (float bad : kBad) {
      SetQNetwork net = ng.net;
      Adam adam(net.Params(), OptimizerConfig{});
      std::vector<Matrix> g = ng.grads.g;
      g[i].data()[0] = bad;
      EXPECT_FALSE(adam.StepIfFinite(g, 0.25)) << "matrix " << i;
      EXPECT_EQ(adam.step_count(), 0);
      for (size_t p = 0; p < 16; ++p) {
        EXPECT_TRUE(BitIdentical(*net.Params()[p], *ng.net.Params()[p]))
            << "matrix " << i << " param " << p;
      }
      // The moments stayed zero too: a finite step now equals a fresh one.
      SetQNetwork fresh = ng.net;
      Adam fresh_adam(fresh.Params(), OptimizerConfig{});
      ASSERT_TRUE(adam.StepIfFinite(ng.grads.g, 0.25));
      fresh_adam.Step(ng.grads.g, 0.25);
      EXPECT_TRUE(BitIdentical(*net.Params()[i], *fresh.Params()[i]));
    }
  }
}

TEST(AdamTest, StepIfFiniteEqualsStepBitForBit) {
  const NetAndGradients ng = LearnerShapedGradients();
  // Clipping on (and binding, at this scale) and off.
  for (double clip : {5.0, 1e-3, 0.0}) {
    OptimizerConfig cfg;
    cfg.clip_norm = clip;
    SetQNetwork a = ng.net, b = ng.net;
    Adam adam_a(a.Params(), cfg), adam_b(b.Params(), cfg);
    for (int step = 0; step < 3; ++step) {
      ASSERT_TRUE(adam_a.StepIfFinite(ng.grads.g, 1.0 / 3));
      adam_b.Step(ng.grads.g, 1.0 / 3);
    }
    for (size_t p = 0; p < 16; ++p) {
      EXPECT_TRUE(BitIdentical(*a.Params()[p], *b.Params()[p]))
          << "clip " << clip << " param " << p;
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
