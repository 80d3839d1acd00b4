#include "nn/linear.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/grad_check.h"

namespace crowdrl {
namespace {

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 2, Linear::Activation::kIdentity, &rng);
  layer.weights() = Matrix::FromRows({{1, 2}, {3, 4}});
  layer.bias() = Matrix::FromRows({{0.5, -0.5}});
  Matrix x = Matrix::FromRows({{1, 1}});
  Matrix y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 5.5f);
}

TEST(LinearTest, ReluClampsNegativePreactivations) {
  Rng rng(1);
  Linear layer(1, 2, Linear::Activation::kRelu, &rng);
  layer.weights() = Matrix::FromRows({{1, -1}});
  layer.bias() = Matrix::FromRows({{0, 0}});
  Matrix y = layer.Forward(Matrix::FromRows({{2}}));
  EXPECT_FLOAT_EQ(y(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
}

TEST(LinearTest, RowWiseIsPermutationEquivariant) {
  // Appendix Proof 1: rFF applied to permuted rows = permuted rFF output.
  Rng rng(3);
  Linear layer(4, 3, Linear::Activation::kRelu, &rng);
  Matrix x = Matrix::Uniform(5, 4, &rng);
  Matrix y = layer.Forward(x);

  std::vector<int> perm = {4, 2, 0, 3, 1};
  Matrix xp(5, 4), yp_expected(5, 3);
  for (size_t r = 0; r < 5; ++r) {
    xp.SetRow(r, x, perm[r]);
    yp_expected.SetRow(r, y, perm[r]);
  }
  Matrix yp = layer.Forward(xp);
  EXPECT_TRUE(Matrix::AllClose(yp, yp_expected, 1e-6f));
}

class LinearGradTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearGradTest, AnalyticGradientsMatchNumeric) {
  const bool relu = GetParam() == 1;
  Rng rng(42 + GetParam());
  Linear layer(4, 3,
               relu ? Linear::Activation::kRelu
                    : Linear::Activation::kIdentity,
               &rng);
  Matrix x = Matrix::Uniform(6, 4, &rng);
  // Scalar loss: sum of squares of the outputs.
  auto loss = [&]() {
    Matrix y = layer.Forward(x);
    return y.SquaredNorm();
  };

  Matrix y = layer.Forward(x);
  Matrix dy = y * 2.0f;  // d(Σy²)/dy
  Matrix dw(4, 3), db(1, 3);
  Matrix dx = layer.Backward(x, y, dy, &dw, &db);

  auto wres = CheckGradient(&layer.weights(), dw, loss);
  EXPECT_LT(wres.max_rel_err, 5e-2f) << "weight grad mismatch";
  auto bres = CheckGradient(&layer.bias(), db, loss);
  EXPECT_LT(bres.max_rel_err, 5e-2f) << "bias grad mismatch";
  auto xres = CheckGradient(&x, dx, loss);
  EXPECT_LT(xres.max_rel_err, 5e-2f) << "input grad mismatch";
}

INSTANTIATE_TEST_SUITE_P(Activations, LinearGradTest, ::testing::Values(0, 1));

TEST(LinearTest, BackwardAccumulatesIntoGradients) {
  Rng rng(5);
  Linear layer(2, 2, Linear::Activation::kIdentity, &rng);
  Matrix x = Matrix::FromRows({{1, 2}});
  const Matrix y = layer.Forward(x);
  Matrix dy = Matrix::FromRows({{1, 1}});
  Matrix dw(2, 2), db(1, 2);
  layer.Backward(x, y, dy, &dw, &db);
  Matrix dw_once = dw;
  layer.Backward(x, y, dy, &dw, &db);
  EXPECT_TRUE(Matrix::AllClose(dw, dw_once * 2.0f, 1e-6f));
}

TEST(LinearTest, ReluMaskFromTheOutputEqualsThePreActivationMask) {
  // x = -0 and unit weights make each pre-activation exactly its bias
  // (-0·1 + b = b for every b, -0 and NaN included).
  const float kSpecial[] = {std::nanf(""),
                            -std::nanf(""),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            1.0f,
                            -1.0f};
  const size_t n = sizeof(kSpecial) / sizeof(kSpecial[0]);
  Rng rng(8);
  Linear layer(1, n, Linear::Activation::kRelu, &rng);
  layer.weights().Fill(1.0f);
  for (size_t c = 0; c < n; ++c) layer.bias()(0, c) = kSpecial[c];
  const Matrix x = Matrix::FromRows({{-0.0f}});
  const Matrix y = layer.Forward(x);
  const Matrix up = Matrix::Constant(1, n, 3.0f);
  Matrix dz, dw(1, n), db(1, n);
  layer.BackwardInto(x, y, up, &dz, &dw, &db, nullptr, nullptr);
  for (size_t c = 0; c < n; ++c) {
    const float pre = -0.0f * 1.0f + kSpecial[c];
    SCOPED_TRACE(::testing::Message() << "pre=" << pre);
    EXPECT_EQ(y(0, c) > 0.0f, pre > 0.0f);
    EXPECT_EQ(dz(0, c), pre > 0.0f ? 3.0f : 0.0f);
  }
}

TEST(LinearTest, SaveLoadRoundTrip) {
  Rng rng(6);
  Linear layer(3, 5, Linear::Activation::kRelu, &rng);
  std::stringstream ss;
  ASSERT_TRUE(layer.Save(&ss).ok());
  Linear restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  EXPECT_TRUE(Matrix::AllClose(layer.weights(), restored.weights(), 0.0f));
  EXPECT_TRUE(Matrix::AllClose(layer.bias(), restored.bias(), 0.0f));
  EXPECT_EQ(restored.activation(), Linear::Activation::kRelu);
}

}  // namespace
}  // namespace crowdrl
