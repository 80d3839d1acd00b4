#include "nn/attention.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "nn/grad_check.h"

namespace crowdrl {
namespace {

MultiHeadSelfAttention MakeLayer(size_t dim, size_t heads, bool mask,
                                 uint64_t seed) {
  Rng rng(seed);
  return MultiHeadSelfAttention(dim, heads, &rng, mask);
}

TEST(AttentionTest, OutputShapeMatchesInput) {
  auto layer = MakeLayer(8, 2, true, 1);
  Rng rng(2);
  Matrix x = Matrix::Uniform(5, 8, &rng);
  MultiHeadSelfAttention::Cache cache;
  Matrix y = layer.Forward(x, 5, &cache);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
  EXPECT_FALSE(y.HasNonFinite());
}

TEST(AttentionTest, PermutationEquivariance) {
  // Appendix Proof 2: permuting input rows permutes output rows.
  auto layer = MakeLayer(8, 4, true, 3);
  Rng rng(4);
  Matrix x = Matrix::Uniform(6, 8, &rng);
  MultiHeadSelfAttention::Cache cache;
  Matrix y = layer.Forward(x, 6, &cache);

  std::vector<int> perm = {3, 1, 5, 0, 4, 2};
  Matrix xp(6, 8), yp_expected(6, 8);
  for (size_t r = 0; r < 6; ++r) {
    xp.SetRow(r, x, perm[r]);
    yp_expected.SetRow(r, y, perm[r]);
  }
  Matrix yp = layer.Forward(xp, 6, &cache);
  EXPECT_TRUE(Matrix::AllClose(yp, yp_expected, 1e-4f));
}

TEST(AttentionTest, MaskedPaddingDoesNotAffectValidRows) {
  // With masking, appending garbage padding rows must not change the
  // outputs of the valid rows — this is what makes trimmed and padded
  // states mathematically identical.
  auto layer = MakeLayer(8, 2, true, 5);
  Rng rng(6);
  Matrix x = Matrix::Uniform(4, 8, &rng);
  MultiHeadSelfAttention::Cache cache;
  Matrix y_small = layer.Forward(x, 4, &cache);

  Matrix padded(7, 8);
  for (size_t r = 0; r < 4; ++r) padded.SetRow(r, x, r);
  for (size_t r = 4; r < 7; ++r) {
    for (size_t c = 0; c < 8; ++c) padded(r, c) = 99.0f;  // garbage
  }
  Matrix y_padded = layer.Forward(padded, 4, &cache);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(y_small(r, c), y_padded(r, c), 1e-5f);
    }
  }
  // Padded rows output exactly zero.
  for (size_t r = 4; r < 7; ++r) {
    for (size_t c = 0; c < 8; ++c) EXPECT_EQ(y_padded(r, c), 0.0f);
  }
}

TEST(AttentionTest, UnmaskedPaddingLeaksByDesign) {
  // The ablation mode reproduces the paper's raw zero-padding: padding
  // rows participate in the softmax, so valid outputs change.
  auto layer = MakeLayer(8, 2, false, 7);
  Rng rng(8);
  Matrix x = Matrix::Uniform(3, 8, &rng, 0.5f, 1.5f);
  MultiHeadSelfAttention::Cache cache;
  Matrix y_small = layer.Forward(x, 3, &cache);

  Matrix padded(6, 8);
  for (size_t r = 0; r < 3; ++r) padded.SetRow(r, x, r);
  Matrix y_padded = layer.Forward(padded, 3, &cache);
  EXPECT_GT(Matrix::MaxAbsDiff(y_small, y_padded.SliceRows(0, 3)), 1e-4f);
}

TEST(AttentionTest, SingleRowAttendsOnlyToItself) {
  auto layer = MakeLayer(4, 1, true, 9);
  Rng rng(10);
  Matrix x = Matrix::Uniform(1, 4, &rng);
  MultiHeadSelfAttention::Cache cache;
  layer.Forward(x, 1, &cache);
  EXPECT_NEAR(cache.probs[0](0, 0), 1.0f, 1e-6f);
}

class AttentionGradTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AttentionGradTest, AnalyticGradientsMatchNumeric) {
  const int heads = std::get<0>(GetParam());
  const bool mask = std::get<1>(GetParam());
  auto layer = MakeLayer(8, heads, mask, 11 + heads);
  Rng rng(12);
  const size_t n = 5, valid = mask ? 4 : 5;
  Matrix x = Matrix::Uniform(n, 8, &rng, -0.5f, 0.5f);

  auto loss = [&]() {
    MultiHeadSelfAttention::Cache cache;
    Matrix y = layer.Forward(x, valid, &cache);
    // Only valid rows contribute (mirrors how the Q-network uses outputs).
    double acc = 0;
    for (size_t r = 0; r < valid; ++r) {
      for (size_t c = 0; c < y.cols(); ++c) {
        acc += static_cast<double>(y(r, c)) * y(r, c);
      }
    }
    return acc;
  };

  MultiHeadSelfAttention::Cache cache;
  Matrix y = layer.Forward(x, valid, &cache);
  Matrix dy = y * 2.0f;
  for (size_t r = valid; r < n; ++r) {
    for (size_t c = 0; c < dy.cols(); ++c) dy(r, c) = 0.0f;
  }
  auto grads = layer.MakeGrads();
  Matrix dx = layer.Backward(x, dy, cache, &grads);

  EXPECT_LT(CheckGradient(&layer.wq(), grads.dwq, loss).max_rel_err, 6e-2f);
  EXPECT_LT(CheckGradient(&layer.wk(), grads.dwk, loss).max_rel_err, 6e-2f);
  EXPECT_LT(CheckGradient(&layer.wv(), grads.dwv, loss).max_rel_err, 6e-2f);
  EXPECT_LT(CheckGradient(&layer.wo(), grads.dwo, loss).max_rel_err, 6e-2f);
  EXPECT_LT(CheckGradient(&x, dx, loss).max_rel_err, 6e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    HeadsAndMasking, AttentionGradTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool()));

TEST(AttentionTest, SaveLoadRoundTrip) {
  auto layer = MakeLayer(8, 4, true, 20);
  std::stringstream ss;
  ASSERT_TRUE(layer.Save(&ss).ok());
  MultiHeadSelfAttention restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  EXPECT_EQ(restored.num_heads(), 4u);
  EXPECT_TRUE(restored.use_mask());
  EXPECT_TRUE(Matrix::AllClose(layer.wq(), restored.wq(), 0.0f));
  EXPECT_TRUE(Matrix::AllClose(layer.wo(), restored.wo(), 0.0f));
}

// ---- corrupt-checkpoint round trips: Load must reject, not install ----
// The trailing 16 bytes of the serialized stream are the uint64 meta pair
// {num_heads, use_mask}; these tests overwrite them in place.

std::string SerializedLayer(uint64_t heads_override, uint64_t mask_override) {
  auto layer = MakeLayer(8, 4, true, 21);
  std::stringstream ss;
  CROWDRL_CHECK(layer.Save(&ss).ok());
  std::string bytes = ss.str();
  CROWDRL_CHECK(bytes.size() > 16);
  std::memcpy(&bytes[bytes.size() - 16], &heads_override, 8);
  std::memcpy(&bytes[bytes.size() - 8], &mask_override, 8);
  return bytes;
}

TEST(AttentionTest, LoadRejectsZeroHeadCount) {
  // num_heads == 0 would divide by zero in head_dim() on first Forward.
  std::stringstream corrupt(SerializedLayer(0, 1));
  MultiHeadSelfAttention restored;
  const Status st = restored.Load(&corrupt);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(AttentionTest, LoadRejectsNonDividingHeadCount) {
  // 3 heads over dim 8 would slice heads out of bounds.
  std::stringstream corrupt(SerializedLayer(3, 1));
  MultiHeadSelfAttention restored;
  const Status st = restored.Load(&corrupt);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(AttentionTest, LoadRejectsOversizedHeadCount) {
  std::stringstream corrupt(SerializedLayer(1ULL << 40, 1));
  MultiHeadSelfAttention restored;
  EXPECT_EQ(restored.Load(&corrupt).code(), StatusCode::kIoError);
}

TEST(AttentionTest, LoadRejectsInvalidMaskFlag) {
  std::stringstream corrupt(SerializedLayer(4, 7));
  MultiHeadSelfAttention restored;
  EXPECT_EQ(restored.Load(&corrupt).code(), StatusCode::kIoError);
}

TEST(AttentionTest, LoadRejectsTruncatedStream) {
  auto layer = MakeLayer(8, 2, true, 22);
  std::stringstream ss;
  ASSERT_TRUE(layer.Save(&ss).ok());
  std::string bytes = ss.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 20));
  MultiHeadSelfAttention restored;
  EXPECT_FALSE(restored.Load(&truncated).ok());
}

TEST(AttentionTest, ValidStreamStillLoadsAfterValidation) {
  // Guard against the validation rejecting well-formed checkpoints.
  std::stringstream ok_stream(SerializedLayer(2, 0));
  MultiHeadSelfAttention restored;
  ASSERT_TRUE(restored.Load(&ok_stream).ok());
  EXPECT_EQ(restored.num_heads(), 2u);
  EXPECT_FALSE(restored.use_mask());
}

}  // namespace
}  // namespace crowdrl
