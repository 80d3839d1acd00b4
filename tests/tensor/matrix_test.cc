#include "tensor/matrix.h"

#include <gtest/gtest.h>

#include <sstream>

namespace crowdrl {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructsZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(MatrixTest, FromRowsRoundTrips) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
}

TEST(MatrixTest, EyeHasUnitDiagonal) {
  Matrix e = Matrix::Eye(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(e(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, FillAndSetZero) {
  Matrix m(2, 2);
  m.Fill(7.0f);
  EXPECT_EQ(m(1, 1), 7.0f);
  m.SetZero();
  EXPECT_EQ(m.Sum(), 0.0);
}

TEST(MatrixTest, ArithmeticOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 6.0f);
  EXPECT_EQ(sum(1, 1), 12.0f);
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 0), 4.0f);
  Matrix scaled = a * 2.0f;
  EXPECT_EQ(scaled(1, 0), 6.0f);
  Matrix had = a.CwiseProduct(b);
  EXPECT_EQ(had(0, 1), 12.0f);
}

TEST(MatrixTest, AddScaledIsAxpy) {
  Matrix a = Matrix::FromRows({{1, 1}});
  Matrix b = Matrix::FromRows({{2, 4}});
  a.AddScaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 3.0f);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix bias = Matrix::FromRows({{10, 20}});
  m.AddRowBroadcast(bias);
  EXPECT_EQ(m(0, 0), 11.0f);
  EXPECT_EQ(m(1, 1), 24.0f);
}

TEST(MatrixTest, ReluAndMask) {
  Matrix m = Matrix::FromRows({{-1, 0, 2}});
  Matrix r = m.Relu();
  EXPECT_EQ(r(0, 0), 0.0f);
  EXPECT_EQ(r(0, 1), 0.0f);
  EXPECT_EQ(r(0, 2), 2.0f);
  Matrix mask = m.ReluMask();
  EXPECT_EQ(mask(0, 0), 0.0f);
  EXPECT_EQ(mask(0, 1), 0.0f);
  EXPECT_EQ(mask(0, 2), 1.0f);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(1);
  Matrix m = Matrix::Uniform(3, 5, &rng);
  Matrix tt = m.Transpose().Transpose();
  EXPECT_TRUE(Matrix::AllClose(m, tt));
  EXPECT_EQ(m.Transpose().rows(), 5u);
  EXPECT_EQ(m.Transpose()(2, 1), m(1, 2));
}

TEST(MatrixTest, TransposeIntoCoversEveryBlockEdge) {
  // The 8×8 register blocks, their row and column tails, and a reused
  // destination of another shape.
  Rng rng(2);
  Matrix t = Matrix::Constant(30, 30, -1.0f);
  for (size_t rows : {1, 3, 4, 7, 8, 9, 16, 17, 64}) {
    for (size_t cols : {1, 5, 8, 12, 16, 23, 64}) {
      const Matrix m = Matrix::Uniform(rows, cols, &rng);
      m.TransposeInto(&t);
      ASSERT_EQ(t.rows(), cols);
      ASSERT_EQ(t.cols(), rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          ASSERT_EQ(t(c, r), m(r, c)) << rows << "x" << cols;
        }
      }
    }
  }
}

TEST(MatrixTest, RowAccessors) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix row = m.GetRow(1);
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row(0, 1), 4.0f);
  m.SetRow(0, std::vector<float>{9, 8});
  EXPECT_EQ(m(0, 0), 9.0f);
  Matrix slice = m.SliceRows(1, 3);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_EQ(slice(1, 1), 6.0f);
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromRows({{1, -2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 1 + 4 + 9 + 16);
  EXPECT_EQ(m.MaxCoeff(), 4.0f);
  EXPECT_EQ(m.MinCoeff(), -2.0f);
}

TEST(MatrixTest, AllCloseRespectsShapeAndTolerance) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1, 2.00001f}});
  Matrix c(2, 1);
  EXPECT_TRUE(Matrix::AllClose(a, b, 1e-4f));
  EXPECT_FALSE(Matrix::AllClose(a, b, 1e-7f));
  EXPECT_FALSE(Matrix::AllClose(a, c));
}

TEST(MatrixTest, HasNonFinite) {
  Matrix m(1, 2);
  EXPECT_FALSE(m.HasNonFinite());
  m(0, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(m.HasNonFinite());
  m(0, 1) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(m.HasNonFinite());
}

TEST(MatrixTest, SaveLoadRoundTrip) {
  Rng rng(7);
  Matrix m = Matrix::Normal(4, 6, &rng);
  std::stringstream ss;
  ASSERT_TRUE(m.Save(&ss).ok());
  auto loaded = Matrix::Load(&ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(Matrix::AllClose(m, loaded.value(), 0.0f));
}

TEST(MatrixTest, LoadRejectsTruncatedStream) {
  std::stringstream ss;
  ss << "bogus";
  auto loaded = Matrix::Load(&ss);
  EXPECT_FALSE(loaded.ok());
}

TEST(MatrixTest, XavierBoundsScaleWithFanInOut) {
  Rng rng(3);
  Matrix m = Matrix::Xavier(100, 100, &rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(m.MaxCoeff(), bound + 1e-6f);
  EXPECT_GE(m.MinCoeff(), -bound - 1e-6f);
}

TEST(MatrixTest, UniformRespectsRange) {
  Rng rng(3);
  Matrix m = Matrix::Uniform(20, 20, &rng, 2.0f, 3.0f);
  EXPECT_GE(m.MinCoeff(), 2.0f);
  EXPECT_LT(m.MaxCoeff(), 3.0f);
}

}  // namespace
}  // namespace crowdrl
