// The tolerance ladder of the matmul kernels (see src/tensor/ops.h). Both
// kernel builds are linked into every binary, so this one test holds each
// to its tier through crowdrl::internal, whichever build the host picks
// for the public functions:
//
//  * bit-exact:       portable Matmul, MatmulAccumulate and
//                     MatmulTransposeA against the scalar loops; the fused
//                     softmax against its unfused reference
//  * FMA-exact:       tiled Matmul, MatmulAccumulate and MatmulTransposeA
//                     against a per-element std::fma chain in k-ascending
//                     order (from C's value when accumulating);
//                     tiled MatmulTransposeB against the 8-lane FMA dot
//                     schedule
//  * bounded-epsilon: portable MatmulTransposeB, every tiled kernel and
//                     the public accumulate form against reference::
//
// Every kernel also runs on strided blocks of larger matrices (A, B and C
// each with its own row stride) and must equal its reference on
// contiguous copies of those blocks, bit for bit, without writing outside
// the destination block.
//
// plus the IEEE NaN/Inf-propagation regression the old zero-skip broke,
// through both builds. On a host without AVX2/FMA the tiled cases skip
// (and say so); everything else still runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "tensor/ops.h"

namespace crowdrl {
namespace {

// Bounded-epsilon bound: |Σ| error grows with the reduction length k.
float EpsFor(size_t k) { return 1e-5f * static_cast<float>(k); }

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      // memcmp-style comparison: distinguishes ±0 and compares NaN bits —
      // what "kept the reduction order" actually promises.
      const float av = a(r, c), bv = b(r, c);
      if (std::memcmp(&av, &bv, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

#define EXPECT_BIT_IDENTICAL(kernel, ref)             \
  EXPECT_TRUE(BitIdentical(kernel, ref))              \
      << "max abs diff " << Matrix::MaxAbsDiff(kernel, ref)

bool HostHasAvx2Fma() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// The tiled build, or skip the calling test when the host cannot run it.
#define TILED_OR_SKIP(var)                                               \
  const internal::MatmulKernels* var = internal::TiledKernels();         \
  if (var == nullptr) {                                                  \
    GTEST_SKIP() << "host lacks AVX2/FMA: tiled kernel cases skipped";   \
  }

// ---- references for the FMA-exact tier ----

// C = A·B, each element one std::fma chain in k-ascending order.
Matrix FmaMatmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (size_t kk = 0; kk < a.cols(); ++kk) {
        s = std::fma(a(i, kk), b(kk, j), s);
      }
      c(i, j) = s;
    }
  }
  return c;
}

// C + A·B, each element's std::fma chain starting from C's value.
Matrix FmaMatmulOnto(const Matrix& a, const Matrix& b, Matrix c) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float s = c(i, j);
      for (size_t kk = 0; kk < a.cols(); ++kk) {
        s = std::fma(a(i, kk), b(kk, j), s);
      }
      c(i, j) = s;
    }
  }
  return c;
}

// C + A·B in the portable order: c += a·b (two roundings), k ascending.
Matrix ScalarMatmulOnto(const Matrix& a, const Matrix& b, Matrix c) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t kk = 0; kk < a.cols(); ++kk) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, kk) * b(kk, j);
    }
  }
  return c;
}

// C + Aᵀ·B, each element's std::fma chain starting from C's value.
Matrix FmaMatmulTransposeAOnto(const Matrix& a, const Matrix& b, Matrix c) {
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float s = c(i, j);
      for (size_t kk = 0; kk < a.rows(); ++kk) {
        s = std::fma(a(kk, i), b(kk, j), s);
      }
      c(i, j) = s;
    }
  }
  return c;
}

// C + Aᵀ·B in the portable order: c += a·b (two roundings), k ascending.
Matrix ScalarMatmulTransposeAOnto(const Matrix& a, const Matrix& b, Matrix c) {
  for (size_t kk = 0; kk < a.rows(); ++kk) {
    for (size_t i = 0; i < a.cols(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(kk, i) * b(kk, j);
    }
  }
  return c;
}

// The tiled dot schedule: lane l chains k ≡ l (mod 8) with std::fma over
// the full 8-blocks, the lanes reduce as (l0+l4 + l2+l6) + (l1+l5 + l3+l7),
// and the k tail continues as one std::fma chain.
Matrix FmaLaneMatmulTransposeB(const Matrix& a, const Matrix& b) {
  const size_t k = a.cols();
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      const float* x = a.row_data(i);
      const float* y = b.row_data(j);
      float lane[8] = {};
      size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        for (size_t l = 0; l < 8; ++l) {
          lane[l] = std::fma(x[kk + l], y[kk + l], lane[l]);
        }
      }
      float s = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                ((lane[1] + lane[5]) + (lane[3] + lane[7]));
      for (; kk < k; ++kk) s = std::fma(x[kk], y[kk], s);
      c(i, j) = s;
    }
  }
  return c;
}

// ---- shapes that straddle every tile edge ----

// m: the 6-row tile and its remainders; n: the 16- and 8-column
// tiles, the 2-column dot tile and scalar tails; k: the 8-lane dot blocks
// and their tails.
const size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
const size_t kCols[] = {1, 7, 8, 9, 15, 16, 17, 33, 64, 72};
const size_t kDepths[] = {1, 3, 8, 17, 64};

template <typename Fn>
void ForEachShape(Fn fn) {
  for (size_t m : kRows) {
    for (size_t n : kCols) {
      for (size_t k : kDepths) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        fn(m, n, k);
      }
    }
  }
}

Matrix Product(internal::GemmFn kernel, const Matrix& a, const Matrix& b,
               size_t m, size_t n) {
  Matrix c(m, n);
  kernel(a, b, &c);
  return c;
}

// ---- portable build ----

TEST(PortableKernelTest, MatmulBitExactAgainstReference) {
  const internal::MatmulKernels& portable = internal::PortableKernels();
  Rng rng(101);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    EXPECT_BIT_IDENTICAL(Product(portable.matmul, a, b, m, n),
                         reference::Matmul(a, b));
  });
}

TEST(PortableKernelTest, MatmulTransposeABitExactAgainstReference) {
  const internal::MatmulKernels& portable = internal::PortableKernels();
  Rng rng(103);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(k, m, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    EXPECT_BIT_IDENTICAL(
        Product(portable.matmul_transpose_a_accumulate, a, b, m, n),
        reference::MatmulTransposeA(a, b));
    // Onto a non-zero destination: the same k-ascending c += a·b per element.
    const Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
    Matrix c = c0;
    portable.matmul_transpose_a_accumulate(a, b, &c);
    EXPECT_BIT_IDENTICAL(c, ScalarMatmulTransposeAOnto(a, b, c0));
  });
}

TEST(PortableKernelTest, MatmulAccumulateContinuesEachChainFromC) {
  const internal::MatmulKernels& portable = internal::PortableKernels();
  Rng rng(104);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    const Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
    Matrix c = c0;
    portable.matmul_accumulate(a, b, &c);
    EXPECT_BIT_IDENTICAL(c, ScalarMatmulOnto(a, b, c0));
  });
}

TEST(PortableKernelTest, MatmulTransposeBWithinEpsilonOfReference) {
  const internal::MatmulKernels& portable = internal::PortableKernels();
  Rng rng(102);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(n, k, &rng, -2.0f, 2.0f);
    // Bounded-epsilon: the dot reduction is split into four partial sums.
    const Matrix c = Product(portable.matmul_transpose_b, a, b, m, n);
    const Matrix ref = reference::MatmulTransposeB(a, b);
    EXPECT_TRUE(Matrix::AllClose(c, ref, EpsFor(k)))
        << "max abs diff " << Matrix::MaxAbsDiff(c, ref);
  });
}

// ---- tiled build ----

TEST(TiledKernelTest, MatmulFmaExactAgainstPerElementFma) {
  TILED_OR_SKIP(tiled);
  Rng rng(201);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    const Matrix c = Product(tiled->matmul, a, b, m, n);
    EXPECT_BIT_IDENTICAL(c, FmaMatmul(a, b));
    EXPECT_TRUE(Matrix::AllClose(c, reference::Matmul(a, b), EpsFor(k)));
  });
}

TEST(TiledKernelTest, MatmulTransposeAFmaExactAgainstPerElementFma) {
  TILED_OR_SKIP(tiled);
  Rng rng(203);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(k, m, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    const Matrix c = Product(tiled->matmul_transpose_a_accumulate, a, b, m, n);
    EXPECT_BIT_IDENTICAL(c, FmaMatmulTransposeAOnto(a, b, Matrix(m, n)));
    EXPECT_TRUE(
        Matrix::AllClose(c, reference::MatmulTransposeA(a, b), EpsFor(k)));
    // Onto a non-zero destination: each chain starts from C's value.
    const Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
    Matrix acc = c0;
    tiled->matmul_transpose_a_accumulate(a, b, &acc);
    EXPECT_BIT_IDENTICAL(acc, FmaMatmulTransposeAOnto(a, b, c0));
  });
}

TEST(TiledKernelTest, MatmulAccumulateContinuesEachChainFromC) {
  TILED_OR_SKIP(tiled);
  Rng rng(204);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(k, n, &rng, -2.0f, 2.0f);
    const Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
    Matrix c = c0;
    tiled->matmul_accumulate(a, b, &c);
    EXPECT_BIT_IDENTICAL(c, FmaMatmulOnto(a, b, c0));
  });
}

TEST(TiledKernelTest, MatmulTransposeBFmaExactAgainstLaneSchedule) {
  TILED_OR_SKIP(tiled);
  Rng rng(202);
  ForEachShape([&](size_t m, size_t n, size_t k) {
    const Matrix a = Matrix::Uniform(m, k, &rng, -2.0f, 2.0f);
    const Matrix b = Matrix::Uniform(n, k, &rng, -2.0f, 2.0f);
    const Matrix c = Product(tiled->matmul_transpose_b, a, b, m, n);
    EXPECT_BIT_IDENTICAL(c, FmaLaneMatmulTransposeB(a, b));
    EXPECT_TRUE(
        Matrix::AllClose(c, reference::MatmulTransposeB(a, b), EpsFor(k)));
  });
}

// ---- the public functions: dispatch and destination handling ----

TEST(KernelDispatchTest, UsesTiledKernelsExactlyWhenCpuHasAvx2AndFma) {
  EXPECT_EQ(KernelUsesAvx2(), HostHasAvx2Fma());
  EXPECT_EQ(internal::TiledKernels() != nullptr, HostHasAvx2Fma());
  if (!KernelUsesAvx2()) {
    std::printf("host lacks AVX2/FMA: the portable kernels are active\n");
  }
}

TEST(KernelDispatchTest, PublicFunctionsRunTheChosenBuild) {
  const internal::MatmulKernels& active = KernelUsesAvx2()
                                              ? *internal::TiledKernels()
                                              : internal::PortableKernels();
  Rng rng(104);
  for (size_t m : {size_t{3}, size_t{9}}) {
    for (size_t n : {size_t{8}, size_t{17}, size_t{64}}) {
      const size_t k = 17;
      const Matrix a = Matrix::Uniform(m, k, &rng);
      const Matrix b = Matrix::Uniform(k, n, &rng);
      EXPECT_BIT_IDENTICAL(Matmul(a, b), Product(active.matmul, a, b, m, n));
      const Matrix at = Matrix::Uniform(k, m, &rng);
      EXPECT_BIT_IDENTICAL(
          MatmulTransposeA(at, b),
          Product(active.matmul_transpose_a_accumulate, at, b, m, n));
      const Matrix bt = Matrix::Uniform(n, k, &rng);
      EXPECT_BIT_IDENTICAL(MatmulTransposeB(a, bt),
                           Product(active.matmul_transpose_b, a, bt, m, n));
    }
  }
}

TEST(KernelDispatchTest, MatmulTransposeAAccumulateAddsOntoDestination) {
  Rng rng(105);
  Matrix a = Matrix::Uniform(9, 6, &rng);
  Matrix b = Matrix::Uniform(9, 11, &rng);
  Matrix c0 = Matrix::Uniform(6, 11, &rng);
  Matrix c = c0;
  MatmulTransposeAAccumulate(a, b, &c);
  Matrix expected = c0;
  expected += reference::MatmulTransposeA(a, b);
  // Interleaved accumulation reassociates relative to add-after-multiply.
  EXPECT_TRUE(Matrix::AllClose(c, expected, EpsFor(a.rows())));
}

TEST(KernelDispatchTest, MatmulAccumulateChainsLikeOneProduct) {
  // C = X·Y then C += Z·W is the product [X Z]·[Y; W], bit for bit.
  Rng rng(107);
  const Matrix x = Matrix::Uniform(7, 5, &rng), y = Matrix::Uniform(5, 19, &rng);
  const Matrix z = Matrix::Uniform(7, 12, &rng), w = Matrix::Uniform(12, 19, &rng);
  Matrix c = Matmul(x, y);
  MatmulAccumulate(z, w, &c);
  Matrix xz(7, 17), yw(17, 19);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t k = 0; k < 5; ++k) xz(r, k) = x(r, k);
    for (size_t k = 0; k < 12; ++k) xz(r, 5 + k) = z(r, k);
  }
  for (size_t j = 0; j < 19; ++j) {
    for (size_t k = 0; k < 5; ++k) yw(k, j) = y(k, j);
    for (size_t k = 0; k < 12; ++k) yw(5 + k, j) = w(k, j);
  }
  EXPECT_BIT_IDENTICAL(c, Matmul(xz, yw));
}

TEST(KernelDispatchTest, IntoFormsReuseDestinationAcrossShapes) {
  Rng rng(106);
  Matrix c;
  // Shrinking then growing within capacity must yield the same results as
  // a fresh destination each time.
  for (size_t m : {size_t{12}, size_t{3}, size_t{8}}) {
    Matrix a = Matrix::Uniform(m, 7, &rng);
    Matrix b = Matrix::Uniform(7, m + 2, &rng);
    MatmulInto(a, b, &c);
    EXPECT_BIT_IDENTICAL(c, Matmul(a, b));
    EXPECT_TRUE(Matrix::AllClose(c, reference::Matmul(a, b), EpsFor(7)));
  }
}

TEST(KernelDispatchTest, EmptyInnerDimensionGivesZeroProduct) {
  const Matrix a(3, 0), b(0, 17);
  EXPECT_BIT_IDENTICAL(Matmul(a, b), Matrix(3, 17));
  const Matrix at(0, 5);
  EXPECT_BIT_IDENTICAL(MatmulTransposeA(at, b), Matrix(5, 17));
  EXPECT_BIT_IDENTICAL(MatmulTransposeB(a, Matrix(4, 0)), Matrix(3, 4));
}

// ---- strided operands: every kernel on blocks of larger matrices ----

// An rows×cols block at (1, 2) of a larger random matrix, and its
// contiguous copy.
struct Embedded {
  Matrix parent;
  Matrix copy;

  ConstMatrixView view() const {
    return Block(parent, 1, copy.rows(), 2, copy.cols());
  }
};

Embedded Embed(size_t rows, size_t cols, Rng* rng) {
  Embedded e;
  e.parent = Matrix::Uniform(rows + 3, cols + 5, rng, -2.0f, 2.0f);
  e.copy.Resize(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) e.copy(r, c) = e.parent(1 + r, 2 + c);
  }
  return e;
}

// Runs `kernel` into the block at (2, 3) of a NaN-filled matrix that starts
// as `c0` inside the block, expects every entry outside the block to stay
// NaN, and returns the block.
Matrix StridedProduct(internal::GemmFn kernel, ConstMatrixView a,
                      ConstMatrixView b, const Matrix& c0) {
  const size_t m = c0.rows(), n = c0.cols();
  Matrix big = Matrix::Constant(m + 4, n + 7, std::nanf(""));
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < n; ++c) big(2 + r, 3 + c) = c0(r, c);
  }
  kernel(a, b, Block(&big, 2, m, 3, n));
  Matrix out(m, n);
  for (size_t r = 0; r < big.rows(); ++r) {
    for (size_t c = 0; c < big.cols(); ++c) {
      const bool inside = r >= 2 && r < 2 + m && c >= 3 && c < 3 + n;
      if (inside) {
        out(r - 2, c - 3) = big(r, c);
      } else {
        EXPECT_TRUE(std::isnan(big(r, c))) << "wrote outside at " << r << ","
                                           << c;
      }
    }
  }
  return out;
}

// m walks every row remainder of the 6-row tile, twice over; n the 16-
// and 8-column tiles and their tails; k includes the empty product.
const size_t kStridedRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
const size_t kStridedCols[] = {1, 7, 8, 16, 17, 64};
const size_t kStridedDepths[] = {0, 1, 3, 64};

// Every kernel of one build on strided A, B and C equals its reference on
// contiguous copies, bit for bit: the per-element std::fma chain and lane
// schedule for the tiled build, the scalar loops for the portable one (and,
// for its bounded-epsilon A·Bᵀ, the same kernel on the copies).
void ExpectStridedOperandsMatchContiguous(
    const internal::MatmulKernels& kernels, bool tiled) {
  Rng rng(tiled ? 311 : 301);
  const float nan = std::nanf("");
  for (size_t m : kStridedRows) {
    for (size_t n : kStridedCols) {
      for (size_t k : kStridedDepths) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Embedded a = Embed(m, k, &rng);
        const Embedded b = Embed(k, n, &rng);
        const Embedded at = Embed(k, m, &rng);
        const Embedded bt = Embed(n, k, &rng);
        const Matrix c0 = Matrix::Uniform(m, n, &rng, -2.0f, 2.0f);
        const Matrix unset = Matrix::Constant(m, n, nan);

        EXPECT_BIT_IDENTICAL(
            StridedProduct(kernels.matmul, a.view(), b.view(), unset),
            tiled ? FmaMatmul(a.copy, b.copy)
                  : reference::Matmul(a.copy, b.copy));
        EXPECT_BIT_IDENTICAL(
            StridedProduct(kernels.matmul_accumulate, a.view(), b.view(), c0),
            tiled ? FmaMatmulOnto(a.copy, b.copy, c0)
                  : ScalarMatmulOnto(a.copy, b.copy, c0));
        EXPECT_BIT_IDENTICAL(
            StridedProduct(kernels.matmul_transpose_a_accumulate, at.view(),
                           b.view(), c0),
            tiled ? FmaMatmulTransposeAOnto(at.copy, b.copy, c0)
                  : ScalarMatmulTransposeAOnto(at.copy, b.copy, c0));
        EXPECT_BIT_IDENTICAL(
            StridedProduct(kernels.matmul_transpose_b, a.view(), bt.view(),
                           unset),
            tiled ? FmaLaneMatmulTransposeB(a.copy, bt.copy)
                  : Product(kernels.matmul_transpose_b, a.copy, bt.copy, m,
                            n));
      }
    }
  }
}

TEST(PortableKernelTest, StridedOperandsMatchContiguousReferences) {
  ExpectStridedOperandsMatchContiguous(internal::PortableKernels(), false);
}

TEST(TiledKernelTest, StridedOperandsMatchContiguousReferences) {
  TILED_OR_SKIP(tiled);
  ExpectStridedOperandsMatchContiguous(*tiled, true);
}

TEST(KernelDispatchTest, BlockFormsEqualProductsOfCopies) {
  // The public view forms against the Matrix forms on copied blocks.
  Rng rng(108);
  const Embedded a = Embed(7, 5, &rng), b = Embed(5, 9, &rng);
  const Embedded bt = Embed(9, 5, &rng), at = Embed(5, 7, &rng);
  Matrix c(7, 9);
  MatmulInto(a.view(), b.view(), &c);
  EXPECT_BIT_IDENTICAL(c, Matmul(a.copy, b.copy));
  MatmulTransposeBInto(a.view(), bt.view(), &c);
  EXPECT_BIT_IDENTICAL(c, MatmulTransposeB(a.copy, bt.copy));
  Matrix ct = Matrix::Constant(7, 9, std::nanf(""));
  MatmulTransposeAInto(at.view(), b.view(), &ct);
  EXPECT_BIT_IDENTICAL(ct, MatmulTransposeA(at.copy, b.copy));
}

// ---- IEEE NaN/Inf propagation, through both builds ----

// Regression for the removed `if (aik == 0.0f) continue;` zero-skip:
// IEEE demands 0×NaN = NaN, so a NaN anywhere in B must surface even when
// the matching A entry is zero — that is how corrupted weights get
// detected instead of sailing through zero-padded rows.
void ExpectNaNPropagates(const internal::MatmulKernels& kernels) {
  {
    Matrix a = Matrix::FromRows({{0.0f, 1.0f}});
    Matrix b = Matrix::FromRows({{std::nanf(""), 0.0f}, {1.0f, 2.0f}});
    Matrix c = Product(kernels.matmul, a, b, 1, 2);
    EXPECT_TRUE(std::isnan(c(0, 0)));
    EXPECT_FLOAT_EQ(c(0, 1), 2.0f);
    // 0 × Inf must also poison the sum (IEEE: 0·∞ = NaN).
    Matrix binf = Matrix::FromRows({{std::numeric_limits<float>::infinity()},
                                    {1.0f}});
    EXPECT_TRUE(std::isnan(Product(kernels.matmul, a, binf, 1, 1)(0, 0)));
  }
  {
    // The same through the vector tiles: 5 zero rows of A against a B
    // whose first row carries NaN in every 16-, 8- and tail-column slot.
    const size_t m = 5, n = 27;
    Matrix a(m, 2);
    Matrix b(2, n);
    for (size_t r = 0; r < m; ++r) a(r, 1) = 1.0f;
    for (size_t j = 0; j < n; j += 3) b(0, j) = std::nanf("");
    Matrix c = Product(kernels.matmul, a, b, m, n);
    for (size_t r = 0; r < m; ++r) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(std::isnan(c(r, j)), j % 3 == 0) << r << "," << j;
      }
    }
  }
  {
    Matrix a = Matrix::FromRows({{0.0f}, {1.0f}});           // 2×1
    Matrix b = Matrix::FromRows({{std::nanf("")}, {3.0f}});  // 2×1
    // 1×1: 0·NaN + 1·3
    EXPECT_TRUE(std::isnan(
        Product(kernels.matmul_transpose_a_accumulate, a, b, 1, 1)(0, 0)));
    Matrix wide_a(2, 6);
    Matrix wide_b(2, 20);
    wide_b(0, 9) = std::nanf("");
    Matrix c =
        Product(kernels.matmul_transpose_a_accumulate, wide_a, wide_b, 6, 20);
    for (size_t r = 0; r < 6; ++r) EXPECT_TRUE(std::isnan(c(r, 9)));
    EXPECT_FALSE(std::isnan(c(0, 8)));
  }
  {
    Matrix a = Matrix::FromRows({{0.0f, 1.0f}});
    Matrix b = Matrix::FromRows({{std::nanf(""), 5.0f}});
    EXPECT_TRUE(
        std::isnan(Product(kernels.matmul_transpose_b, a, b, 1, 1)(0, 0)));
    // NaN inside an 8-lane block and in the k tail.
    Matrix wide_a(5, 19);
    Matrix wide_b(3, 19);
    wide_b(0, 4) = std::nanf("");
    wide_b(2, 18) = std::nanf("");
    Matrix c = Product(kernels.matmul_transpose_b, wide_a, wide_b, 5, 3);
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_TRUE(std::isnan(c(r, 0)));
      EXPECT_FALSE(std::isnan(c(r, 1)));
      EXPECT_TRUE(std::isnan(c(r, 2)));
    }
  }
}

TEST(PortableKernelTest, PropagatesNaNThroughZeroRows) {
  ExpectNaNPropagates(internal::PortableKernels());
}

TEST(TiledKernelTest, PropagatesNaNThroughZeroRows) {
  TILED_OR_SKIP(tiled);
  ExpectNaNPropagates(*tiled);
}

// ---- fused scale+mask+softmax vs. unfused reference (one build) ----

void ExpectSoftmaxMatches(Matrix m, float scale,
                          const std::vector<uint8_t>* mask, long valid_rows) {
  Matrix ref = m;
  ScaledMaskedSoftmaxRowsInPlace(&m, scale, mask, valid_rows);
  reference::ScaledMaskedSoftmaxRows(&ref, scale, mask, valid_rows);
  EXPECT_BIT_IDENTICAL(m, ref);
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferenceUnmasked) {
  Rng rng(107);
  for (size_t n : {size_t{1}, size_t{4}, size_t{9}, size_t{33}}) {
    ExpectSoftmaxMatches(Matrix::Uniform(n, n, &rng, -3.0f, 3.0f), 0.37f,
                         nullptr, -1);
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferencePrefixMask) {
  Rng rng(108);
  for (size_t n : {size_t{5}, size_t{12}}) {
    for (size_t valid : {size_t{0}, size_t{1}, n / 2, n}) {
      std::vector<uint8_t> mask(n, 0);
      for (size_t i = 0; i < valid; ++i) mask[i] = 1;
      ExpectSoftmaxMatches(Matrix::Uniform(n, n, &rng, -3.0f, 3.0f), 0.5f,
                           &mask, static_cast<long>(valid));
    }
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxMatchesReferenceGeneralMask) {
  // Non-prefix masks exercise the fallback path.
  Rng rng(109);
  std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 1};
  ExpectSoftmaxMatches(Matrix::Uniform(6, 6, &rng, -2.0f, 2.0f), 1.3f, &mask,
                       4);
}

TEST(KernelEquivalenceTest, FusedSoftmaxFullyMaskedRowsAreZero) {
  Matrix m = Matrix::FromRows({{3.0f, -1.0f}, {0.5f, 0.5f}});
  std::vector<uint8_t> mask = {0, 0};
  ScaledMaskedSoftmaxRowsInPlace(&m, 0.7f, &mask, -1);
  EXPECT_FALSE(m.HasNonFinite());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(KernelEquivalenceTest, FusedSoftmaxAppliesScaleBeforeNormalizing) {
  // softmax(scale·x) computed directly: check against a hand expansion.
  Matrix m = Matrix::FromRows({{0.0f, 2.0f}});
  ScaledMaskedSoftmaxRowsInPlace(&m, 0.5f, nullptr, -1);
  const double e = std::exp(1.0);  // scale·2 = 1
  EXPECT_NEAR(m(0, 1), e / (1.0 + e), 1e-6);
  EXPECT_NEAR(m(0, 0) + m(0, 1), 1.0, 1e-6);
}

}  // namespace
}  // namespace crowdrl
