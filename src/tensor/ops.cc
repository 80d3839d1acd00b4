#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crowdrl {

namespace {

// ---- portable kernels: plain C++, auto-vectorized for the baseline ISA ----

/// crow += av·brow over n entries (one axpy stream).
inline void Axpy1(float* crow, const float* brow, float av, size_t n) {
  for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
}

/// Four independent axpy streams sharing one read of brow: the register
/// block of the portable matmul kernels. Four accumulator streams amortize
/// the B load 4× and give the compiler independent dependency chains.
inline void Axpy4(float* c0, float* c1, float* c2, float* c3,
                  const float* brow, float a0, float a1, float a2, float a3,
                  size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const float bv = brow[j];
    c0[j] += a0 * bv;
    c1[j] += a1 * bv;
    c2[j] += a2 * bv;
    c3[j] += a3 * bv;
  }
}

/// Dot with a reassociated reduction: four independent scalar partial sums
/// so the k loop vectorizes. Bounded-epsilon tier — a float reduction
/// cannot vectorize in-order.
inline float DotBlocked(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float out = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

inline void ZeroRow(float* row, size_t n) { std::fill(row, row + n, 0.0f); }

void ZeroView(MatrixView c) {
  for (size_t r = 0; r < c.rows; ++r) ZeroRow(c.row(r), c.cols);
}

/// C (+)= A·B. i-k-j ordering with a 4-row register block: the inner loop
/// runs over contiguous rows of B and C (independent FMA streams), and
/// each B row is read once per four C rows. Per-element accumulation stays
/// in k order onto C's starting value (zero, or its contents when
/// accumulating), so this is bit-identical to the plain scalar loop.
template <bool kAccumulate>
void PortableGemm(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  const size_t m = a.rows, k = a.cols, n = b.cols;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    float* c0 = c.row(i);
    float* c1 = c.row(i + 1);
    float* c2 = c.row(i + 2);
    float* c3 = c.row(i + 3);
    if (!kAccumulate) {
      ZeroRow(c0, n);
      ZeroRow(c1, n);
      ZeroRow(c2, n);
      ZeroRow(c3, n);
    }
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    const float* a2 = a.row(i + 2);
    const float* a3 = a.row(i + 3);
    for (size_t kk = 0; kk < k; ++kk) {
      Axpy4(c0, c1, c2, c3, b.row(kk), a0[kk], a1[kk], a2[kk], a3[kk], n);
    }
  }
  for (; i < m; ++i) {
    float* crow = c.row(i);
    if (!kAccumulate) ZeroRow(crow, n);
    const float* arow = a.row(i);
    for (size_t kk = 0; kk < k; ++kk) Axpy1(crow, b.row(kk), arow[kk], n);
  }
}

/// k-i-j accumulation: C += Aᵀ·B, each B row streamed once per four C rows.
void PortableMatmulTransposeAAccumulate(ConstMatrixView a, ConstMatrixView b,
                                        MatrixView c) {
  const size_t k = a.rows, m = a.cols, n = b.cols;
  for (size_t kk = 0; kk < k; ++kk) {
    const float* arow = a.row(kk);
    const float* brow = b.row(kk);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      Axpy4(c.row(i), c.row(i + 1), c.row(i + 2), c.row(i + 3), brow,
            arow[i], arow[i + 1], arow[i + 2], arow[i + 3], n);
    }
    for (; i < m; ++i) Axpy1(c.row(i), brow, arow[i], n);
  }
}

void PortableMatmulTransposeB(ConstMatrixView a, ConstMatrixView b,
                              MatrixView c) {
  const size_t m = a.rows, k = a.cols, n = b.rows;
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (size_t j = 0; j < n; ++j) crow[j] = DotBlocked(arow, b.row(j), k);
  }
}

#if defined(__x86_64__)

// ---- tiled kernels: AVX2/FMA. Only the functions marked CROWDRL_TILED
// are compiled for that target (a function attribute, not a build flag),
// so the rest of the library stays baseline x86-64 and the choice between
// the two builds is made at run time ----

#define CROWDRL_TILED __attribute__((target("avx2,fma")))

/// One product C (+)= α·B with B k×n and C m×n (row strides ldb, ldc),
/// where α(i, kk) = a[i·a_row + kk·a_k]: (a_row, a_k) = (lda, 1) reads
/// A·B, (1, lda) reads Aᵀ·B.
struct GemmOperands {
  const float* a;
  size_t a_row, a_k;
  const float* b;
  size_t ldb;
  float* c;
  size_t ldc;
  size_t k, n;
  bool accumulate;  // start from C's contents instead of zero
};

/// R rows of C: 16-column tiles (two vectors per row, 2R accumulators held
/// in registers for the whole k loop), one 8-column tile, then a scalar
/// column tail. Every element is one FMA chain in k-ascending order.
template <int R>
CROWDRL_TILED void GemmRows(const GemmOperands& g, size_t i) {
  const float* arow[R];
  float* crow[R];
  for (int r = 0; r < R; ++r) {
    arow[r] = g.a + (i + r) * g.a_row;
    crow[r] = g.c + (i + r) * g.ldc;
  }
  size_t j = 0;
  for (; j + 16 <= g.n; j += 16) {
    __m256 acc[R][2];
    for (int r = 0; r < R; ++r) {
      acc[r][0] = g.accumulate ? _mm256_loadu_ps(crow[r] + j)
                               : _mm256_setzero_ps();
      acc[r][1] = g.accumulate ? _mm256_loadu_ps(crow[r] + j + 8)
                               : _mm256_setzero_ps();
    }
    const float* bk = g.b + j;
    for (size_t kk = 0; kk < g.k; ++kk, bk += g.ldb) {
      const __m256 b0 = _mm256_loadu_ps(bk);
      const __m256 b1 = _mm256_loadu_ps(bk + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r][kk * g.a_k]);
        acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(crow[r] + j, acc[r][0]);
      _mm256_storeu_ps(crow[r] + j + 8, acc[r][1]);
    }
  }
  if (j + 8 <= g.n) {
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = g.accumulate ? _mm256_loadu_ps(crow[r] + j)
                            : _mm256_setzero_ps();
    }
    const float* bk = g.b + j;
    for (size_t kk = 0; kk < g.k; ++kk, bk += g.ldb) {
      const __m256 b0 = _mm256_loadu_ps(bk);
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r][kk * g.a_k]), b0,
                                 acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
    j += 8;
  }
  for (; j < g.n; ++j) {
    float acc[R];
    for (int r = 0; r < R; ++r) acc[r] = g.accumulate ? crow[r][j] : 0.0f;
    for (size_t kk = 0; kk < g.k; ++kk) {
      const float bv = g.b[kk * g.ldb + j];
      for (int r = 0; r < R; ++r) {
        acc[r] = std::fma(arow[r][kk * g.a_k], bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) crow[r][j] = acc[r];
  }
}

/// Six rows at a time: the 6×16 tile keeps twelve accumulators, two B
/// vectors and one broadcast in the sixteen ymm registers.
CROWDRL_TILED void TiledGemm(const GemmOperands& g, size_t m) {
  size_t i = 0;
  for (; i + 6 <= m; i += 6) GemmRows<6>(g, i);
  switch (m - i) {
    case 5: GemmRows<5>(g, i); break;
    case 4: GemmRows<4>(g, i); break;
    case 3: GemmRows<3>(g, i); break;
    case 2: GemmRows<2>(g, i); break;
    case 1: GemmRows<1>(g, i); break;
    default: break;
  }
}

CROWDRL_TILED void TiledMatmul(ConstMatrixView a, ConstMatrixView b,
                               MatrixView c) {
  const size_t k = a.cols;
  // An empty inner dimension is a zero product; returning early also keeps
  // the (possibly null) data pointers of empty operands unoffset.
  if (k == 0) {
    ZeroView(c);
    return;
  }
  TiledGemm({a.data, a.ld, 1, b.data, b.ld, c.data, c.ld, k, b.cols, false},
            a.rows);
}

CROWDRL_TILED void TiledMatmulAccumulate(ConstMatrixView a, ConstMatrixView b,
                                         MatrixView c) {
  const size_t k = a.cols;
  if (k == 0) return;  // empty inner dimension: nothing to add
  TiledGemm({a.data, a.ld, 1, b.data, b.ld, c.data, c.ld, k, b.cols, true},
            a.rows);
}

CROWDRL_TILED void TiledMatmulTransposeAAccumulate(ConstMatrixView a,
                                                   ConstMatrixView b,
                                                   MatrixView c) {
  if (a.rows == 0) return;  // empty inner dimension: nothing to add
  TiledGemm(
      {a.data, 1, a.ld, b.data, b.ld, c.data, c.ld, a.rows, b.cols, true},
      a.cols);
}

/// Sum of the eight lanes: (l0+l4 + l2+l6) + (l1+l5 + l3+l7).
CROWDRL_TILED inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// R rows of A against C rows of B (R×C dot products): eight FMA lanes per
/// dot, the horizontal-sum tree, then the k tail as an FMA chain.
template <int R, int C>
CROWDRL_TILED void DotTile(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c, size_t i, size_t j) {
  const size_t k = a.cols;
  const float* arow[R];
  const float* brow[C];
  for (int r = 0; r < R; ++r) arow[r] = a.row(i + r);
  for (int q = 0; q < C; ++q) brow[q] = b.row(j + q);
  __m256 acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < C; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    __m256 bv[C];
    for (int q = 0; q < C; ++q) bv[q] = _mm256_loadu_ps(brow[q] + kk);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_loadu_ps(arow[r] + kk);
      for (int q = 0; q < C; ++q) {
        acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < C; ++q) {
      float out = HorizontalSum(acc[r][q]);
      for (size_t t = kk; t < k; ++t) {
        out = std::fma(arow[r][t], brow[q][t], out);
      }
      c.row(i + r)[j + q] = out;
    }
  }
}

template <int R>
CROWDRL_TILED void DotRows(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                           size_t i) {
  const size_t n = b.rows;
  size_t j = 0;
  for (; j + 2 <= n; j += 2) DotTile<R, 2>(a, b, c, i, j);
  if (j < n) DotTile<R, 1>(a, b, c, i, j);
}

CROWDRL_TILED void TiledMatmulTransposeB(ConstMatrixView a, ConstMatrixView b,
                                         MatrixView c) {
  const size_t m = a.rows;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) DotRows<4>(a, b, c, i);
  switch (m - i) {
    case 3: DotRows<3>(a, b, c, i); break;
    case 2: DotRows<2>(a, b, c, i); break;
    case 1: DotRows<1>(a, b, c, i); break;
    default: break;
  }
}

#undef CROWDRL_TILED

#endif  // defined(__x86_64__)

/// The process-wide kernel choice, made on first use.
const internal::MatmulKernels& Kernels() {
  static const internal::MatmulKernels* const kernels =
      internal::TiledKernels() != nullptr ? internal::TiledKernels()
                                          : &internal::PortableKernels();
  return *kernels;
}

/// True when the non-empty blocks `x` and `c` start at the same address.
bool SameStart(ConstMatrixView x, MatrixView c) {
  return x.data == c.data && x.rows * x.cols != 0 && c.rows * c.cols != 0;
}

void CheckDestination(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                      size_t rows, size_t cols) {
  CROWDRL_CHECK(c.rows == rows && c.cols == cols);
  CROWDRL_CHECK(!SameStart(a, c) && !SameStart(b, c));
}

}  // namespace

namespace internal {

const MatmulKernels& PortableKernels() {
  static constexpr MatmulKernels kPortable = {
      PortableGemm<false>, PortableGemm<true>,
      PortableMatmulTransposeAAccumulate, PortableMatmulTransposeB};
  return kPortable;
}

const MatmulKernels* TiledKernels() {
#if defined(__x86_64__)
  // Probed once, on first use. __builtin_cpu_init makes the probe valid
  // even when that first use runs during another object's static
  // initialization, before libgcc's own constructor.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  static constexpr MatmulKernels kTiled = {
      TiledMatmul, TiledMatmulAccumulate, TiledMatmulTransposeAAccumulate,
      TiledMatmulTransposeB};
  return supported ? &kTiled : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace internal

ConstMatrixView Block(const Matrix& m, size_t r0, size_t rows, size_t c0,
                      size_t cols) {
  CROWDRL_CHECK(r0 + rows <= m.rows() && c0 + cols <= m.cols());
  // An empty block keeps the base pointer (possibly null) unoffset.
  const float* data = rows * cols == 0 ? m.data() : m.row_data(r0) + c0;
  return {data, rows, cols, m.cols()};
}

MatrixView Block(Matrix* m, size_t r0, size_t rows, size_t c0, size_t cols) {
  CROWDRL_CHECK(r0 + rows <= m->rows() && c0 + cols <= m->cols());
  float* data = rows * cols == 0 ? m->data() : m->row_data(r0) + c0;
  return {data, rows, cols, m->cols()};
}

bool KernelUsesAvx2() { return &Kernels() != &internal::PortableKernels(); }

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.rows(), b.cols());
  MatmulInto(ConstMatrixView(a), ConstMatrixView(b), MatrixView(c));
}

void MatmulInto(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  CROWDRL_CHECK_MSG(a.cols == b.rows, "matmul shape mismatch");
  CheckDestination(a, b, c, a.rows, b.cols);
  Kernels().matmul(a, b, c);
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulInto(a, b, &c);
  return c;
}

void MatmulAccumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  CROWDRL_CHECK_MSG(a.cols == b.rows, "matmul shape mismatch");
  CheckDestination(a, b, c, a.rows, b.cols);
  Kernels().matmul_accumulate(a, b, c);
}

void MatmulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.rows(), b.rows());
  MatmulTransposeBInto(ConstMatrixView(a), ConstMatrixView(b),
                       MatrixView(c));
}

void MatmulTransposeBInto(ConstMatrixView a, ConstMatrixView b,
                          MatrixView c) {
  CROWDRL_CHECK_MSG(a.cols == b.cols, "matmulTB shape mismatch");
  CheckDestination(a, b, c, a.rows, b.rows);
  Kernels().matmul_transpose_b(a, b, c);
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeBInto(a, b, &c);
  return c;
}

void MatmulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  CROWDRL_CHECK(c != &a && c != &b);
  c->Resize(a.cols(), b.cols());
  MatmulTransposeAInto(ConstMatrixView(a), ConstMatrixView(b),
                       MatrixView(c));
}

void MatmulTransposeAInto(ConstMatrixView a, ConstMatrixView b,
                          MatrixView c) {
  CROWDRL_CHECK_MSG(a.rows == b.rows, "matmulTA shape mismatch");
  CheckDestination(a, b, c, a.cols, b.cols);
  ZeroView(c);
  Kernels().matmul_transpose_a_accumulate(a, b, c);
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatmulTransposeAInto(a, b, &c);
  return c;
}

void MatmulTransposeAAccumulate(ConstMatrixView a, ConstMatrixView b,
                                MatrixView c) {
  CROWDRL_CHECK_MSG(a.rows == b.rows, "matmulTA shape mismatch");
  CheckDestination(a, b, c, a.cols, b.cols);
  Kernels().matmul_transpose_a_accumulate(a, b, c);
}

namespace {

/// The general-mask softmax path: per-element mask branches, used only
/// when the mask is not prefix-shaped (never the case in attention).
void GeneralMaskedSoftmaxRow(float* row, size_t cols, float scale,
                             const std::vector<uint8_t>& col_mask) {
  float max_v = -std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < cols; ++c) {
    row[c] *= scale;
    if (col_mask[c]) max_v = std::max(max_v, row[c]);
  }
  if (!std::isfinite(max_v)) {
    ZeroRow(row, cols);
    return;
  }
  float sum = 0.0f;
  for (size_t c = 0; c < cols; ++c) {
    if (!col_mask[c]) {
      row[c] = 0.0f;
    } else {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
  }
  const float inv = 1.0f / sum;
  for (size_t c = 0; c < cols; ++c) row[c] *= inv;
}

}  // namespace

void ScaledMaskedSoftmaxRowsInPlace(Matrix* m, float scale,
                                    const std::vector<uint8_t>* col_mask,
                                    long valid_rows) {
  const size_t rows = m->rows(), cols = m->cols();
  if (col_mask != nullptr) {
    CROWDRL_CHECK(col_mask->size() == cols);
  }
  const size_t active_rows =
      valid_rows < 0 ? rows : std::min<size_t>(rows, valid_rows);

  // Padding masks are prefix-shaped (1…1 0…0): detect that once and take
  // branch-free inner loops over the valid prefix. Arbitrary masks fall
  // back to the per-element-branch path.
  size_t valid_cols = cols;
  bool prefix = true;
  if (col_mask != nullptr) {
    valid_cols = 0;
    while (valid_cols < cols && (*col_mask)[valid_cols]) ++valid_cols;
    for (size_t c = valid_cols; c < cols; ++c) {
      if ((*col_mask)[c]) {
        prefix = false;
        break;
      }
    }
  }

  for (size_t r = 0; r < active_rows; ++r) {
    float* row = m->row_data(r);
    if (!prefix) {
      GeneralMaskedSoftmaxRow(row, cols, scale, *col_mask);
      continue;
    }
    float max_v = -std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < valid_cols; ++c) {
      row[c] *= scale;
      max_v = std::max(max_v, row[c]);
    }
    if (!std::isfinite(max_v)) {
      // Every column masked out (or an infinite score): emit a zero row
      // rather than NaNs.
      ZeroRow(row, cols);
      continue;
    }
    float sum = 0.0f;
    for (size_t c = 0; c < valid_cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < valid_cols; ++c) row[c] *= inv;
    ZeroRow(row + valid_cols, cols - valid_cols);
  }
  for (size_t r = active_rows; r < rows; ++r) {
    ZeroRow(m->row_data(r), cols);
  }
}

void SoftmaxRowsInPlace(Matrix* m, const std::vector<uint8_t>* col_mask,
                        long valid_rows) {
  ScaledMaskedSoftmaxRowsInPlace(m, 1.0f, col_mask, valid_rows);
}

void SoftmaxRowsBackwardInto(const Matrix& probs, const Matrix& grad_probs,
                             Matrix* out) {
  CROWDRL_CHECK(probs.rows() == grad_probs.rows() &&
                probs.cols() == grad_probs.cols());
  CROWDRL_CHECK(out != &probs && out != &grad_probs);
  out->Resize(probs.rows(), probs.cols());
  for (size_t r = 0; r < probs.rows(); ++r) {
    const float* p = probs.row_data(r);
    const float* dp = grad_probs.row_data(r);
    float inner = 0.0f;
    for (size_t c = 0; c < probs.cols(); ++c) inner += p[c] * dp[c];
    float* o = out->row_data(r);
    for (size_t c = 0; c < probs.cols(); ++c) o[c] = p[c] * (dp[c] - inner);
  }
}

Matrix SoftmaxRowsBackward(const Matrix& probs, const Matrix& grad_probs) {
  Matrix out;
  SoftmaxRowsBackwardInto(probs, grad_probs, &out);
  return out;
}

std::vector<double> SoftmaxVector(const std::vector<double>& logits) {
  std::vector<double> out(logits.size());
  if (logits.empty()) return out;
  const double max_v = *std::max_element(logits.begin(), logits.end());
  double sum = 0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - max_v);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  CROWDRL_CHECK(a.size() == b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0 || nb <= 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

namespace reference {

Matrix Matmul(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    float* crow = c.row_data(i);
    const float* arow = a.row_data(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b.row_data(kk);
      for (size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.cols() == b.cols(), "matmulTB shape mismatch");
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row_data(i);
    float* crow = c.row_data(i);
    for (size_t j = 0; j < n; ++j) {
      crow[j] = Dot(arow, b.row_data(j), k);
    }
  }
  return c;
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  CROWDRL_CHECK_MSG(a.rows() == b.rows(), "matmulTA shape mismatch");
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (size_t kk = 0; kk < k; ++kk) {
    const float* arow = a.row_data(kk);
    const float* brow = b.row_data(kk);
    for (size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = c.row_data(i);
      for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

void ScaledMaskedSoftmaxRows(Matrix* m, float scale,
                             const std::vector<uint8_t>* col_mask,
                             long valid_rows) {
  const size_t rows = m->rows(), cols = m->cols();
  if (col_mask != nullptr) {
    CROWDRL_CHECK(col_mask->size() == cols);
  }
  const size_t active_rows =
      valid_rows < 0 ? rows : std::min<size_t>(rows, valid_rows);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m->row_data(r);
    for (size_t c = 0; c < cols; ++c) row[c] *= scale;
  }
  for (size_t r = 0; r < active_rows; ++r) {
    float* row = m->row_data(r);
    float max_v = -std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < cols; ++c) {
      if (col_mask && !(*col_mask)[c]) continue;
      max_v = std::max(max_v, row[c]);
    }
    if (!std::isfinite(max_v)) {
      std::fill(row, row + cols, 0.0f);
      continue;
    }
    float sum = 0.0f;
    for (size_t c = 0; c < cols; ++c) {
      if (col_mask && !(*col_mask)[c]) {
        row[c] = 0.0f;
      } else {
        row[c] = std::exp(row[c] - max_v);
        sum += row[c];
      }
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  for (size_t r = active_rows; r < rows; ++r) {
    float* row = m->row_data(r);
    std::fill(row, row + cols, 0.0f);
  }
}

}  // namespace reference

}  // namespace crowdrl
