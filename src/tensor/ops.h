#ifndef CROWDRL_TENSOR_OPS_H_
#define CROWDRL_TENSOR_OPS_H_

#include <vector>

#include "tensor/matrix.h"

namespace crowdrl {

/// \file
/// Free-function linear-algebra kernels. The three matmul variants cover
/// every product the NN backward passes need without materializing
/// transposes:
///   Matmul(A, B)            = A · B
///   MatmulTransposeB(A, B)  = A · Bᵀ   (e.g. attention scores Q·Kᵀ)
///   MatmulTransposeA(A, B)  = Aᵀ · B   (e.g. weight gradients Xᵀ·dY)
///
/// Two kernel builds live in one library, and the first matmul call picks
/// one for the whole process from CPUID (no build option, no environment
/// variable):
///
///  * **tiled** — AVX2/FMA register-tiled kernels, compiled per function
///    with `__attribute__((target("avx2,fma")))`, used when the CPU has both
///    extensions. `Matmul`/`MatmulTransposeA` hold a 6×16 C tile (twelve
///    8-lane accumulators) in registers across the whole k loop, with 5- to
///    1-row remainders; `MatmulTransposeB` computes a 4×2 tile of 8-lane
///    dot products.
///  * **portable** — plain C++ loops for the baseline ISA, used on CPUs
///    without AVX2 or FMA and on non-x86 targets.
///
/// Their precision tiers (the "tolerance ladder" the kernel tests enforce;
/// see tests/tensor/kernel_equivalence_test.cc):
///
///  * **bit-exact tier** — portable `Matmul` and `MatmulTransposeA` keep the
///    scalar per-element reduction order (k ascending), so blocking changes
///    which rows are streamed together but not a single rounding step:
///    results are bit-identical to the plain scalar loops in `reference::`.
///  * **FMA-exact tier** — tiled `Matmul` and `MatmulTransposeA` run each
///    element as one fused-multiply-add chain in k-ascending order, column
///    tails included (`std::fma`), so every element is bit-identical to the
///    per-element loop `c = std::fma(a_ik, b_kj, c)` whatever its tile
///    position. Tiled `MatmulTransposeB` is exact against a fixed schedule:
///    eight FMA lanes (lane l takes k ≡ l mod 8), the horizontal-sum tree
///    (l0+l4 + l2+l6) + (l1+l5 + l3+l7), then the k tail as an FMA chain.
///  * **bounded-epsilon tier** — against `reference::`, everything else:
///    portable `MatmulTransposeB` splits its dot product into four partial
///    sums so it can vectorize, and the tiled kernels round once per FMA
///    instead of twice. These agree with the reference only to a k-scaled
///    epsilon. Both builds are deterministic: the same inputs always give
///    the same bits on the same host, which is all the serial == service
///    equivalence chain needs.
///
/// All kernels are branch-free in their inner loops: the old
/// `if (aik == 0.0f) continue;` zero-skip was removed because it broke
/// IEEE propagation (0×NaN must yield NaN, so corrupted weights could sail
/// through a zero-padded row silently) and put a data-dependent branch in
/// the hottest loop, defeating vectorization.
///
/// The `*Into` forms write into a caller-owned destination, resizing it in
/// place (capacity is reused, see Matrix::Resize); steady-state inference
/// through them performs no heap allocation. The value-returning forms are
/// convenience wrappers. Destinations must not alias the inputs.

/// A read-only strided block of a row-major matrix: `rows`×`cols` entries,
/// row r starting at `data + r·ld` (ld >= cols). A whole Matrix converts
/// implicitly (ld == cols), so every function that takes views also takes
/// matrices.
struct ConstMatrixView {
  const float* data;
  size_t rows, cols, ld;

  ConstMatrixView(const float* d, size_t r, size_t c, size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  ConstMatrixView(const Matrix& m)  // NOLINT(runtime/explicit): by design
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}

  const float* row(size_t r) const { return data + r * ld; }
};

/// A mutable strided block. A pointer to a whole Matrix converts
/// implicitly, matching the destination-passing `Matrix*` convention.
struct MatrixView {
  float* data;
  size_t rows, cols, ld;

  MatrixView(float* d, size_t r, size_t c, size_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  MatrixView(Matrix* m)  // NOLINT(runtime/explicit): by design
      : data(m->data()), rows(m->rows()), cols(m->cols()), ld(m->cols()) {}

  float* row(size_t r) const { return data + r * ld; }
};

/// Rows [r0, r0 + rows) × columns [c0, c0 + cols) of `m`, in place: no copy.
ConstMatrixView Block(const Matrix& m, size_t r0, size_t rows, size_t c0,
                      size_t cols);
MatrixView Block(Matrix* m, size_t r0, size_t rows, size_t c0, size_t cols);

/// True when this process runs the tiled AVX2/FMA kernels (the CPU has
/// both extensions; FMA-exact tier); false for the portable kernels.
bool KernelUsesAvx2();

// Every product comes in two forms: the `Matrix*` destination is resized
// to the product's shape, and a `MatrixView` destination must already
// have it (a block of a larger matrix, say). Both run the same kernel:
// a whole matrix is the ld == cols case of a view, so a product computed
// on blocks equals the product of copies of those blocks bit for bit.
// Destinations must not overlap the inputs.

/// C = A·B. Shapes: (m×k)·(k×n) → m×n. Bit-exact (portable) or FMA-exact
/// (tiled) tier.
void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatmulInto(ConstMatrixView a, ConstMatrixView b, MatrixView c);
Matrix Matmul(const Matrix& a, const Matrix& b);

/// C += A·B, C already (m×n). Each element continues one k-ascending chain
/// from C's current value, so C = X·Y then C += Z·W equals the single
/// product [X Z]·[Y; W] bit for bit. Same tier as `MatmulInto`.
void MatmulAccumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C = A·Bᵀ. Shapes: (m×k)·(n×k)ᵀ → m×n. Bounded-epsilon (portable) or
/// FMA-exact against the 8-lane schedule (tiled).
void MatmulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatmulTransposeBInto(ConstMatrixView a, ConstMatrixView b,
                          MatrixView c);
Matrix MatmulTransposeB(const Matrix& a, const Matrix& b);

/// C = Aᵀ·B. Shapes: (k×m)ᵀ·(k×n) → m×n. Bit-exact (portable) or FMA-exact
/// (tiled) tier.
void MatmulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatmulTransposeAInto(ConstMatrixView a, ConstMatrixView b,
                          MatrixView c);
Matrix MatmulTransposeA(const Matrix& a, const Matrix& b);

/// C += Aᵀ·B without materializing the product (gradient accumulation:
/// dW += Xᵀ·dY). Interleaves the accumulation with C's prior contents, so
/// it is bounded-epsilon relative to `C += MatmulTransposeA(A, B)`.
void MatmulTransposeAAccumulate(ConstMatrixView a, ConstMatrixView b,
                                MatrixView c);

/// In-place fused scale+mask+softmax: row ← softmax(scale·row) with masked
/// columns (mask==0) receiving zero probability and rows at index >=
/// `valid_rows` zeroed (when `valid_rows >= 0`). Fully-masked rows emit
/// zeros rather than NaNs. This is the attention scoring kernel: one pass
/// replaces the separate scale-then-softmax sequence, and the common
/// prefix-shaped padding mask (1…1 0…0) takes branch-free inner loops.
/// Bit-exact with scaling then calling the unfused reference softmax.
void ScaledMaskedSoftmaxRowsInPlace(Matrix* m, float scale,
                                    const std::vector<uint8_t>* col_mask,
                                    long valid_rows);

/// In-place row softmax (no scaling). When `valid_rows >= 0`, only the
/// first `valid_rows` rows are transformed (the rest are zeroed); when
/// `col_mask` is non-null, entries at masked-out columns (mask==0) receive
/// zero probability. This is the masked softmax used by the attention
/// layer so that zero-padded task slots neither attend nor get attended to.
void SoftmaxRowsInPlace(Matrix* m, const std::vector<uint8_t>* col_mask = nullptr,
                        long valid_rows = -1);

/// Backward of row softmax: given P = softmax(S) row-wise and upstream dP,
/// writes dS = P ∘ (dP − rowsum(dP ∘ P)) into `*out` (resized in place).
void SoftmaxRowsBackwardInto(const Matrix& probs, const Matrix& grad_probs,
                             Matrix* out);
Matrix SoftmaxRowsBackward(const Matrix& probs, const Matrix& grad_probs);

/// Numerically-stable softmax of a plain vector (utility for policies).
std::vector<double> SoftmaxVector(const std::vector<double>& logits);

/// Dot product of two equal-length float spans (sequential reduction).
float Dot(const float* a, const float* b, size_t n);

/// Cosine similarity of two equal-length vectors; 0 when either is zero.
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b);

/// Retained scalar reference implementations: the plain, unblocked,
/// sequential-reduction loops the optimized kernels are validated against
/// (randomized equivalence + the tolerance ladder) and benchmarked against
/// (the A/B baselines in bench_micro_benchmarks). Not for production use.
namespace reference {

Matrix Matmul(const Matrix& a, const Matrix& b);
Matrix MatmulTransposeB(const Matrix& a, const Matrix& b);
Matrix MatmulTransposeA(const Matrix& a, const Matrix& b);
/// Unfused scale-then-softmax with per-element mask branches.
void ScaledMaskedSoftmaxRows(Matrix* m, float scale,
                             const std::vector<uint8_t>* col_mask,
                             long valid_rows);

}  // namespace reference

/// Both kernel builds, callable directly so one test binary can hold each
/// to its tier on any host. Not for production use: the public functions
/// above check shapes and dispatch to the process-wide choice.
namespace internal {

/// One kernel's signature: C (+)= a product of the views A and B. The
/// views may be strided blocks; `c` is already shaped to the product and
/// overlaps neither input.
using GemmFn = void (*)(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// One kernel build.
struct MatmulKernels {
  GemmFn matmul;                         ///< C = A·B.
  GemmFn matmul_accumulate;              ///< C += A·B.
  GemmFn matmul_transpose_a_accumulate;  ///< C += Aᵀ·B.
  GemmFn matmul_transpose_b;             ///< C = A·Bᵀ.
};

const MatmulKernels& PortableKernels();
/// The tiled AVX2/FMA build; null when the CPU lacks AVX2 or FMA, or the
/// target is not x86-64.
const MatmulKernels* TiledKernels();

}  // namespace internal

}  // namespace crowdrl

#endif  // CROWDRL_TENSOR_OPS_H_
