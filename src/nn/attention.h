#ifndef CROWDRL_NN_ATTENTION_H_
#define CROWDRL_NN_ATTENTION_H_

#include <iosfwd>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace crowdrl {

/// \brief Multi-head self-attention (paper Fig. 4 / Vaswani et al. [28]).
///
/// `MultiHead(X) = Concat(head_1..head_h)·W_O`, with
/// `head_i = softmax(X·W_Q_i (X·W_K_i)ᵀ / √d_k) · X·W_V_i`.
///
/// The layer is permutation-*equivariant* over rows (Appendix, Proof 2):
/// permuting input rows permutes output rows identically, which — stacked
/// with row-wise layers — makes the whole Q-network's per-task value
/// independent of task ordering.
///
/// Padding: states are zero-padded to `maxT` rows. The forward pass takes
/// `valid_n` (the number of real tasks); padded rows are excluded from the
/// softmax (score −∞) and produce zero output, so padding cannot leak into
/// Q values. `use_mask=false` reproduces the paper's raw zero-padding for
/// the ablation study.
///
/// Several states can pass through at once, stacked row-wise and described
/// by a `RowSegment` list; a single state is the one-segment case.
/// One state inside a stack of row-concatenated states: rows
/// [begin, begin + rows) of the stack, the first `valid_n` of them real
/// tasks and the rest padding.
struct RowSegment {
  size_t begin = 0;
  size_t rows = 0;
  size_t valid_n = 0;
};

/// True when `segments` tile rows [0, rows) in order, each with
/// valid_n <= rows: every stacked row belongs to exactly one state.
inline bool SegmentsTile(const std::vector<RowSegment>& segments,
                         size_t rows) {
  size_t end = 0;
  for (const RowSegment& s : segments) {
    if (s.begin != end || s.valid_n > s.rows) return false;
    end += s.rows;
  }
  return end == rows;
}

class MultiHeadSelfAttention {
 public:
  /// Per-pass activation cache; owned by the caller so that concurrent
  /// forward/backward passes can share one (const) layer. Also owns the
  /// forward pass's scratch buffers: a warm cache makes repeated
  /// ForwardInto calls allocation-free (all members resize in place).
  struct Cache {
    Matrix q, k, v;               // projections, N×d
    // Softmax of segment s, head h at probs[s·heads + h], rows_s×rows_s.
    // Grow-only, so a warm cache keeps every buffer.
    std::vector<Matrix> probs;
    Matrix concat;                // concatenated head outputs, N×d
    std::vector<RowSegment> segments;
    // Scratch (not consumed by Backward): the padding mask, kept here so
    // steady-state inference reuses its buffer.
    std::vector<uint8_t> col_mask;
  };

  /// Parameter gradients, accumulated by Backward.
  struct Grads {
    Matrix dwq, dwk, dwv, dwo;
  };

  /// Where BackwardInto accumulates the four weight gradients.
  struct GradRefs {
    Matrix* dwq;
    Matrix* dwk;
    Matrix* dwv;
    Matrix* dwo;
  };

  /// Backward's buffers: the transposed weights, refreshed by
  /// TransposeWeightsInto, and the gradient scratch. Warm, BackwardInto
  /// allocates nothing.
  struct BackwardWorkspace {
    Matrix wq_t, wk_t, wv_t, wo_t;  // weights transposed, dim×dim
    Matrix dy, dconcat, dq, dk, dv;  // N×dim
    Matrix dprobs, dscores;          // rows_s×rows_s
  };

  MultiHeadSelfAttention() = default;

  /// `dim` must be divisible by `num_heads`.
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng* rng,
                         bool use_mask = true);

  size_t dim() const { return wq_.rows(); }
  size_t num_heads() const { return num_heads_; }
  bool use_mask() const { return use_mask_; }
  void set_use_mask(bool m) { use_mask_ = m; }

  /// Forward over an n×dim input. Rows at index >= valid_n are treated as
  /// padding. Fills `cache` for the corresponding Backward call.
  Matrix Forward(const Matrix& x, size_t valid_n, Cache* cache) const;

  /// Destination-passing Forward: writes the n×dim output into `*out`
  /// (resized in place) and uses only `cache`-owned scratch, so repeated
  /// calls with a warm cache perform zero heap allocations. `out` must not
  /// alias `x`. The one-segment case of the stacked ForwardInto below.
  void ForwardInto(const Matrix& x, size_t valid_n, Cache* cache,
                   Matrix* out) const;

  /// Stacked Forward: `x` holds several states' rows back to back and
  /// `segments` tiles them in order. The projections run once over all
  /// rows; scores, the masked softmax and P·V run per segment and head, so
  /// no row attends across a segment boundary. Each (segment, head) product
  /// reads its block of q/k/v in place and writes its block of the
  /// concatenated heads directly. Each segment's output rows equal a
  /// one-segment pass over that state alone, bit for bit. The cache does
  /// not keep `x`: the backward pass takes it again.
  void ForwardInto(const Matrix& x, const std::vector<RowSegment>& segments,
                   Cache* cache, Matrix* out) const;

  /// Backward: `x` is the forward input and `grad_out` (n×dim) the
  /// upstream gradient → input gradient (n×dim); parameter grads are
  /// accumulated into `grads`.
  Matrix Backward(const Matrix& x, const Matrix& grad_out, const Cache& cache,
                  Grads* grads) const;

  /// Copies this layer's weights, transposed, into `ws`; BackwardInto
  /// reads them to form input gradients as plain products.
  void TransposeWeightsInto(BackwardWorkspace* ws) const;

  /// Workspace-backed Backward over the segments `cache` was filled with;
  /// `x` is the input that forward pass read. Parameter gradients are
  /// accumulated into `grads`; the input gradient is *accumulated* into
  /// `*dx` (N×dim), so a caller can seed `dx` with a residual branch's
  /// gradient. `grad_out` may be `*dx` itself: it is read before `dx` is
  /// written, so a residual's gradient needs no copy. `ws` must hold this
  /// layer's transposed weights as of its last parameter change.
  void BackwardInto(const Matrix& x, const Matrix& grad_out,
                    const Cache& cache, BackwardWorkspace* ws,
                    const GradRefs& grads, Matrix* dx) const;

  /// Zero-initialized gradient store with matching shapes.
  Grads MakeGrads() const;

  Matrix& wq() { return wq_; }
  Matrix& wk() { return wk_; }
  Matrix& wv() { return wv_; }
  Matrix& wo() { return wo_; }
  const Matrix& wq() const { return wq_; }
  const Matrix& wk() const { return wk_; }
  const Matrix& wv() const { return wv_; }
  const Matrix& wo() const { return wo_; }

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  size_t head_dim() const { return wq_.cols() / num_heads_; }

  Matrix wq_, wk_, wv_;  // dim×dim, heads laid out in column blocks
  Matrix wo_;            // dim×dim
  size_t num_heads_ = 1;
  bool use_mask_ = true;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_ATTENTION_H_
