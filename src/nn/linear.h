#ifndef CROWDRL_NN_LINEAR_H_
#define CROWDRL_NN_LINEAR_H_

#include <iosfwd>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace crowdrl {

/// \brief Row-wise feed-forward layer (the paper's "rFF"):
/// `y = act(x·W + b)`, applied to each row independently.
///
/// Because each row is transformed identically and independently, the layer
/// is permutation-invariant over the set dimension — the property the
/// paper's Q-network relies on (Appendix, Proof 1).
///
/// The layer owns its parameters but keeps **no** activation state; all
/// intermediates live in caller-provided caches, so one (const) layer can
/// serve concurrent forward passes, and a stack of row-concatenated states
/// passes through it as one product.
class Linear {
 public:
  enum class Activation { kIdentity, kRelu };

  Linear() = default;

  /// Xavier-initialized weights, zero bias.
  Linear(size_t in_dim, size_t out_dim, Activation act, Rng* rng)
      : w_(Matrix::Xavier(in_dim, out_dim, rng)),
        b_(1, out_dim),
        act_(act) {}

  size_t in_dim() const { return w_.rows(); }
  size_t out_dim() const { return w_.cols(); }
  Activation activation() const { return act_; }

  /// Forward over a (n×in) batch of rows; returns n×out.
  Matrix Forward(const Matrix& x) const;

  /// Destination-passing Forward: writes into `*out` (resized in place;
  /// allocation-free once warm). `out` must not alias `x`.
  void ForwardInto(const Matrix& x, Matrix* out) const;

  /// Backward pass. `x` is the forward input, `y` the forward output,
  /// `grad_out` is d(loss)/d(y). Parameter gradients are *accumulated*
  /// into dw/db; returns d(loss)/d(x).
  Matrix Backward(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                  Matrix* dw, Matrix* db) const;

  /// Workspace-backed Backward. ReLU's derivative mask is read from the
  /// output: y > 0 exactly where x·W+b > 0, NaN and ±0 included, because
  /// ReLU writes 0 for NaN and for every non-positive input. `dz` is
  /// scratch for d(loss)/d(x·W+b). When `dx` is non-null it receives
  /// d(loss)/d(x) = dz·Wᵀ (resized in place), computed as a plain product
  /// against `w_t`, which must hold `weights()` transposed as of the last
  /// parameter change; with both null the input gradient is skipped.
  /// Allocation-free once `dz` and `dx` are warm.
  void BackwardInto(const Matrix& x, const Matrix& y, const Matrix& grad_out,
                    Matrix* dz, Matrix* dw, Matrix* db, const Matrix* w_t,
                    Matrix* dx) const;

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }

  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  Matrix w_;  // in×out
  Matrix b_;  // 1×out
  Activation act_ = Activation::kIdentity;
};

}  // namespace crowdrl

#endif  // CROWDRL_NN_LINEAR_H_
