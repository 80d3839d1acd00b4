#ifndef CROWDRL_NN_OPTIMIZER_H_
#define CROWDRL_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/matrix.h"

namespace crowdrl {

/// Optimizer hyper-parameters. The paper trains with learning rate 1e-3.
struct OptimizerConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  /// Global-norm gradient clipping; <= 0 disables. DQN targets can spike
  /// early in training, and clipping keeps float32 Adam well-behaved.
  double clip_norm = 5.0;
  /// Inverse-time learning-rate decay: lr(t) = lr / (1 + t/decay_steps).
  /// <= 0 disables. Online continual training wants a hot start (digest
  /// the warm-up buffer fast) and a cool steady state (don't chase noisy
  /// on-policy minibatches late in the run).
  double lr_decay_steps = 0;
};

/// \brief Adam optimizer over an externally-owned parameter list.
///
/// The parameter list is captured at construction (pointers into the
/// network); `Step` applies one update from a gradient store whose entries
/// align 1:1 with the parameters. First/second-moment state is kept here.
///
/// The elementwise update runs 8 lanes wide on CPUs with AVX, chosen once
/// per process like the matmul kernels. Both builds do the same separate
/// IEEE multiplies, adds, square roots and divides per element, never a
/// fused multiply-add, so their results are bit-identical.
class Adam {
 public:
  Adam(std::vector<Matrix*> params, const OptimizerConfig& config);

  /// Applies one Adam step. `grads[i]` must match params[i]'s shape.
  /// `grad_scale` is multiplied into every gradient first (e.g. 1/batch).
  void Step(const std::vector<Matrix>& grads, double grad_scale = 1.0);

  /// Step, unless some gradient entry is NaN or ±Inf; returns whether it
  /// stepped. One SquaredNormSum(grads) is both the guard and the clip
  /// norm, so a taken step equals Step(grads, grad_scale) bit for bit. A
  /// refused step leaves the parameters, the moments and step_count() as
  /// they were.
  bool StepIfFinite(const std::vector<Matrix>& grads, double grad_scale);

  int64_t step_count() const { return t_; }
  const OptimizerConfig& config() const { return config_; }
  void set_learning_rate(double lr) { config_.learning_rate = lr; }

 private:
  std::vector<Matrix*> params_;
  OptimizerConfig config_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t t_ = 0;

  /// One step whose gradients' SquaredNormSum is `squared_norm`.
  void StepWithSquaredNorm(const std::vector<Matrix>& grads,
                           double grad_scale, double squared_norm);
};

/// Σ over `ms` of each matrix's Matrix::SquaredNorm(), the per-matrix sums
/// added in order: bit-identical to that loop. Each matrix's double chain
/// still runs over its own entries in order, but up to four chains advance
/// interleaved, so the adds overlap instead of waiting on one another.
/// The sum is non-finite exactly when some entry is NaN or ±Inf: a float
/// squared in double cannot overflow (FLT_MAX² ≈ 1.2e77), and no list of
/// matrices that fits in memory sums such squares up to DBL_MAX
/// (≈ 1.8e308). Allocates nothing.
double SquaredNormSum(const std::vector<Matrix>& ms);

/// \brief Plain SGD (used by the supervised baselines, whose original
/// formulations predate Adam).
class Sgd {
 public:
  Sgd(std::vector<Matrix*> params, double learning_rate)
      : params_(std::move(params)), lr_(learning_rate) {}

  void Step(const std::vector<Matrix>& grads, double grad_scale = 1.0);

  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  std::vector<Matrix*> params_;
  double lr_;
};

/// Both builds of Adam's elementwise update, callable directly so one test
/// binary can compare them on any host. Not for production use.
namespace internal {

/// The per-step scalars of one Adam update.
struct AdamCoefficients {
  float b1, b2;  // β1, β2
  float c1, c2;  // 1 − β1, 1 − β2
  float inv_bc1, inv_bc2;  // 1 / bias corrections
  float lr, eps;
  float grad_scale;
};

/// Updates n parameters p with gradients g and moments m, v in place, in
/// exactly this operation order:
///   g' = g·s; m = β1·m + (1−β1)·g'; v = β2·v + ((1−β2)·g')·g';
///   p = p − (lr·(m·inv_bc1)) / (√(v·inv_bc2) + ε).
using AdamUpdateFn = void (*)(const AdamCoefficients& k, const float* g,
                              float* p, float* m, float* v, size_t n);

AdamUpdateFn PortableAdamUpdate();
/// The 8-wide AVX build; null when the CPU lacks AVX or the target is not
/// x86-64.
AdamUpdateFn AvxAdamUpdate();

}  // namespace internal

}  // namespace crowdrl

#endif  // CROWDRL_NN_OPTIMIZER_H_
