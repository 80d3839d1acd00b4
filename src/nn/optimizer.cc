#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crowdrl {

namespace internal {
namespace {

void PortableAdam(const AdamCoefficients& k, const float* g, float* p,
                  float* m, float* v, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const float gj = g[j] * k.grad_scale;
    m[j] = k.b1 * m[j] + k.c1 * gj;
    v[j] = k.b2 * v[j] + k.c2 * gj * gj;
    const float mhat = m[j] * k.inv_bc1;
    const float vhat = v[j] * k.inv_bc2;
    p[j] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
  }
}

#if defined(__x86_64__)

// AVX without FMA: the compiler cannot contract a multiply and an add into
// one rounding, so every lane rounds exactly like the portable loop.
__attribute__((target("avx"))) void AvxAdam(const AdamCoefficients& k,
                                            const float* g, float* p,
                                            float* m, float* v, size_t n) {
  const __m256 b1 = _mm256_set1_ps(k.b1), b2 = _mm256_set1_ps(k.b2);
  const __m256 c1 = _mm256_set1_ps(k.c1), c2 = _mm256_set1_ps(k.c2);
  const __m256 inv_bc1 = _mm256_set1_ps(k.inv_bc1);
  const __m256 inv_bc2 = _mm256_set1_ps(k.inv_bc2);
  const __m256 lr = _mm256_set1_ps(k.lr), eps = _mm256_set1_ps(k.eps);
  const __m256 scale = _mm256_set1_ps(k.grad_scale);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gj = _mm256_mul_ps(_mm256_loadu_ps(g + j), scale);
    const __m256 mj = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + j)),
                                    _mm256_mul_ps(c1, gj));
    const __m256 vj =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + j)),
                      _mm256_mul_ps(_mm256_mul_ps(c2, gj), gj));
    _mm256_storeu_ps(m + j, mj);
    _mm256_storeu_ps(v + j, vj);
    const __m256 mhat = _mm256_mul_ps(mj, inv_bc1);
    const __m256 vhat = _mm256_mul_ps(vj, inv_bc2);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(lr, mhat),
                      _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(p + j, _mm256_sub_ps(_mm256_loadu_ps(p + j), step));
  }
  PortableAdam(k, g + j, p + j, m + j, v + j, n - j);
}

#endif  // defined(__x86_64__)

}  // namespace

AdamUpdateFn PortableAdamUpdate() { return PortableAdam; }

AdamUpdateFn AvxAdamUpdate() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
  }();
  return supported ? AvxAdam : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace internal

namespace {

/// The process-wide Adam build, chosen on first use.
internal::AdamUpdateFn AdamUpdate() {
  static const internal::AdamUpdateFn update =
      internal::AvxAdamUpdate() != nullptr ? internal::AvxAdamUpdate()
                                           : internal::PortableAdamUpdate();
  return update;
}

}  // namespace

Adam::Adam(std::vector<Matrix*> params, const OptimizerConfig& config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
  }
}

void Adam::Step(const std::vector<Matrix>& grads, double grad_scale) {
  StepWithSquaredNorm(grads, grad_scale,
                      config_.clip_norm > 0 ? SquaredNormSum(grads) : 0.0);
}

bool Adam::StepIfFinite(const std::vector<Matrix>& grads, double grad_scale) {
  const double squared_norm = SquaredNormSum(grads);
  if (!std::isfinite(squared_norm)) return false;
  StepWithSquaredNorm(grads, grad_scale, squared_norm);
  return true;
}

void Adam::StepWithSquaredNorm(const std::vector<Matrix>& grads,
                               double grad_scale, double squared_norm) {
  CROWDRL_CHECK(grads.size() == params_.size());
  ++t_;

  double scale = grad_scale;
  if (config_.clip_norm > 0) {
    const double norm = std::sqrt(squared_norm) * std::fabs(grad_scale);
    if (norm > config_.clip_norm) scale *= config_.clip_norm / norm;
  }

  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  double lr_now = config_.learning_rate;
  if (config_.lr_decay_steps > 0) {
    lr_now /= 1.0 + static_cast<double>(t_) / config_.lr_decay_steps;
  }
  internal::AdamCoefficients k;
  k.b1 = static_cast<float>(config_.beta1);
  k.b2 = static_cast<float>(config_.beta2);
  k.c1 = 1.0f - k.b1;
  k.c2 = 1.0f - k.b2;
  k.inv_bc1 = static_cast<float>(1.0 / bc1);
  k.inv_bc2 = static_cast<float>(1.0 / bc2);
  k.lr = static_cast<float>(lr_now);
  k.eps = static_cast<float>(config_.epsilon);
  k.grad_scale = static_cast<float>(scale);

  const internal::AdamUpdateFn update = AdamUpdate();
  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix& p = *params_[i];
    const Matrix& g = grads[i];
    CROWDRL_CHECK(g.rows() == p.rows() && g.cols() == p.cols());
    update(k, g.data(), p.data(), m_[i].data(), v_[i].data(), p.size());
  }
}

namespace {

/// One chain of SquaredNormSum: the remaining entries of one matrix and
/// its running sum.
struct NormChain {
  const float* p;
  size_t left;
  double acc;
  size_t index;  // position in the matrix list
};

/// Advances the first W chains by `steps` entries each, in lockstep. Each
/// chain adds its own squares in order, exactly as Matrix::SquaredNorm.
template <size_t W>
void AdvanceChains(NormChain* chains, size_t steps) {
  double acc[W];
  const float* p[W];
  for (size_t w = 0; w < W; ++w) {
    acc[w] = chains[w].acc;
    p[w] = chains[w].p;
  }
  for (size_t t = 0; t < steps; ++t) {
    for (size_t w = 0; w < W; ++w) {
      acc[w] += static_cast<double>(p[w][t]) * p[w][t];
    }
  }
  for (size_t w = 0; w < W; ++w) {
    chains[w].acc = acc[w];
    chains[w].p += steps;
    chains[w].left -= steps;
  }
}

}  // namespace

double SquaredNormSum(const std::vector<Matrix>& ms) {
  constexpr size_t kWidth = 4;   // chains in flight
  constexpr size_t kWindow = 32;  // matrices whose sums are held at once
  double total = 0;
  for (size_t base = 0; base < ms.size(); base += kWindow) {
    const size_t count = std::min(kWindow, ms.size() - base);
    double sums[kWindow];
    NormChain active[kWidth];
    size_t n_active = 0, next = 0;
    while (true) {
      // Refill the free slots in list order; an empty matrix sums to 0.
      while (n_active < kWidth && next < count) {
        const Matrix& m = ms[base + next];
        if (m.size() == 0) {
          sums[next] = 0;
        } else {
          active[n_active++] = {m.data(), m.size(), 0.0, next};
        }
        ++next;
      }
      if (n_active == 0) break;
      size_t steps = active[0].left;
      for (size_t w = 1; w < n_active; ++w) {
        steps = std::min(steps, active[w].left);
      }
      switch (n_active) {
        case 4: AdvanceChains<4>(active, steps); break;
        case 3: AdvanceChains<3>(active, steps); break;
        case 2: AdvanceChains<2>(active, steps); break;
        default: AdvanceChains<1>(active, steps); break;
      }
      // Retire the finished chains, keeping the rest packed at the front.
      size_t kept = 0;
      for (size_t w = 0; w < n_active; ++w) {
        if (active[w].left == 0) {
          sums[active[w].index] = active[w].acc;
        } else {
          active[kept++] = active[w];
        }
      }
      n_active = kept;
    }
    for (size_t i = 0; i < count; ++i) total += sums[i];
  }
  return total;
}

void Sgd::Step(const std::vector<Matrix>& grads, double grad_scale) {
  CROWDRL_CHECK(grads.size() == params_.size());
  const float fscale = static_cast<float>(lr_ * grad_scale);
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i]->AddScaled(grads[i], -fscale);
  }
}

}  // namespace crowdrl
