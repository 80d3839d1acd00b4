#include "nn/optimizer.h"

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
  CROWDRL_CHECK(grads.size() == params_.size());
  ++t_;

  double scale = grad_scale;
  if (config_.clip_norm > 0) {
    double total_sq = 0;
    for (const auto& g : grads) total_sq += g.SquaredNorm();
    const double norm = std::sqrt(total_sq) * std::fabs(grad_scale);
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

void Sgd::Step(const std::vector<Matrix>& grads, double grad_scale) {
  CROWDRL_CHECK(grads.size() == params_.size());
  const float fscale = static_cast<float>(lr_ * grad_scale);
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i]->AddScaled(grads[i], -fscale);
  }
}

}  // namespace crowdrl
