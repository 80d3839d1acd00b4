#include "core/features.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace crowdrl {

FeatureBuilder::FeatureBuilder(const FeatureConfig& config, size_t num_workers,
                               size_t num_tasks)
    : config_(config), num_tasks_(num_tasks) {
  CROWDRL_CHECK(config.num_categories > 0 && config.num_domains > 0 &&
                config.award_buckets > 0);
  task_cache_.resize(num_tasks);
  task_cached_ = std::make_unique<std::atomic<uint8_t>[]>(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) task_cached_[i] = 0;
  worker_history_.resize(num_workers);
  for (auto& h : worker_history_) {
    h.decayed_sum.assign(task_dim(), 0.0f);
  }
}

size_t FeatureBuilder::task_dim() const {
  return static_cast<size_t>(config_.num_categories + config_.num_domains +
                             config_.award_buckets);
}

int FeatureBuilder::AwardBucket(double award) const {
  const double la = std::log(std::max(award, 1e-9));
  const double frac = (la - config_.award_log_min) /
                      (config_.award_log_max - config_.award_log_min);
  const int bucket = static_cast<int>(frac * config_.award_buckets);
  return std::clamp(bucket, 0, config_.award_buckets - 1);
}

const std::vector<float>& FeatureBuilder::TaskFeature(const Task& task) const {
  CROWDRL_CHECK(task.id >= 0 && task.id < static_cast<TaskId>(num_tasks_));
  // Double-checked fill: the acquire load pairs with the release store in
  // FillTaskFeature, so concurrent readers either observe the fully built
  // feature or take the lock and fill (or find) it themselves.
  if (!task_cached_[task.id].load(std::memory_order_acquire)) {
    FillTaskFeature(task);
  }
  return PublishedTaskFeature(task.id);
}

void FeatureBuilder::FillTaskFeature(const Task& task) const {
  MutexLock lk(task_cache_mu_);
  // Relaxed re-check is enough under the mutex: a previous filler's store
  // happened-before its unlock, which happened-before our lock.
  if (task_cached_[task.id].load(std::memory_order_relaxed)) return;
  std::vector<float> f(task_dim(), 0.0f);
  CROWDRL_CHECK(task.category >= 0 &&
                task.category < config_.num_categories);
  CROWDRL_CHECK(task.domain >= 0 && task.domain < config_.num_domains);
  f[task.category] = 1.0f;
  f[config_.num_categories + task.domain] = 1.0f;
  f[config_.num_categories + config_.num_domains +
    AwardBucket(task.award)] = 1.0f;
  task_cache_[task.id] = std::move(f);
  task_cached_[task.id].store(1, std::memory_order_release);
}

const std::vector<float>& FeatureBuilder::PublishedTaskFeature(
    TaskId id) const {
  // Deliberately outside the thread-safety analysis: `task_cache_` is
  // guarded by `task_cache_mu_`, but a published entry is immutable for
  // the rest of the builder's lifetime, the vector itself is never resized
  // after construction, and every caller reached this accessor via an
  // acquire load of `task_cached_[id]` (directly, or transitively through
  // the release/acquire pair via FillTaskFeature's mutex) — so this read
  // races with nothing.
  return task_cache_[id];
}

double FeatureBuilder::DecayFactor(const WorkerHistory& h,
                                   SimTime now) const {
  if (now <= h.last_update) return 1.0;
  const double dt_days = static_cast<double>(now - h.last_update) /
                         static_cast<double>(kMinutesPerDay);
  return std::exp(-0.6931471805599453 * dt_days /
                  config_.history_halflife_days);
}

void FeatureBuilder::DecayTo(WorkerHistory* h, SimTime now) {
  if (now <= h->last_update) return;
  const double factor = DecayFactor(*h, now);
  for (auto& v : h->decayed_sum) v = static_cast<float>(v * factor);
  h->total_weight *= factor;
  h->last_update = now;
}

void FeatureBuilder::RecordCompletion(WorkerId worker, const Task& task,
                                      SimTime now) {
  CROWDRL_CHECK(worker >= 0 &&
                worker < static_cast<WorkerId>(worker_history_.size()));
  WorkerHistory& h = worker_history_[worker];
  DecayTo(&h, now);
  const auto& ft = TaskFeature(task);
  for (size_t i = 0; i < ft.size(); ++i) h.decayed_sum[i] += ft[i];
  h.total_weight += 1.0;
}

void FeatureBuilder::WorkerFeatureInto(WorkerId worker, SimTime now,
                                       std::vector<float>* out) const {
  CROWDRL_CHECK(worker >= 0 &&
                worker < static_cast<WorkerId>(worker_history_.size()));
  const WorkerHistory& h = worker_history_[worker];
  // Query-time decay is applied on the fly and never written back: const
  // reads stay pure so concurrent serving threads need no locks. (The L1
  // normalization cancels the uniform decay of the components; the factor
  // only decides whether the history has decayed to cold.)
  const double factor = DecayFactor(h, now);
  out->resize(h.decayed_sum.size());
  double sum = 0;
  for (size_t i = 0; i < h.decayed_sum.size(); ++i) {
    const float v = static_cast<float>(h.decayed_sum[i] * factor);
    (*out)[i] = v;
    sum += v;
  }
  if (sum > 1e-9) {
    const float inv = static_cast<float>(1.0 / sum);
    for (auto& v : *out) v *= inv;
  }
  // Cold workers keep the all-zero feature: "no known history".
}

std::vector<float> FeatureBuilder::WorkerFeature(WorkerId worker,
                                                 SimTime now) const {
  std::vector<float> out;
  WorkerFeatureInto(worker, now, &out);
  return out;
}

double FeatureBuilder::WorkerHistoryWeight(WorkerId worker,
                                           SimTime now) const {
  CROWDRL_CHECK(worker >= 0 &&
                worker < static_cast<WorkerId>(worker_history_.size()));
  const WorkerHistory& h = worker_history_[worker];
  return h.total_weight * DecayFactor(h, now);
}

}  // namespace crowdrl
