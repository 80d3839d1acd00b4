#include "serve/workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/sim_clock.h"

namespace crowdrl {

ServeWorkload::ServeWorkload(const ServeWorkloadConfig& config)
    : config_(config),
      frozen_now_(kMinutesPerMonth),  // "one month of history" instant
      features_(config.features, static_cast<size_t>(config.num_workers),
                static_cast<size_t>(config.num_tasks)) {
  CROWDRL_CHECK(config.num_workers > 0 && config.num_tasks > 0);
  CROWDRL_CHECK(config.pool_size > 0 &&
                config.pool_size <= config.num_tasks);
  Rng rng(config.seed);

  tasks_.resize(config.num_tasks);
  task_quality_.resize(config.num_tasks);
  for (int i = 0; i < config.num_tasks; ++i) {
    Task& t = tasks_[i];
    t.id = static_cast<TaskId>(i);
    t.category = static_cast<int>(rng.UniformInt(config.features.num_categories));
    t.domain = static_cast<int>(rng.UniformInt(config.features.num_domains));
    t.award = std::exp(rng.Normal(5.5, 0.7));
    t.start = 0;
    // Spread deadlines across the week after the frozen instant so the
    // future-state expiry segmentation has real structure to enumerate.
    t.deadline = frozen_now_ + 30 + rng.UniformInt(kMinutesPerWeek);
    task_quality_[i] = rng.Uniform(0.2, 0.9);
  }

  worker_quality_.resize(config.num_workers);
  for (int w = 0; w < config.num_workers; ++w) {
    worker_quality_[w] = rng.Uniform(0.2, 0.95);
  }

  // Warm the worker histories with completions strictly before the frozen
  // instant, then render every feature *at* the frozen instant. From here
  // on every FeatureBuilder read decays to a time it has already reached —
  // a pure load, safe to share across actor threads without locks.
  for (int i = 0; i < config.warm_completions; ++i) {
    const WorkerId w = static_cast<WorkerId>(rng.UniformInt(config.num_workers));
    const Task& t = tasks_[rng.UniformInt(config.num_tasks)];
    const SimTime when = rng.UniformInt(frozen_now_);
    // Histories decay monotonically forward; feed in any order is fine
    // because DecayTo clamps to the newest time seen.
    features_.RecordCompletion(w, t, std::max<SimTime>(when, 1));
  }
  worker_feature_cache_.resize(config.num_workers);
  for (int w = 0; w < config.num_workers; ++w) {
    worker_feature_cache_[w] = features_.WorkerFeature(w, frozen_now_);
  }
  for (const Task& t : tasks_) {
    (void)features_.TaskFeature(t);  // warm the per-task cache
  }
}

size_t ServeWorkload::worker_feature_dim() const {
  return features_.worker_dim();
}

size_t ServeWorkload::task_feature_dim() const { return features_.task_dim(); }

Observation ServeWorkload::MakeObservation(int64_t arrival_index,
                                           Rng* rng) const {
  Observation obs;
  obs.time = frozen_now_;
  obs.arrival_index = arrival_index;
  obs.worker = static_cast<WorkerId>(rng->UniformInt(config_.num_workers));
  obs.worker_quality = worker_quality_[obs.worker];
  obs.worker_features = worker_feature_cache_[obs.worker];

  // Distinct random pool via partial Fisher–Yates over the task ids.
  std::vector<int> ids(tasks_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  obs.tasks.reserve(config_.pool_size);
  for (int k = 0; k < config_.pool_size; ++k) {
    const size_t j = k + static_cast<size_t>(rng->UniformInt(
                             static_cast<int64_t>(ids.size()) - k));
    std::swap(ids[k], ids[j]);
    const Task& t = tasks_[ids[k]];
    TaskSnapshot snap;
    snap.id = t.id;
    snap.category = t.category;
    snap.domain = t.domain;
    snap.award = t.award;
    snap.deadline = t.deadline;
    snap.features = &features_.TaskFeature(t);
    snap.quality = task_quality_[t.id];
    obs.tasks.push_back(snap);
  }
  return obs;
}

Feedback ServeWorkload::SimulateFeedback(const Observation& obs,
                                         const std::vector<int>& ranking,
                                         Rng* rng) const {
  Feedback feedback;
  // Cascade with bounded patience: acceptance odds scale with worker
  // quality and decay geometrically down the list — good rankings get
  // rewarded, deep positions rarely convert.
  const int patience = std::min<int>(static_cast<int>(ranking.size()), 10);
  for (int pos = 0; pos < patience; ++pos) {
    const TaskSnapshot& task = obs.tasks[ranking[pos]];
    const double p =
        0.03 + 0.4 * obs.worker_quality * std::pow(0.8, pos);
    if (rng->Uniform() < p) {
      feedback.completed_pos = pos;
      feedback.completed_index = ranking[pos];
      feedback.quality_gain =
          (1.0 - task.quality) * obs.worker_quality;
      break;
    }
  }
  return feedback;
}

}  // namespace crowdrl
