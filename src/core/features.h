#ifndef CROWDRL_CORE_FEATURES_H_
#define CROWDRL_CORE_FEATURES_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/sim_clock.h"
#include "sim/task.h"

namespace crowdrl {

/// Feature-space configuration (paper Sec. IV-A).
struct FeatureConfig {
  int num_categories = 10;
  int num_domains = 8;
  /// Award is "a continuous attribute which needs to be discretized":
  /// log-spaced buckets over [award_log_min, award_log_max] (ln dollars).
  int award_buckets = 6;
  double award_log_min = 3.0;  ///< ≈ $20
  double award_log_max = 7.5;  ///< ≈ $1800
  /// Worker features are "the distribution of recently completed tasks";
  /// we realize "recently" as an exponential decay with this half-life.
  double history_halflife_days = 14.0;
};

/// \brief Builds and maintains the observable features of tasks and workers.
///
/// Task feature (static): one-hot(category) ⊕ one-hot(domain) ⊕
/// one-hot(award bucket) — remuneration, autonomy and skill variety, the
/// top-3 worker motivations of [14]. Cached per task id.
///
/// Worker feature (dynamic): the exponentially-decayed, L1-normalized sum of
/// the features of the tasks the worker recently completed — i.e. the
/// "distribution of recently completed tasks" of Sec. IV-A2, updated in
/// real time by `RecordCompletion` and queried with decay-to-now.
///
/// One FeatureBuilder is shared by *all* policies in an experiment ("the
/// worker and task features of all these methods are updated in real-time"),
/// so no method gains an information advantage.
///
/// Thread-safety: every const query is a pure read (query-time decay is
/// applied on the fly, never written back, and the task cache fill is
/// internally synchronized), so any number of serving actor threads can
/// read concurrently. Writers (`RecordCompletion`) must be externally
/// serialized against each other and against readers.
class FeatureBuilder {
 public:
  FeatureBuilder(const FeatureConfig& config, size_t num_workers,
                 size_t num_tasks);

  const FeatureConfig& config() const { return config_; }

  /// Dimensionality of task features (= C + D + B).
  size_t task_dim() const;
  /// Worker features live in the same space as task features.
  size_t worker_dim() const { return task_dim(); }

  /// Static feature of `task` (cached; reference stable until destruction).
  const std::vector<float>& TaskFeature(const Task& task) const;

  /// Discretized award bucket in [0, award_buckets).
  int AwardBucket(double award) const;

  /// Registers a completion: decays the worker's history to `now` and adds
  /// the completed task's feature.
  void RecordCompletion(WorkerId worker, const Task& task, SimTime now);

  /// Normalized worker feature at `now` (copy).
  std::vector<float> WorkerFeature(WorkerId worker, SimTime now) const;

  /// Writes the normalized worker feature into `*out` (resized; avoids
  /// per-call allocation in tight expectation loops).
  void WorkerFeatureInto(WorkerId worker, SimTime now,
                         std::vector<float>* out) const;

  /// Total (decayed) completion weight of a worker's history; 0 = cold.
  double WorkerHistoryWeight(WorkerId worker, SimTime now) const;

 private:
  struct WorkerHistory {
    std::vector<float> decayed_sum;  // unnormalized, decayed to last_update
    SimTime last_update = 0;
    double total_weight = 0;
  };

  /// Decay multiplier from `h`'s last update to `now` (1.0 if not later).
  double DecayFactor(const WorkerHistory& h, SimTime now) const;
  /// Writes the decay into the history (RecordCompletion only).
  void DecayTo(WorkerHistory* h, SimTime now);

  /// First fill of `task.id`'s cache entry, serialized under
  /// `task_cache_mu_`; no-op if another thread filled it meanwhile.
  void FillTaskFeature(const Task& task) const
      CROWDRL_EXCLUDES(task_cache_mu_);
  /// Lock-free read of an entry whose publication flag was observed with
  /// an acquire load (the analyzable escape hatch of the double-checked
  /// fill; see the .cc for the proof).
  const std::vector<float>& PublishedTaskFeature(TaskId id) const
      CROWDRL_NO_THREAD_SAFETY_ANALYSIS;

  FeatureConfig config_;
  /// Fixed entry count of the task cache (bounds checks without the lock).
  size_t num_tasks_ = 0;
  // Lazy per-task fill under double-checked locking: the atomic flags are
  // the publication point (and therefore deliberately not lock-guarded),
  // the mutex serializes first fills of the guarded entries.
  mutable std::vector<std::vector<float>> task_cache_
      CROWDRL_GUARDED_BY(task_cache_mu_);
  mutable std::unique_ptr<std::atomic<uint8_t>[]> task_cached_;
  mutable Mutex task_cache_mu_;
  std::vector<WorkerHistory> worker_history_;
};

}  // namespace crowdrl

#endif  // CROWDRL_CORE_FEATURES_H_
