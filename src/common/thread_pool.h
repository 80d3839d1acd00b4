#ifndef CROWDRL_COMMON_THREAD_POOL_H_
#define CROWDRL_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace crowdrl {

/// \brief Fixed-size worker pool for independent, coarse-grained jobs:
/// scoring the requests of one serve micro-batch and running the seeds or
/// scenarios of an experiment sweep side by side.
///
/// The DQN learner does not use it: a learner step is one serial stacked
/// pass (see DqnAgent), which costs less CPU than fanning tiny per-sample
/// passes out over the pool and gives the same result on any core count.
class ThreadPool {
 public:
  /// `num_threads == 0` selects `hardware_concurrency()`.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  /// iterations finish. Safe to call re-entrantly from inside a task: the
  /// nested loop is detected and runs inline on the calling thread (the
  /// outer loop already owns the workers, so handing the nested job to the
  /// pool would deadlock). Concurrent submissions from independent threads
  /// queue and run one job at a time.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// True when the calling thread is currently executing a ParallelFor
  /// iteration of *this* pool (worker or participating submitter).
  bool InsideThisPool() const;

  /// Process-wide shared pool (lazy, sized to hardware concurrency).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  /// Immutable after construction (workers are joined in the destructor
  /// only, after `shutdown_` is observed under `mu_`).
  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(size_t)>* job_ CROWDRL_GUARDED_BY(mu_) = nullptr;
  size_t job_size_ CROWDRL_GUARDED_BY(mu_) = 0;
  size_t next_index_ CROWDRL_GUARDED_BY(mu_) = 0;
  size_t in_flight_ CROWDRL_GUARDED_BY(mu_) = 0;
  uint64_t generation_ CROWDRL_GUARDED_BY(mu_) = 0;
  bool shutdown_ CROWDRL_GUARDED_BY(mu_) = false;
};

}  // namespace crowdrl

#endif  // CROWDRL_COMMON_THREAD_POOL_H_
