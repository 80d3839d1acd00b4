// Regression tests for the Start/Stop lifecycle races fixed alongside the
// thread-safety annotation retrofit:
//
//  * ServiceShard::Stop() raced itself — two concurrent Stops both saw
//    started_ == true and double-joined the batcher/learner handles
//    (std::terminate). Stop now serializes on lifecycle_mu_ and the loser
//    observes !started_.
//  * ServiceShard::Start() published started_ = true *before* assigning
//    the thread handles, so a racing Stop could join default-constructed
//    threads while the real ones were created afterwards and leaked.
//  * ShardedArrangementService had the same pattern one level up, plus a
//    plain-bool started_ read lock-free by observers.
//
// The double-Stop tests fail deterministically (abort) against the old
// code; the observer tests are primarily for the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/shard.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"

namespace crowdrl {
namespace {

ServeWorkloadConfig SmallWorkloadConfig() {
  ServeWorkloadConfig cfg;
  cfg.num_workers = 8;
  cfg.num_tasks = 12;
  cfg.pool_size = 4;
  cfg.warm_completions = 16;
  cfg.seed = 7;
  return cfg;
}

FrameworkConfig SmallFrameworkConfig() {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 4;
  cfg.worker_dqn.replay.capacity = 64;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 4;
  cfg.requester_dqn.replay.capacity = 64;
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 1;
  cfg.learn_from_history = false;
  cfg.seed = 13;
  return cfg;
}

TEST(ServiceShardLifecycleTest, ConcurrentStopsJoinExactlyOnce) {
  const ServeWorkload workload(SmallWorkloadConfig());
  for (int round = 0; round < 8; ++round) {
    TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                       workload.worker_feature_dim(),
                                       workload.task_feature_dim());
    ServiceShard shard(&framework);
    shard.Start();
    // Serve one request so the shard has scored a batch before the Stops.
    Rng rng(round);
    auto session = shard.NewSession();
    const Observation obs = workload.MakeObservation(round, &rng);
    ServiceShard::Ticket ticket;
    session->Rank(obs, &ticket);

    constexpr int kStoppers = 4;
    std::vector<std::thread> stoppers;
    for (int t = 0; t < kStoppers; ++t) {
      stoppers.emplace_back([&] { shard.Stop(); });
    }
    for (auto& t : stoppers) t.join();
    EXPECT_FALSE(shard.started());
    shard.Stop();  // still idempotent after the storm
  }
}

TEST(ServiceShardLifecycleTest, StopRacingStartJoinsRealThreads) {
  // Start publishes started_ only after both thread handles are assigned,
  // so a Stop fired immediately after (or racing) Start either runs the
  // full drain or becomes a no-op — it never joins half-constructed state.
  const ServeWorkload workload(SmallWorkloadConfig());
  for (int round = 0; round < 8; ++round) {
    TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                       workload.worker_feature_dim(),
                                       workload.task_feature_dim());
    ServiceShard shard(&framework);
    std::thread stopper([&] { shard.Stop(); });
    shard.Start();
    stopper.join();
    shard.Stop();
    EXPECT_FALSE(shard.started());
  }
}

TEST(ShardedServiceLifecycleTest, ConcurrentStopsDrainOnce) {
  const ServeWorkload workload(SmallWorkloadConfig());
  auto service = ShardedArrangementService::Create(
      SmallFrameworkConfig(), &workload, workload.worker_feature_dim(),
      workload.task_feature_dim(), /*num_shards=*/2);
  service->Start();
  std::atomic<bool> observed_started{false};
  // A lock-free observer reading started() while the stoppers race: the
  // atomic makes this read well-defined (plain bool before the fix).
  std::thread observer([&] {
    for (int i = 0; i < 1000; ++i) {
      if (service->started()) observed_started = true;
    }
  });
  constexpr int kStoppers = 4;
  std::vector<std::thread> stoppers;
  for (int t = 0; t < kStoppers; ++t) {
    stoppers.emplace_back([&] { service->Stop(); });
  }
  for (auto& t : stoppers) t.join();
  observer.join();
  EXPECT_FALSE(service->started());
  service->Stop();  // idempotent
}

}  // namespace
}  // namespace crowdrl
