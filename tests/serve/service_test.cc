#include "serve/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "serve/workload.h"

namespace crowdrl {
namespace {

ServeWorkloadConfig SmallWorkloadConfig() {
  ServeWorkloadConfig cfg;
  cfg.num_workers = 16;
  cfg.num_tasks = 24;
  cfg.pool_size = 6;
  cfg.warm_completions = 64;
  cfg.seed = 11;
  return cfg;
}

FrameworkConfig SmallFrameworkConfig() {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 8;
  cfg.worker_dqn.replay.capacity = 128;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 8;
  cfg.requester_dqn.replay.capacity = 128;
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 1;
  cfg.learn_from_history = false;
  cfg.seed = 21;
  return cfg;
}

bool IsPermutation(const std::vector<int>& ranking, size_t n) {
  if (ranking.size() != n) return false;
  std::vector<uint8_t> seen(n, 0);
  for (int idx : ranking) {
    if (idx < 0 || static_cast<size_t>(idx) >= n || seen[idx]) return false;
    seen[idx] = 1;
  }
  return true;
}

/// Drives `actors` concurrent sessions through `events_per_actor` full
/// rank→feedback interactions and returns the service stats after a clean
/// flush + stop.
ServiceStats DriveConcurrently(const ServeWorkload& workload,
                               ServiceShard* service, int actors,
                               int events_per_actor) {
  std::atomic<int64_t> arrival_counter{0};
  std::atomic<int> bad_rankings{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(1000 + a);
      auto session = service->NewSession();
      for (int i = 0; i < events_per_actor; ++i) {
        const int64_t index = arrival_counter.fetch_add(1);
        const Observation obs = workload.MakeObservation(index, &rng);
        service->RecordArrival(obs);
        ServiceShard::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        if (!IsPermutation(ranking, obs.tasks.size())) ++bad_rankings;
        const Feedback feedback =
            workload.SimulateFeedback(obs, ranking, &rng);
        session->Feedback(obs, ticket, ranking, feedback);
      }
      EXPECT_TRUE(session->Flush());
    });
  }
  for (auto& t : threads) t.join();
  service->Stop();  // drains: every flushed block is learned
  EXPECT_EQ(bad_rankings.load(), 0);
  return service->stats();
}

TEST(ServiceShardTest, ServesConcurrentActorsAndLearnsEverything) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window_us = 200;
  cfg.flush_block_events = 3;
  cfg.publish_every_events = 4;
  ServiceShard service(&framework, cfg);
  service.Start();

  constexpr int kActors = 4;
  constexpr int kEvents = 60;
  const ServiceStats stats =
      DriveConcurrently(workload, &service, kActors, kEvents);

  EXPECT_EQ(stats.requests, kActors * kEvents);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.events_submitted, kActors * kEvents);
  // Stop() drains the learner queue: nothing flushed goes unlearned.
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
  EXPECT_GT(stats.batches, 0);
  EXPECT_GE(stats.mean_batch_size, 1.0);
  // Learner published along the way (initial snapshot is version 1).
  EXPECT_GT(stats.snapshot_version, 1u);
  // Latency percentiles are populated and ordered.
  EXPECT_EQ(stats.rank_count, kActors * kEvents);
  EXPECT_GT(stats.rank_latency_p50_ms, 0.0);
  EXPECT_LE(stats.rank_latency_p50_ms, stats.rank_latency_p95_ms);
  EXPECT_LE(stats.rank_latency_p95_ms, stats.rank_latency_p99_ms);
  EXPECT_LE(stats.rank_latency_p99_ms, stats.rank_latency_max_ms);
  // And the framework actually trained.
  EXPECT_GT(framework.transitions_stored(), 0);
}

TEST(ServiceShardTest, InlineLearningProcessesSynchronously) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.inline_learning = true;
  cfg.publish_every_events = 1;
  ServiceShard service(&framework, cfg);
  service.Start();

  Rng rng(5);
  auto session = service.NewSession();
  for (int i = 0; i < 10; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    service.RecordArrival(obs);
    ServiceShard::Ticket ticket;
    const std::vector<int> ranking = session->Rank(obs, &ticket);
    ASSERT_TRUE(IsPermutation(ranking, obs.tasks.size()));
    session->Feedback(obs, ticket,
                      ranking, workload.SimulateFeedback(obs, ranking, &rng));
    // Inline learning with block size 1: learned before Feedback returns.
    EXPECT_EQ(service.stats().events_processed, i + 1);
    // Per-event publication: initial snapshot + one per event.
    EXPECT_EQ(service.stats().snapshot_version,
              static_cast<uint64_t>(i) + 2);
  }
  session.reset();
  service.Stop();
}

TEST(ServiceShardTest, SnapshotVersionsAdvanceAndViewsAreConsistent) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  const auto snap1 = service.CurrentSnapshot();
  EXPECT_EQ(snap1->version, 1u);
  ASSERT_TRUE(snap1->worker.has_value());
  ASSERT_TRUE(snap1->requester.has_value());

  service.PublishNow();
  const auto snap2 = service.CurrentSnapshot();
  EXPECT_EQ(snap2->version, 2u);
  // The old snapshot stays alive and unchanged for holders of the ref.
  EXPECT_EQ(snap1->version, 1u);

  const ScoringView view = snap2->View();
  EXPECT_TRUE(static_cast<bool>(view.worker));
  EXPECT_TRUE(static_cast<bool>(view.requester));
  service.Stop();
}

TEST(ServiceShardTest, RankAfterStopDegradesToObservationOrder) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  service.Stop();

  Rng rng(9);
  auto session = service.NewSession();
  const Observation obs = workload.MakeObservation(0, &rng);
  ServiceShard::Ticket ticket;
  const std::vector<int> ranking = session->Rank(obs, &ticket);
  ASSERT_TRUE(IsPermutation(ranking, obs.tasks.size()));
  // Degraded mode returns the unpersonalized observation order.
  for (size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking[i], static_cast<int>(i));
  }
  EXPECT_EQ(service.stats().rejected, 1);
}

TEST(ServiceShardTest, EmptyPoolShortCircuits) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceShard service(&framework);
  service.Start();
  auto session = service.NewSession();
  Observation obs;
  obs.worker = 0;
  obs.worker_features.resize(workload.worker_feature_dim(), 0.0f);
  ServiceShard::Ticket ticket;
  EXPECT_TRUE(session->Rank(obs, &ticket).empty());
  EXPECT_EQ(service.stats().requests, 0);
  service.Stop();
}

TEST(ServiceShardTest, BackpressureBoundsTheLearnerQueue) {
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.learner_queue_capacity = 2;  // tiny: actors must block, not balloon
  cfg.flush_block_events = 1;
  ServiceShard service(&framework, cfg);
  service.Start();
  const ServiceStats stats =
      DriveConcurrently(workload, &service, /*actors=*/3,
                        /*events_per_actor=*/30);
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
}

TEST(ServiceShardTest, LoneRankIsServedWithoutWaitingTheWindow) {
  // One sequential actor never has company in the queue: each of its
  // requests is a batch of one, scored at once, not after the window.
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.batch_window_us = 2000000;  // 2 s
  ServiceShard service(&framework, cfg);
  service.Start();
  Rng rng(3);
  auto session = service.NewSession();
  for (int i = 0; i < 5; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    service.RecordArrival(obs);
    ServiceShard::Ticket ticket;
    const Stopwatch watch;
    const std::vector<int> ranking = session->Rank(obs, &ticket);
    EXPECT_LT(watch.ElapsedSeconds(), 1.0) << "rank " << i << " waited";
    EXPECT_TRUE(IsPermutation(ranking, obs.tasks.size()));
  }
  session.reset();
  service.Stop();
  EXPECT_EQ(service.stats().batches, 5);
}

TEST(ServiceShardTest, WindowCoalescesAfterAConcurrentBatch) {
  // Three requests queued before Start form the first batch, taken at
  // once. A batch of three shows concurrent load, so the next batch holds
  // its window open: a straggler sent 20 ms after a lone request joins it.
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.batch_window_us = 1000000;  // 1 s
  ServiceShard service(&framework, cfg);

  Rng rng(4);
  std::vector<Observation> observations;
  for (int i = 0; i < 5; ++i) {
    observations.push_back(workload.MakeObservation(i, &rng));
    service.RecordArrival(observations.back());
  }
  const auto rank_in_thread = [&](size_t i) {
    return std::thread([&service, &observations, i] {
      auto session = service.NewSession();
      ServiceShard::Ticket ticket;
      const std::vector<int> ranking =
          session->Rank(observations[i], &ticket);
      EXPECT_TRUE(IsPermutation(ranking, observations[i].tasks.size()));
    });
  };

  std::vector<std::thread> first;
  for (size_t i = 0; i < 3; ++i) first.push_back(rank_in_thread(i));
  // Let the three requests reach the queue; none is scored before Start.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const Stopwatch watch;
  service.Start();
  for (auto& t : first) t.join();
  EXPECT_LT(watch.ElapsedSeconds(), 0.5) << "the first batch waited";

  std::thread lone = rank_in_thread(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread straggler = rank_in_thread(4);
  lone.join();
  straggler.join();
  service.Stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.requests, 5);
}

TEST(ServiceShardTest, ConcurrentRanksAreEachServedOnce) {
  // More callers than queue slots and a batch smaller than the queue: the
  // lead passes between callers, callers block on a full queue, and a
  // leader's own request may sit behind a full batch of others.
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.max_batch = 3;
  cfg.request_queue_capacity = 4;
  cfg.batch_window_us = 50;
  ServiceShard service(&framework, cfg);
  service.Start();

  constexpr int kThreads = 8;
  constexpr int kRanks = 200;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      auto session = service.NewSession();
      for (int i = 0; i < kRanks; ++i) {
        const Observation obs =
            workload.MakeObservation(t * kRanks + i, &rng);
        ServiceShard::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        if (!IsPermutation(ranking, obs.tasks.size()) ||
            ticket.snapshot_version == 0 ||
            ticket.ctx.task_to_row.size() != obs.tasks.size()) {
          ++bad;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  service.Stop();
  EXPECT_EQ(bad.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kRanks);
  EXPECT_EQ(stats.rank_count, kThreads * kRanks);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_GT(stats.batches, 0);
  EXPECT_LE(stats.mean_batch_size, 3.0);
}

TEST(ServiceShardTest, StopRacingRanksAnswersEveryCaller) {
  // Stop lands while callers are ranking: every accepted request is still
  // scored (by a leader or by Stop's drain), every later one is rejected,
  // and no caller is left parked. Without a learner thread to join, Stop
  // returns within microseconds of closing the queue, so requests still
  // queued behind a busy leader are common.
  const ServeWorkload workload(SmallWorkloadConfig());
  for (int round = 0; round < 20; ++round) {
    TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                       workload.worker_feature_dim(),
                                       workload.task_feature_dim());
    ServiceConfig cfg;
    cfg.max_batch = 2;
    cfg.request_queue_capacity = 3;
    cfg.batch_window_us = 100;
    cfg.inline_learning = true;
    ServiceShard service(&framework, cfg);
    service.Start();

    constexpr int kThreads = 6;
    constexpr int kRanks = 40;
    std::atomic<int> issued{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(700 + 10 * round + t);
        auto session = service.NewSession();
        for (int i = 0; i < kRanks; ++i) {
          const Observation obs =
              workload.MakeObservation(t * kRanks + i, &rng);
          ServiceShard::Ticket ticket;
          const std::vector<int> ranking = session->Rank(obs, &ticket);
          ++issued;
          if (!IsPermutation(ranking, obs.tasks.size())) ++bad;
        }
      });
    }
    while (issued.load() < kThreads * 2 * (round + 1)) {
      std::this_thread::yield();
    }
    service.Stop();
    for (auto& t : threads) t.join();
    EXPECT_EQ(bad.load(), 0) << "round " << round;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests + stats.rejected, kThreads * kRanks)
        << "round " << round;
    EXPECT_EQ(stats.rank_count, stats.requests) << "round " << round;
  }
}

TEST(ServiceShardTest, ZeroMaxBatchIsTakenAsOne) {
  // A batch bound of 0 would let a leader pop nothing forever.
  const ServeWorkload workload(SmallWorkloadConfig());
  TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                     workload.worker_feature_dim(),
                                     workload.task_feature_dim());
  ServiceConfig cfg;
  cfg.max_batch = 0;
  ServiceShard service(&framework, cfg);
  EXPECT_EQ(service.config().max_batch, 1u);
  service.Start();
  Rng rng(8);
  auto session = service.NewSession();
  const Observation obs = workload.MakeObservation(0, &rng);
  ServiceShard::Ticket ticket;
  EXPECT_TRUE(IsPermutation(session->Rank(obs, &ticket), obs.tasks.size()));
  session.reset();
  service.Stop();
  EXPECT_EQ(service.stats().batches, 1);
}

/// Threads of this process, or -1 where /proc/self/task is unavailable.
int ThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++n;
  }
  return n;
}

TEST(ServiceShardTest, StartLaunchesOnlyTheLearnerThread) {
  // Ranks are scored on their callers' threads: Start adds the learner
  // thread (none with inline learning), and a lone Rank adds nothing.
  if (ThreadCount() < 0) GTEST_SKIP() << "no /proc/self/task";
  const ServeWorkload workload(SmallWorkloadConfig());
  for (const bool inline_learning : {false, true}) {
    TaskArrangementFramework framework(SmallFrameworkConfig(), &workload,
                                       workload.worker_feature_dim(),
                                       workload.task_feature_dim());
    ServiceConfig cfg;
    cfg.inline_learning = inline_learning;
    ServiceShard service(&framework, cfg);
    const int before = ThreadCount();
    service.Start();
    const int learners = inline_learning ? 0 : 1;
    EXPECT_EQ(ThreadCount(), before + learners)
        << "inline_learning=" << inline_learning;

    Rng rng(6);
    auto session = service.NewSession();
    const Observation obs = workload.MakeObservation(0, &rng);
    service.RecordArrival(obs);
    ServiceShard::Ticket ticket;
    const std::vector<int> ranking = session->Rank(obs, &ticket);
    EXPECT_TRUE(IsPermutation(ranking, obs.tasks.size()));
    EXPECT_EQ(ThreadCount(), before + learners)
        << "inline_learning=" << inline_learning;
    session.reset();
    service.Stop();
  }
}

}  // namespace
}  // namespace crowdrl
