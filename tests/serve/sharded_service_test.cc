// The sharded service's contracts, in strength order: (1) with S = 1 the
// whole sharded stack — worker hash, shard, inline learner, snapshot chain
// — is *bit-for-bit* the serial framework; (2) S > 1 runs are
// deterministic for a fixed seed and shard count; (3) every rank request
// is answered with a full valid permutation, including shed and
// post-shutdown ones, and the stats account for each of them; (4) feedback
// always reaches the shard that owns the worker, and cross-shard stats
// merge exactly. The copy-on-write snapshot builder beneath every shard is
// tested directly at the end.
#include "serve/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "data/synthetic.h"
#include "eval/harness.h"
#include "serve/serving_policy.h"
#include "serve/snapshot.h"
#include "serve/workload.h"
#include "tensor/matrix.h"

namespace crowdrl {
namespace {

SyntheticConfig SmallTrace() {
  SyntheticConfig cfg;
  cfg.scale = 0.05;
  cfg.eval_months = 2;
  cfg.seed = 1234;
  return cfg;
}

FrameworkConfig SmallFrameworkConfig() {
  FrameworkConfig cfg = FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 16;
  cfg.worker_dqn.net.num_heads = 2;
  cfg.worker_dqn.batch_size = 8;
  cfg.worker_dqn.replay.capacity = 256;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 8;
  cfg.requester_dqn.replay.capacity = 256;
  cfg.predictor.max_segments = 3;
  cfg.max_failed_stored = 2;
  cfg.warmup_learn_steps = 20;
  cfg.seed = 77;
  return cfg;
}

ServiceConfig InlineServiceConfig() {
  ServiceConfig cfg;
  cfg.inline_learning = true;
  cfg.publish_every_events = 1;  // snapshot == live nets, always
  return cfg;
}

void ExpectNetsIdentical(const DqnAgent* a, const DqnAgent* b) {
  ASSERT_EQ(a != nullptr, b != nullptr);
  if (a == nullptr) return;
  const auto pa = a->online().Params();
  const auto pb = b->online().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*pa[i], *pb[i]), 0.0f)
        << "online param " << i << " diverged";
  }
  const auto ta = a->target_net().Params();
  const auto tb = b->target_net().Params();
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*ta[i], *tb[i]), 0.0f)
        << "target param " << i << " diverged";
  }
  EXPECT_EQ(a->stored(), b->stored());
  EXPECT_EQ(a->learn_steps(), b->learn_steps());
}

void ExpectRunsBitEqual(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.arrivals_evaluated, b.arrivals_evaluated);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.final_metrics.cr, b.final_metrics.cr);
  EXPECT_EQ(a.final_metrics.kcr, b.final_metrics.kcr);
  EXPECT_EQ(a.final_metrics.ndcg_cr, b.final_metrics.ndcg_cr);
  EXPECT_EQ(a.final_metrics.qg, b.final_metrics.qg);
  EXPECT_EQ(a.final_metrics.kqg, b.final_metrics.kqg);
  EXPECT_EQ(a.final_metrics.ndcg_qg, b.final_metrics.ndcg_qg);
}

// ---- (1) S = 1: the sharded stack collapses to the serial framework ----

TEST(ShardedServiceTest, OneShardInlineBitMatchesSerialFramework) {
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  ASSERT_TRUE(dataset.Validate().ok());
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;

  // Serial reference.
  ReplayHarness serial_harness(&dataset, harness_cfg);
  TaskArrangementFramework serial(
      SmallFrameworkConfig(), &serial_harness,
      serial_harness.worker_feature_dim(), serial_harness.task_feature_dim());
  const RunResult serial_result = serial_harness.Run(&serial);

  // Same trace and seeds through the full sharded stack with one shard.
  // BuildShardFrameworks keeps shard 0's config bit-identical to the base,
  // so any divergence below is the serving machinery's fault.
  ReplayHarness sharded_harness(&dataset, harness_cfg);
  ShardSet set = BuildShardFrameworks(
      SmallFrameworkConfig(), &sharded_harness,
      sharded_harness.worker_feature_dim(),
      sharded_harness.task_feature_dim(), /*num_shards=*/1);
  ShardedArrangementService service(set.Pointers(), InlineServiceConfig());
  service.Start();
  RunResult sharded_result;
  {
    ShardedServingPolicy policy(&service);
    sharded_result = sharded_harness.Run(&policy);
    policy.FlushAll();
  }
  service.Stop();

  ExpectRunsBitEqual(serial_result, sharded_result);
  TaskArrangementFramework* sharded = set.frameworks[0].get();
  EXPECT_EQ(serial.explorer().steps(), sharded->explorer().steps());
  EXPECT_EQ(serial.transitions_stored(), sharded->transitions_stored());
  ExpectNetsIdentical(serial.worker_agent(), sharded->worker_agent());
  ExpectNetsIdentical(serial.requester_agent(), sharded->requester_agent());

  // The run really went through the sharded machinery, and the aggregate
  // equals the one shard's own accounting.
  const ShardedServiceStats stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 1u);
  EXPECT_EQ(stats.aggregate.requests, serial_result.arrivals_evaluated);
  EXPECT_EQ(stats.aggregate.requests, stats.per_shard[0].requests);
  EXPECT_EQ(stats.aggregate.shed, 0);
  EXPECT_EQ(stats.aggregate.events_processed,
            stats.aggregate.events_submitted);
  EXPECT_GT(stats.aggregate.snapshot_version, 1u);
}

// ---- (2) S > 1: fixed seed + shard count ⇒ reproducible run ----

TEST(ShardedServiceTest, MultiShardRunsAreDeterministic) {
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;

  // Everything a rerun must reproduce, copied out before the run's
  // harness/env views are torn down.
  struct RunSnapshot {
    RunResult run;
    std::vector<int64_t> explorer_steps;
    std::vector<int64_t> stored;
    std::vector<std::vector<Matrix>> params;  // per shard, all nets
  };

  auto run_once = [&]() {
    ReplayHarness harness(&dataset, harness_cfg);
    ShardSet set = BuildShardFrameworks(
        SmallFrameworkConfig(), &harness, harness.worker_feature_dim(),
        harness.task_feature_dim(), /*num_shards=*/3);
    ShardedArrangementService service(set.Pointers(), InlineServiceConfig());
    service.Start();
    RunSnapshot out;
    {
      // Two rotated driver sessions: the multi-session buffer/flush path
      // must not perturb determinism either.
      ShardedServingPolicy policy(&service, /*sessions_per_driver=*/2);
      out.run = harness.Run(&policy);
      policy.FlushAll();
    }
    service.Stop();
    for (const auto& framework : set.frameworks) {
      out.explorer_steps.push_back(framework->explorer().steps());
      out.stored.push_back(framework->transitions_stored());
      std::vector<Matrix> params;
      for (const DqnAgent* agent :
           {framework->worker_agent(), framework->requester_agent()}) {
        if (agent == nullptr) continue;
        for (const Matrix* p : agent->online().Params()) params.push_back(*p);
        for (const Matrix* p : agent->target_net().Params()) {
          params.push_back(*p);
        }
      }
      out.params.push_back(std::move(params));
    }
    return out;
  };

  const RunSnapshot a = run_once();
  const RunSnapshot b = run_once();

  ExpectRunsBitEqual(a.run, b.run);
  EXPECT_EQ(a.explorer_steps, b.explorer_steps);
  EXPECT_EQ(a.stored, b.stored);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t s = 0; s < a.params.size(); ++s) {
    ASSERT_EQ(a.params[s].size(), b.params[s].size()) << "shard " << s;
    for (size_t i = 0; i < a.params[s].size(); ++i) {
      EXPECT_EQ(Matrix::MaxAbsDiff(a.params[s][i], b.params[s][i]), 0.0f)
          << "shard " << s << " param " << i << " diverged between reruns";
    }
  }
}

// ---- (4) routing: every event lands on the worker's owner shard ----

TEST(ShardedServiceTest, RoutingAgreesWithShardOwnership) {
  // The service's routing and the shard env views are one partition: a
  // worker is routed to shard k exactly when shard k's view owns it.
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 8;
  wl_cfg.num_tasks = 8;
  wl_cfg.pool_size = 4;
  const ServeWorkload workload(wl_cfg);
  FrameworkConfig fw_cfg = SmallFrameworkConfig();
  fw_cfg.learn_from_history = false;
  for (int num_shards : {1, 3, 7}) {
    ShardSet set = BuildShardFrameworks(fw_cfg, &workload,
                                        workload.worker_feature_dim(),
                                        workload.task_feature_dim(),
                                        num_shards);
    const ShardedArrangementService service(set.Pointers());
    ASSERT_EQ(service.num_shards(), static_cast<size_t>(num_shards));
    for (WorkerId w = 0; w < 300; ++w) {
      for (size_t k = 0; k < set.views.size(); ++k) {
        EXPECT_EQ(service.ShardOf(w) == k, set.views[k]->Owns(w))
            << "S=" << num_shards << " worker " << w << " shard " << k;
      }
    }
  }
}

TEST(ShardedServiceTest, FeedbackReachesOwnerShardOnly) {
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;
  ReplayHarness harness(&dataset, harness_cfg);
  ShardSet set = BuildShardFrameworks(
      SmallFrameworkConfig(), &harness, harness.worker_feature_dim(),
      harness.task_feature_dim(), /*num_shards=*/3);
  ShardedArrangementService service(set.Pointers(), InlineServiceConfig());
  service.Start();
  RunResult result;
  {
    ShardedServingPolicy policy(&service);
    result = harness.Run(&policy);
    policy.FlushAll();
  }
  service.Stop();

  const ShardedServiceStats stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 3u);
  // The shard assignment is visible in the per-shard request counters:
  // they sum to the run's arrivals, every shard's feedback was learned by
  // its own learner, and (with this trace) no shard sat idle.
  int64_t requests = 0;
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const ServiceStats& shard = stats.per_shard[s];
    requests += shard.requests;
    EXPECT_EQ(shard.events_processed, shard.events_submitted)
        << "shard " << s;
    EXPECT_GT(shard.requests, 0) << "shard " << s << " never ranked";
    // A shard only stores transitions for workers it owns.
    EXPECT_EQ(set.frameworks[s]->transitions_stored() > 0,
              shard.events_submitted > 0);
  }
  EXPECT_EQ(requests, result.arrivals_evaluated);
  EXPECT_EQ(stats.aggregate.requests, requests);
  // Aggregate latency percentiles merge the raw per-shard series: the
  // merged count is the sum, and the merged max is the max of maxima.
  int64_t rank_count = 0;
  double max_ms = 0;
  for (const ServiceStats& shard : stats.per_shard) {
    rank_count += shard.rank_count;
    max_ms = std::max(max_ms, shard.rank_latency_max_ms);
  }
  EXPECT_EQ(stats.aggregate.rank_count, rank_count);
  EXPECT_DOUBLE_EQ(stats.aggregate.rank_latency_max_ms, max_ms);
  // Every other field is the sum over shards, except the newest snapshot
  // version (a max) and the mean batch size (a ratio of sums).
  uint64_t max_version = 0;
  for (const ServiceStats& shard : stats.per_shard) {
    max_version = std::max(max_version, shard.snapshot_version);
  }
  EXPECT_EQ(stats.aggregate.snapshot_version, max_version);
  EXPECT_DOUBLE_EQ(stats.aggregate.mean_batch_size,
                   static_cast<double>(stats.aggregate.requests) /
                       static_cast<double>(stats.aggregate.batches));
  ServiceStats::ForEachField([&](const char* name, auto field) {
    const std::string key = name;
    if (key == "snapshot_version" || key == "mean_batch_size" ||
        key.rfind("rank_", 0) == 0) {
      return;
    }
    auto unaccounted = stats.aggregate.*field;
    for (const ServiceStats& shard : stats.per_shard) {
      unaccounted -= shard.*field;
    }
    EXPECT_EQ(unaccounted, 0) << key;
  });
}

// ---- (3) admission control: shed, counted, never silently dropped ----

std::vector<int> SortedCopy(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ShardedServiceTest, ShedRequestsGetFallbackRankingAndAreCounted) {
  // A zero enqueue budget against a capacity-1 request queue under
  // concurrent load: some requests must find the queue full and shed.
  // Every caller still receives a full permutation, and the accounting
  // requests + shed == issued holds exactly — nothing silently dropped.
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 32;
  wl_cfg.num_tasks = 32;
  wl_cfg.pool_size = 8;
  const ServeWorkload workload(wl_cfg);

  FrameworkConfig fw_cfg = SmallFrameworkConfig();
  fw_cfg.learn_from_history = false;
  ShardSet set = BuildShardFrameworks(fw_cfg, &workload,
                                      workload.worker_feature_dim(),
                                      workload.task_feature_dim(),
                                      /*num_shards=*/1);
  ServiceConfig service_cfg;
  service_cfg.request_queue_capacity = 1;
  service_cfg.enqueue_budget_us = 0;  // shed on the first full check
  service_cfg.publish_every_events = 4;
  ShardedArrangementService service(set.Pointers(), service_cfg);
  service.Start();

  constexpr int kThreads = 4;
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> observed_shed{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> actors;
  for (int t = 0; t < kThreads; ++t) {
    actors.emplace_back([&, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      auto session = service.NewSession();
      for (int i = 0; i < 500 && !done.load(); ++i) {
        const Observation obs = workload.MakeObservation(
            issued.fetch_add(1), &rng);
        ShardedArrangementService::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        // Shed or served, the answer is a full valid permutation.
        ASSERT_EQ(ranking.size(), obs.tasks.size());
        std::vector<int> identity(obs.tasks.size());
        std::iota(identity.begin(), identity.end(), 0);
        ASSERT_EQ(SortedCopy(ranking), identity);
        // Feedback for everything, shed or not: a shed ticket carries no
        // decision context, so its feedback must be a learning no-op (the
        // decision never existed) — only served events enter the stream.
        session->Feedback(obs, ticket, ranking,
                          workload.SimulateFeedback(obs, ranking, &rng));
        if (ticket.inner.snapshot_version == 0) {
          observed_shed.fetch_add(1);
          if (observed_shed.load() >= 3) done.store(true);
        }
      }
      session->Flush();
    });
  }
  for (auto& t : actors) t.join();
  service.Stop();

  const ShardedServiceStats stats = service.stats();
  EXPECT_GT(stats.aggregate.shed, 0) << "contended capacity-1 queue with a "
                                        "zero budget never shed";
  EXPECT_EQ(stats.aggregate.shed, observed_shed.load());
  EXPECT_EQ(stats.aggregate.requests + stats.aggregate.shed, issued.load());
  EXPECT_EQ(stats.aggregate.rejected, 0);
  // Shed feedbacks never entered the learning stream.
  EXPECT_EQ(stats.aggregate.events_submitted,
            issued.load() - stats.aggregate.shed);
  EXPECT_EQ(stats.aggregate.events_processed,
            stats.aggregate.events_submitted);
}

TEST(ShardedServiceTest, StatsPercentilesMatchTheLatencyAccumulators) {
  // stats() sorts a copy of each shard's latency sample outside the stats
  // lock, and the aggregate merges those same copies. Polled while two
  // actors rank across two shards, then compared against percentiles
  // recomputed from the shards' own accumulators.
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 16;
  wl_cfg.num_tasks = 16;
  wl_cfg.pool_size = 6;
  const ServeWorkload workload(wl_cfg);

  FrameworkConfig fw_cfg = SmallFrameworkConfig();
  fw_cfg.learn_from_history = false;
  ShardSet set = BuildShardFrameworks(fw_cfg, &workload,
                                      workload.worker_feature_dim(),
                                      workload.task_feature_dim(),
                                      /*num_shards=*/2);
  ShardedArrangementService service(set.Pointers());
  service.Start();

  constexpr int kActors = 2;
  constexpr int kRanks = 100;
  std::atomic<int64_t> issued{0};
  std::atomic<bool> ranking{true};
  std::thread poller([&] {
    while (ranking.load()) {
      const ShardedServiceStats polled = service.stats();
      EXPECT_LE(polled.aggregate.rank_latency_p50_ms,
                polled.aggregate.rank_latency_max_ms);
    }
  });
  std::vector<std::thread> actors;
  for (int a = 0; a < kActors; ++a) {
    actors.emplace_back([&, a] {
      Rng rng(300 + static_cast<uint64_t>(a));
      auto session = service.NewSession();
      for (int i = 0; i < kRanks; ++i) {
        const Observation obs =
            workload.MakeObservation(issued.fetch_add(1), &rng);
        ShardedArrangementService::Ticket ticket;
        session->Rank(obs, &ticket);
      }
    });
  }
  for (auto& t : actors) t.join();
  ranking.store(false);
  poller.join();
  service.Stop();

  const ShardedServiceStats stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  PercentileAccumulator merged;
  for (size_t k = 0; k < stats.per_shard.size(); ++k) {
    const PercentileAccumulator latency =
        service.shard(k)->latency_accumulator();
    EXPECT_GT(latency.count(), 0) << "shard " << k << " never ranked";
    ServiceStats expected;
    FillRankLatency(latency, &expected);
    const ServiceStats& got = stats.per_shard[k];
    EXPECT_EQ(got.rank_count, expected.rank_count) << "shard " << k;
    EXPECT_EQ(got.rank_latency_mean_ms, expected.rank_latency_mean_ms);
    EXPECT_EQ(got.rank_latency_p50_ms, expected.rank_latency_p50_ms);
    EXPECT_EQ(got.rank_latency_p95_ms, expected.rank_latency_p95_ms);
    EXPECT_EQ(got.rank_latency_p99_ms, expected.rank_latency_p99_ms);
    EXPECT_EQ(got.rank_latency_max_ms, expected.rank_latency_max_ms);
    merged.Merge(latency);
  }
  ServiceStats expected;
  FillRankLatency(merged, &expected);
  EXPECT_EQ(stats.aggregate.rank_count, kActors * kRanks);
  EXPECT_EQ(stats.aggregate.rank_count, expected.rank_count);
  EXPECT_EQ(stats.aggregate.rank_latency_mean_ms,
            expected.rank_latency_mean_ms);
  EXPECT_EQ(stats.aggregate.rank_latency_p50_ms,
            expected.rank_latency_p50_ms);
  EXPECT_EQ(stats.aggregate.rank_latency_p95_ms,
            expected.rank_latency_p95_ms);
  EXPECT_EQ(stats.aggregate.rank_latency_p99_ms,
            expected.rank_latency_p99_ms);
  EXPECT_EQ(stats.aggregate.rank_latency_max_ms,
            expected.rank_latency_max_ms);
}

TEST(ShardedServiceTest, PostShutdownRanksUseObservationOrder) {
  // After Stop every Rank is rejected (counted separately from shed) and
  // served the unpersonalized observation order.
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 8;
  wl_cfg.num_tasks = 16;
  wl_cfg.pool_size = 6;
  const ServeWorkload workload(wl_cfg);

  FrameworkConfig fw_cfg = SmallFrameworkConfig();
  fw_cfg.learn_from_history = false;
  ShardSet set = BuildShardFrameworks(fw_cfg, &workload,
                                      workload.worker_feature_dim(),
                                      workload.task_feature_dim(),
                                      /*num_shards=*/2);
  ShardedArrangementService service(set.Pointers());
  service.Start();
  service.Stop();

  auto session = service.NewSession();
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const Observation obs = workload.MakeObservation(i, &rng);
    ShardedArrangementService::Ticket ticket;
    const std::vector<int> ranking = session->Rank(obs, &ticket);
    std::vector<int> identity(obs.tasks.size());
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_EQ(ranking, identity) << "fallback is not observation order";
  }
  const ShardedServiceStats stats = service.stats();
  EXPECT_EQ(stats.aggregate.rejected, 8);
  EXPECT_EQ(stats.aggregate.shed, 0);
  EXPECT_EQ(stats.aggregate.requests, 0);
}

// ---- snapshot delta-publication through the full service ----

TEST(ShardedServiceTest, DeltaPublicationSharesUnchangedNets) {
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;
  ReplayHarness harness(&dataset, harness_cfg);
  ShardSet set = BuildShardFrameworks(
      SmallFrameworkConfig(), &harness, harness.worker_feature_dim(),
      harness.task_feature_dim(), /*num_shards=*/1);
  ShardedArrangementService service(set.Pointers(), InlineServiceConfig());
  service.Start();
  {
    ShardedServingPolicy policy(&service);
    harness.Run(&policy);
    policy.FlushAll();
  }
  service.Stop();

  // Every publish snapshots all four nets, each either copied or shared.
  // With per-event publication most publishes happen between learner
  // steps, where no net changed, so sharing must happen — and the live
  // nets must still have been copied at least once per learner step.
  const ServiceStats stats = service.stats().aggregate;
  EXPECT_EQ(stats.snapshot_nets_copied + stats.snapshot_nets_shared,
            4 * static_cast<int64_t>(stats.snapshot_version));
  EXPECT_GT(stats.snapshot_nets_shared, 0);
  EXPECT_GT(stats.snapshot_nets_copied, 4);
}

// ---- SnapshotBuilder: per-net copy-on-write ----

bool NetsBitEqual(const SetQNetwork& a, const SetQNetwork& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->rows() != pb[i]->rows() || pa[i]->cols() != pb[i]->cols() ||
        Matrix::MaxAbsDiff(*pa[i], *pb[i]) != 0.0f) {
      return false;
    }
  }
  return true;
}

/// Every net a snapshot publishes equals its agent's live net bit for bit.
void ExpectSnapshotMatchesLive(const PolicySnapshot& snap,
                               const DqnAgent& worker,
                               const DqnAgent& requester) {
  ASSERT_TRUE(snap.worker.has_value());
  ASSERT_TRUE(snap.requester.has_value());
  EXPECT_TRUE(NetsBitEqual(*snap.worker.online, worker.online()));
  EXPECT_TRUE(NetsBitEqual(*snap.worker.target, worker.target_net()));
  EXPECT_TRUE(NetsBitEqual(*snap.requester.online, requester.online()));
  EXPECT_TRUE(NetsBitEqual(*snap.requester.target, requester.target_net()));
}

TEST(SnapshotBuilderTest, CopiesExactlyTheNetsThatChanged) {
  DqnAgentConfig cfg;
  cfg.net.input_dim = 6;
  cfg.net.hidden_dim = 8;
  cfg.net.num_heads = 2;
  cfg.batch_size = 4;
  cfg.replay.capacity = 32;
  cfg.target_sync_every = 2;  // the second learner step syncs the target
  DqnAgent worker(cfg), requester(cfg);
  Rng rng(3);
  for (DqnAgent* agent : {&worker, &requester}) {
    for (int i = 0; i < 16; ++i) {
      Transition t;
      t.state = std::make_shared<const Matrix>(
          Matrix::Uniform(4, cfg.net.input_dim, &rng));
      t.valid_n = 4;
      t.action_row = static_cast<int>(rng.UniformInt(4));
      t.target = rng.Uniform();
      agent->Store(std::move(t));
    }
  }

  SnapshotBuilder builder;
  int64_t copied = 0, shared = 0;
  // Builds the next version and returns how many nets it copied / shared.
  auto build = [&](uint64_t version) {
    auto snap = builder.Build(&worker, &requester, version);
    ExpectSnapshotMatchesLive(*snap, worker, requester);
    const int64_t new_copied = builder.nets_copied() - copied;
    const int64_t new_shared = builder.nets_shared() - shared;
    copied = builder.nets_copied();
    shared = builder.nets_shared();
    return std::make_tuple(snap, new_copied, new_shared);
  };

  // First publish: nothing cached yet, all four nets copied.
  const auto [v1, c1, s1] = build(1);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(c1, 4);
  EXPECT_EQ(s1, 0);

  // Idle learner: all four nets shared with the previous version.
  const auto [v2, c2, s2] = build(2);
  EXPECT_EQ(c2, 0);
  EXPECT_EQ(s2, 4);
  EXPECT_EQ(v2->worker.online, v1->worker.online);
  EXPECT_EQ(v2->worker.target, v1->worker.target);
  EXPECT_EQ(v2->requester.online, v1->requester.online);
  EXPECT_EQ(v2->requester.target, v1->requester.target);

  // One gradient step per agent: the online nets are copied, the target
  // nets (unchanged until the sync) shared.
  ASSERT_TRUE(worker.LearnStep());
  ASSERT_TRUE(requester.LearnStep());
  const auto [v3, c3, s3] = build(3);
  EXPECT_EQ(c3, 2);
  EXPECT_EQ(s3, 2);
  EXPECT_NE(v3->worker.online, v2->worker.online);
  EXPECT_NE(v3->requester.online, v2->requester.online);
  EXPECT_EQ(v3->worker.target, v2->worker.target);
  EXPECT_EQ(v3->requester.target, v2->requester.target);
  // The earlier version is immutable: it still holds the pre-step nets.
  EXPECT_FALSE(NetsBitEqual(*v2->worker.online, worker.online()));

  // The second step syncs the target: now every net is copied.
  ASSERT_TRUE(worker.LearnStep());
  ASSERT_TRUE(requester.LearnStep());
  const auto [v4, c4, s4] = build(4);
  EXPECT_EQ(c4, 4);
  EXPECT_EQ(s4, 0);
  EXPECT_NE(v4->worker.target, v3->worker.target);
  EXPECT_NE(v4->requester.target, v3->requester.target);
}

}  // namespace
}  // namespace crowdrl
