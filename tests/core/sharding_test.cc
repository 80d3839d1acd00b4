// Routing determinism is the sharded service's foundational invariant: a
// worker's shard must be a pure function of (worker id, shard count) —
// stable across process restarts, insertion orders and platforms — or a
// worker's feedback stream fragments across learners. These tests pin the
// hash itself (golden values), the partition properties every consumer
// relies on, and the per-shard framework-construction path.
#include "core/sharding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "serve/workload.h"
#include "tensor/matrix.h"

namespace crowdrl {
namespace {

// ---- ShardOfWorker: the one partition function ----

TEST(ShardOfWorkerTest, GoldenValuesPinRestartStability) {
  // These values are the on-the-wire contract of the routing: a deployment
  // that checkpoints per-shard learners and restarts must re-derive the
  // exact same worker→shard map. Any change to the hash (seed salt,
  // mixing constants, modulus) is a breaking migration and must fail here.
  const int kGoldenS4[12] = {3, 2, 3, 0, 3, 0, 1, 2, 1, 1, 0, 2};
  const int kGoldenS8[12] = {7, 2, 3, 0, 7, 4, 1, 6, 1, 5, 4, 6};
  for (WorkerId w = 0; w < 12; ++w) {
    EXPECT_EQ(ShardOfWorker(w, 4), kGoldenS4[w]) << "worker " << w;
    EXPECT_EQ(ShardOfWorker(w, 8), kGoldenS8[w]) << "worker " << w;
  }
  EXPECT_EQ(ShardOfWorker(1000, 4), 2);
  EXPECT_EQ(ShardOfWorker(65535, 4), 3);
  EXPECT_EQ(ShardOfWorker(123456, 4), 1);
  EXPECT_EQ(ShardOfWorker(2147483647, 4), 2);
}

TEST(ShardOfWorkerTest, SingleShardOwnsEveryWorker) {
  for (WorkerId w : {WorkerId{0}, WorkerId{1}, WorkerId{12345}}) {
    EXPECT_EQ(ShardOfWorker(w, 1), 0);
  }
}

TEST(ShardOfWorkerTest, RangeAndPurity) {
  for (int num_shards : {1, 2, 3, 5, 8}) {
    for (WorkerId w = 0; w < 500; ++w) {
      const int shard = ShardOfWorker(w, num_shards);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, num_shards);
      // Pure: asking twice is the same as asking once.
      ASSERT_EQ(ShardOfWorker(w, num_shards), shard);
    }
  }
}

TEST(ShardOfWorkerTest, RoughlyUniformOverShards) {
  // 10k sequential ids over 4 shards: each shard should own about 2500.
  // Loose bounds — the property defended is "no shard is starved or
  // doubly loaded by id structure", not an exact distribution.
  constexpr int kWorkers = 10000;
  constexpr int kShards = 4;
  std::vector<int> owned(kShards, 0);
  for (WorkerId w = 0; w < kWorkers; ++w) ++owned[ShardOfWorker(w, kShards)];
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(owned[s], kWorkers / kShards / 2) << "shard " << s << " starved";
    EXPECT_LT(owned[s], kWorkers / kShards * 2) << "shard " << s << " hot";
  }
}

TEST(ShardOfWorkerTest, RoutingIsInsensitiveToInsertionOrder) {
  // Build the worker→shard map by querying ids in three different orders
  // (ascending, descending, shuffled): a partition with any history- or
  // load-dependence would diverge between the passes.
  constexpr int kShards = 5;
  std::vector<WorkerId> ids(1000);
  for (WorkerId w = 0; w < 1000; ++w) ids[static_cast<size_t>(w)] = w;

  std::map<WorkerId, int> ascending;
  for (WorkerId w : ids) ascending[w] = ShardOfWorker(w, kShards);

  std::map<WorkerId, int> descending;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    descending[*it] = ShardOfWorker(*it, kShards);
  }

  std::mt19937 shuffle_rng(42);
  std::shuffle(ids.begin(), ids.end(), shuffle_rng);
  std::map<WorkerId, int> shuffled;
  for (WorkerId w : ids) shuffled[w] = ShardOfWorker(w, kShards);

  EXPECT_EQ(ascending, descending);
  EXPECT_EQ(ascending, shuffled);
}

// ---- ShardFrameworkConfig: per-shard configuration derivation ----

TEST(ShardFrameworkConfigTest, ShardZeroKeepsBaseConfigBitForBit) {
  // The S = 1 deployment must build exactly the serial framework — the
  // sharded↔serial equivalence tests stand on this.
  FrameworkConfig base = FrameworkConfig::Defaults();
  base.seed = 424242;
  for (int num_shards : {1, 2, 8}) {
    const FrameworkConfig derived =
        ShardFrameworkConfig(base, ShardSpec{0, num_shards});
    EXPECT_EQ(derived.seed, base.seed);
    EXPECT_EQ(derived.worker_dqn.seed, base.worker_dqn.seed);
    EXPECT_EQ(derived.requester_dqn.seed, base.requester_dqn.seed);
  }
}

TEST(ShardFrameworkConfigTest, NonZeroShardsGetDecorrelatedSeedStreams) {
  FrameworkConfig base = FrameworkConfig::Defaults();
  constexpr int kShards = 4;
  std::vector<uint64_t> seeds;
  for (int s = 0; s < kShards; ++s) {
    const FrameworkConfig derived =
        ShardFrameworkConfig(base, ShardSpec{s, kShards});
    if (s > 0) {
      EXPECT_NE(derived.seed, base.seed) << "shard " << s;
      EXPECT_NE(derived.worker_dqn.seed, base.worker_dqn.seed)
          << "shard " << s;
      EXPECT_NE(derived.requester_dqn.seed, base.requester_dqn.seed)
          << "shard " << s;
    }
    seeds.push_back(derived.seed);
  }
  // Pairwise distinct: shards must not accidentally share a stream.
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ShardFrameworkConfigTest, DerivationIsDeterministic) {
  FrameworkConfig base = FrameworkConfig::Defaults();
  base.seed = 7;
  for (int s = 0; s < 3; ++s) {
    const FrameworkConfig a = ShardFrameworkConfig(base, ShardSpec{s, 3});
    const FrameworkConfig b = ShardFrameworkConfig(base, ShardSpec{s, 3});
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.worker_dqn.seed, b.worker_dqn.seed);
    EXPECT_EQ(a.requester_dqn.seed, b.requester_dqn.seed);
  }
}

// ---- ShardEnvView: the partitioned window onto shared state ----

TEST(ShardEnvViewTest, DelegatesSharedStateAndReportsOwnership) {
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 16;
  wl_cfg.num_tasks = 16;
  const ServeWorkload base(wl_cfg);

  const ShardSpec spec{1, 3};
  const ShardEnvView view(&base, spec);
  EXPECT_EQ(view.base(), &base);
  EXPECT_EQ(view.spec().shard, 1);
  EXPECT_EQ(view.spec().num_shards, 3);

  // Tasks, qualities and the clock are deployment-wide — pure delegation.
  EXPECT_EQ(view.now(), base.now());
  EXPECT_EQ(&view.features(), &base.features());
  for (WorkerId w = 0; w < wl_cfg.num_workers; ++w) {
    EXPECT_EQ(view.WorkerQuality(w), base.WorkerQuality(w));
  }
  for (TaskId t = 0; t < wl_cfg.num_tasks; ++t) {
    EXPECT_EQ(view.TaskQuality(t), base.TaskQuality(t));
  }

  // Ownership is the partition function, nothing else.
  for (WorkerId w = 0; w < 200; ++w) {
    EXPECT_EQ(view.Owns(w), ShardOfWorker(w, 3) == 1);
  }
}

TEST(ShardEnvViewTest, EveryWorkerOwnedByExactlyOneShard) {
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 8;
  wl_cfg.num_tasks = 8;
  wl_cfg.pool_size = 4;
  const ServeWorkload base(wl_cfg);

  constexpr int kShards = 4;
  std::vector<std::unique_ptr<ShardEnvView>> views;
  for (int s = 0; s < kShards; ++s) {
    views.push_back(
        std::make_unique<ShardEnvView>(&base, ShardSpec{s, kShards}));
  }
  for (WorkerId w = 0; w < 1000; ++w) {
    int owners = 0;
    for (const auto& view : views) owners += view->Owns(w) ? 1 : 0;
    ASSERT_EQ(owners, 1) << "worker " << w;
  }
}

// ---- BuildShardFrameworks: the fleet-construction path ----

TEST(BuildShardFrameworksTest, BuildsOneFrameworkPerShardOverSharedEnv) {
  ServeWorkloadConfig wl_cfg;
  wl_cfg.num_workers = 8;
  wl_cfg.num_tasks = 8;
  wl_cfg.pool_size = 4;
  const ServeWorkload env(wl_cfg);

  FrameworkConfig base = FrameworkConfig::Defaults();
  base.worker_dqn.net.hidden_dim = 8;
  base.worker_dqn.net.num_heads = 2;
  base.requester_dqn.net.hidden_dim = 8;
  base.requester_dqn.net.num_heads = 2;

  constexpr int kShards = 3;
  const ShardSet set =
      BuildShardFrameworks(base, &env, env.worker_feature_dim(),
                           env.task_feature_dim(), kShards);
  ASSERT_EQ(set.size(), static_cast<size_t>(kShards));
  ASSERT_EQ(set.views.size(), static_cast<size_t>(kShards));
  const std::vector<TaskArrangementFramework*> pointers = set.Pointers();
  ASSERT_EQ(pointers.size(), static_cast<size_t>(kShards));
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(pointers[s], set.frameworks[static_cast<size_t>(s)].get());
    EXPECT_EQ(set.views[static_cast<size_t>(s)]->spec().shard, s);
    EXPECT_EQ(set.views[static_cast<size_t>(s)]->spec().num_shards, kShards);
    EXPECT_EQ(set.views[static_cast<size_t>(s)]->base(), &env);
  }

  // Decorrelated initializations: shard 1's networks must not replicate
  // shard 0's (distinct seed streams reach the parameter init).
  const auto p0 = pointers[0]->worker_agent()->online().Params();
  const auto p1 = pointers[1]->worker_agent()->online().Params();
  ASSERT_EQ(p0.size(), p1.size());
  bool any_diff = false;
  for (size_t i = 0; i < p0.size() && !any_diff; ++i) {
    any_diff = Matrix::MaxAbsDiff(*p0[i], *p1[i]) > 0.0f;
  }
  EXPECT_TRUE(any_diff) << "shard 0 and 1 initialized identical networks";
}

}  // namespace
}  // namespace crowdrl
