// The actor/learner split with a dedicated learner thread, driven by the
// replay harness through a one-shard service. The bit-exact half of the
// contract — one inline actor == the serial framework — is
// ShardedServiceTest.OneShardInlineBitMatchesSerialFramework; this suite
// covers the asynchronous learner on the same trace.
#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/harness.h"
#include "serve/serving_policy.h"

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

TEST(ServeEquivalenceTest, AsyncServiceMatchesTrajectoryWithSingleDriver) {
  // With a dedicated learner thread the single-driver flow is still
  // sequentially consistent (the driver blocks on Rank, and feedback
  // blocks flush in order), but snapshots may lag by the publish cadence —
  // so we assert structural invariants rather than bit equality.
  const Dataset dataset = SyntheticGenerator(SmallTrace()).Generate();
  HarnessConfig harness_cfg;
  harness_cfg.seed = 5;
  ReplayHarness harness(&dataset, harness_cfg);
  ServiceConfig service_cfg;
  service_cfg.flush_block_events = 2;
  service_cfg.publish_every_events = 4;
  auto service = ShardedArrangementService::Create(
      SmallFrameworkConfig(), &harness, harness.worker_feature_dim(),
      harness.task_feature_dim(), /*num_shards=*/1, service_cfg);
  service->Start();
  {
    ShardedServingPolicy policy(service.get());
    const RunResult result = harness.Run(&policy);
    EXPECT_GT(result.arrivals_evaluated, 0);
    policy.FlushAll();
  }
  service->Stop();
  const ServiceStats stats = service->stats().aggregate;
  EXPECT_EQ(stats.events_processed, stats.events_submitted);
  EXPECT_EQ(stats.blocks_dropped, 0);
  EXPECT_GT(service->shard(0)->framework()->transitions_stored(), 0);
}

}  // namespace
}  // namespace crowdrl
