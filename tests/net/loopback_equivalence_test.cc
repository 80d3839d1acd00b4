// The transport-level extension of the serve equivalence chain: one actor
// driving the service *over a loopback UNIX-domain socket* replays the
// exact trajectory of one actor driving it in-process. Encode → decode →
// rank → feedback through the daemon's pending map must be bit-for-bit
// the in-process Session path — every ranking, every learner step, every
// final network parameter. Any lossy float handling, reordered dispatch
// or decode drift in the wire layer shows up here as a hard failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/actor_client.h"
#include "net/learner_daemon.h"
#include "serve/workload.h"
#include "tensor/matrix.h"

namespace crowdrl {
namespace net {
namespace {

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

/// S = 1, inline learning, per-event publication: the configuration under
/// which a single-driver service is bit-deterministic (snapshot == live
/// nets at every decision), so the two stacks can only diverge through
/// the transport itself.
std::unique_ptr<ShardedArrangementService> MakeService(
    const ServeWorkload& workload) {
  ServiceConfig service_cfg;
  service_cfg.inline_learning = true;
  service_cfg.publish_every_events = 1;
  return ShardedArrangementService::Create(
      SmallFrameworkConfig(), &workload, workload.worker_feature_dim(),
      workload.task_feature_dim(), /*num_shards=*/1, service_cfg);
}

void ExpectNetsIdentical(const DqnAgent* a, const DqnAgent* b) {
  ASSERT_EQ(a != nullptr, b != nullptr);
  if (a == nullptr) return;
  const auto pa = a->online().Params();
  const auto pb = b->online().Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*pa[i], *pb[i]), 0.0f)
        << "online param " << i << " diverged across the wire";
  }
  const auto ta = a->target_net().Params();
  const auto tb = b->target_net().Params();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(Matrix::MaxAbsDiff(*ta[i], *tb[i]), 0.0f)
        << "target param " << i << " diverged across the wire";
  }
  EXPECT_EQ(a->stored(), b->stored());
  EXPECT_EQ(a->learn_steps(), b->learn_steps());
}

/// The full equivalence run, parameterized by the wire transport: the
/// bit-match contract must hold identically whether frames cross a
/// socket or a shared-memory ring pair.
void RunLoopbackEquivalence(const ActorClient::TransportOptions& transport) {
  // One frozen workload shared by both stacks: its reads are physically
  // pure, and both drivers derive identical arrival streams from
  // identically seeded rngs.
  ServeWorkloadConfig workload_cfg;
  workload_cfg.num_workers = 16;
  workload_cfg.num_tasks = 24;
  workload_cfg.pool_size = 6;
  workload_cfg.warm_completions = 64;
  workload_cfg.seed = 11;
  const ServeWorkload workload(workload_cfg);

  // --- in-process reference ---
  std::unique_ptr<ShardedArrangementService> inproc = MakeService(workload);
  inproc->Start();
  std::unique_ptr<ShardedArrangementService::Session> session =
      inproc->NewSession();

  // --- wire stack: same config, behind a loopback daemon ---
  std::unique_ptr<ShardedArrangementService> remote = MakeService(workload);
  remote->Start();
  const std::string socket_path = testing::TempDir() + "crowdrl_equiv_" +
                                  std::to_string(::getpid()) + ".sock";
  LearnerDaemon daemon(remote.get(), socket_path);
  ASSERT_TRUE(daemon.Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(socket_path, transport);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();
  const bool shm =
      transport.kind == ActorClient::TransportOptions::Kind::kShm;
  EXPECT_STREQ(actor->transport_name(), shm ? "shm" : "uds");

  constexpr int kEvents = 40;
  constexpr uint64_t kDriverSeed = 20260808;
  Rng inproc_rng(kDriverSeed);
  Rng wire_rng(kDriverSeed);
  int completions = 0;
  for (int i = 0; i < kEvents; ++i) {
    // In-process step.
    const Observation obs_a = workload.MakeObservation(i, &inproc_rng);
    inproc->RecordArrival(obs_a);
    ShardedArrangementService::Ticket ticket;
    const std::vector<int> ranking_a = session->Rank(obs_a, &ticket);
    const crowdrl::Feedback feedback_a =
        workload.SimulateFeedback(obs_a, ranking_a, &inproc_rng);
    session->Feedback(obs_a, ticket, ranking_a, feedback_a);

    // Wire step (identical rng stream ⇒ identical observation).
    const Observation obs_b = workload.MakeObservation(i, &wire_rng);
    ASSERT_EQ(obs_a.arrival_index, obs_b.arrival_index);
    ASSERT_EQ(obs_a.worker, obs_b.worker);
    DecodedRankResponse rank;
    ASSERT_TRUE(actor->Rank(obs_b, /*record_arrival=*/true, &rank).ok());
    ASSERT_EQ(rank.ranking, ranking_a)
        << "ranking diverged across the wire at arrival " << i;
    EXPECT_FALSE(rank.degraded);
    const crowdrl::Feedback feedback_b =
        workload.SimulateFeedback(obs_b, rank.ranking, &wire_rng);
    ASSERT_EQ(feedback_a.completed_index, feedback_b.completed_index);
    ASSERT_EQ(feedback_a.completed_pos, feedback_b.completed_pos);
    FeedbackResponseHead fb_resp;
    ASSERT_TRUE(actor
                    ->Feedback(obs_b.arrival_index, obs_b.worker, feedback_b,
                               &fb_resp)
                    .ok());
    ASSERT_EQ(fb_resp.accepted, 1);
    if (feedback_a.completed_index >= 0) ++completions;
  }
  EXPECT_GT(completions, 0) << "degenerate trajectory: nothing completed";

  // The client fetches a snapshot replica while the daemon still runs;
  // it is compared with the learner's own snapshot below.
  ASSERT_TRUE(actor->FetchSnapshot(0).ok());
  ASSERT_NE(actor->replica(), nullptr);
  std::string replica_bytes;
  ASSERT_TRUE(AppendSnapshotResponse(*actor->replica(), 0, &replica_bytes)
                  .ok());

  // The shm upgrade is visible in the daemon's transport counters, and
  // with a minimal 4 KiB ring the 16 KiB-ish snapshot responses must have
  // streamed through backpressure rather than silently widening the ring.
  if (shm) {
    EXPECT_EQ(daemon.Stats().transport_shm_connections, 1);
    EXPECT_EQ(actor->ring_stats().ring_capacity,
              static_cast<int64_t>(kMinShmRingCapacity));
  }

  // Stop before this thread reads learning state: the joins order every
  // write of the daemon's handler threads and the shards' threads before
  // the reads below. Over shm the ring's atomics are the only other
  // ordering, and ThreadSanitizer cannot see it across the ring's two
  // mappings.
  daemon.Stop();
  remote->Stop();
  inproc->Stop();

  // Identical learning state: exploration clock, replay occupancy, every
  // network parameter.
  TaskArrangementFramework* fw_a = inproc->shard(0)->framework();
  TaskArrangementFramework* fw_b = remote->shard(0)->framework();
  EXPECT_EQ(fw_a->explorer().steps(), fw_b->explorer().steps());
  EXPECT_EQ(fw_a->transitions_stored(), fw_b->transitions_stored());
  ExpectNetsIdentical(fw_a->worker_agent(), fw_b->worker_agent());
  ExpectNetsIdentical(fw_a->requester_agent(), fw_b->requester_agent());

  // The published snapshots serialize to identical bytes — and the
  // client's fetched replica re-serializes to those same bytes, so a
  // remote scoring actor holds a bit-exact copy of the learner's policy.
  const std::shared_ptr<const PolicySnapshot> snap_a =
      inproc->shard(0)->CurrentSnapshot();
  const std::shared_ptr<const PolicySnapshot> snap_b =
      remote->shard(0)->CurrentSnapshot();
  EXPECT_EQ(snap_a->version, snap_b->version);
  std::string bytes_a, bytes_b;
  ASSERT_TRUE(AppendSnapshotResponse(*snap_a, 0, &bytes_a).ok());
  ASSERT_TRUE(AppendSnapshotResponse(*snap_b, 0, &bytes_b).ok());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(replica_bytes, bytes_a);

  // Both services really learned every event.
  EXPECT_EQ(inproc->stats().aggregate.events_processed, kEvents);
  EXPECT_EQ(remote->stats().aggregate.events_processed, kEvents);
}

TEST(LoopbackEquivalenceTest, WireActorReplaysInProcessTrajectory) {
  RunLoopbackEquivalence(ActorClient::TransportOptions{});
}

/// The acceptance bar for the shared-memory transport: the same bit-match
/// over the ring pair, with a deliberately minimal ring so every frame
/// class (snapshot responses included) exercises the wrap-around path.
TEST(LoopbackEquivalenceTest, ShmActorReplaysInProcessTrajectory) {
  ActorClient::TransportOptions transport;
  transport.kind = ActorClient::TransportOptions::Kind::kShm;
  transport.ring_capacity = kMinShmRingCapacity;
  RunLoopbackEquivalence(transport);
}

}  // namespace
}  // namespace net
}  // namespace crowdrl
