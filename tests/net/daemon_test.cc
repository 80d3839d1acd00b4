// LearnerDaemon + ActorClient over a loopback UNIX-domain socket: the full
// request/response surface (rank, both feedback modes, version-gated
// snapshot fetches, stats, shutdown), typed error frames for hostile
// bodies, and connection teardown. Runs under ASan and TSan in CI.
#include "net/learner_daemon.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/actor_client.h"
#include "net/shm_transport.h"
#include "net/socket.h"
#include "serve/workload.h"

namespace crowdrl {
namespace net {
namespace {

std::string TestSocketPath(const std::string& name) {
  return testing::TempDir() + "crowdrl_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServeWorkloadConfig SmallWorkload() {
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
  cfg.worker_dqn.replay.capacity = 256;
  cfg.requester_dqn.net.hidden_dim = 16;
  cfg.requester_dqn.net.num_heads = 2;
  cfg.requester_dqn.batch_size = 8;
  cfg.requester_dqn.replay.capacity = 256;
  cfg.predictor.max_segments = 3;
  cfg.max_failed_stored = 2;
  cfg.seed = 77;
  return cfg;
}

/// A started (workload, sharded service, daemon) stack on a loopback UDS.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& name, int num_shards = 1,
                         const FrameworkConfig& fw_cfg = SmallFrameworkConfig())
      : workload(SmallWorkload()), socket_path(TestSocketPath(name)) {
    ServiceConfig service_cfg;
    service_cfg.inline_learning = true;
    service_cfg.publish_every_events = 1;
    service = ShardedArrangementService::Create(
        fw_cfg, &workload, workload.worker_feature_dim(),
        workload.task_feature_dim(), num_shards, service_cfg);
    service->Start();
    daemon = std::make_unique<LearnerDaemon>(service.get(), socket_path);
  }
  ~DaemonFixture() {
    daemon->Stop();
    service->Stop();
  }

  ServeWorkload workload;
  std::string socket_path;
  std::unique_ptr<ShardedArrangementService> service;
  std::unique_ptr<LearnerDaemon> daemon;
};

TEST(LearnerDaemonTest, RequiresStartedService) {
  ServeWorkload workload(SmallWorkload());
  auto service = ShardedArrangementService::Create(
      SmallFrameworkConfig(), &workload, workload.worker_feature_dim(),
      workload.task_feature_dim(), 1);
  LearnerDaemon daemon(service.get(), TestSocketPath("unstarted"));
  EXPECT_EQ(daemon.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(LearnerDaemonTest, ThinActorRankFeedbackStatsLoop) {
  DaemonFixture fx("thin_actor");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());

  constexpr int kEvents = 30;
  Rng rng(123);
  int accepted = 0;
  int completions = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Observation obs = fx.workload.MakeObservation(i, &rng);
    DecodedRankResponse rank;
    ASSERT_TRUE(client.value()->Rank(obs, /*record_arrival=*/true, &rank).ok());
    EXPECT_EQ(rank.arrival_index, obs.arrival_index);
    EXPECT_FALSE(rank.degraded);
    EXPECT_GT(rank.snapshot_version, 0u);
    ASSERT_EQ(rank.ranking.size(), obs.tasks.size());

    const crowdrl::Feedback feedback =
        fx.workload.SimulateFeedback(obs, rank.ranking, &rng);
    if (feedback.completed_index >= 0) ++completions;
    FeedbackResponseHead fb_resp;
    ASSERT_TRUE(client.value()
                    ->Feedback(obs.arrival_index, obs.worker, feedback,
                               &fb_resp)
                    .ok());
    EXPECT_EQ(fb_resp.arrival_index, obs.arrival_index);
    EXPECT_EQ(fb_resp.accepted, 1);
    ++accepted;
    EXPECT_EQ(fb_resp.events_submitted, accepted);
  }
  EXPECT_GT(completions, 0) << "degenerate workload: nothing ever completed";

  // Unknown feedback (never ranked on this connection) is not accepted.
  FeedbackResponseHead unknown;
  ASSERT_TRUE(client.value()
                  ->Feedback(/*arrival_index=*/999999, 0, crowdrl::Feedback{},
                             &unknown)
                  .ok());
  EXPECT_EQ(unknown.accepted, 0);

  // Daemon-side stats: every event learned (inline mode), transport
  // counters live. Client and daemon agree on the frame/byte accounting.
  ServiceStats stats;
  ASSERT_TRUE(client.value()->FetchStats(&stats).ok());
  EXPECT_EQ(stats.requests, kEvents);
  EXPECT_EQ(stats.events_submitted, kEvents);
  EXPECT_EQ(stats.events_processed, kEvents);
  EXPECT_EQ(stats.transport_connections, 1);
  // ... +1: the stats request itself is already counted as received.
  EXPECT_EQ(stats.transport_frames_in, client.value()->frames_sent());
  EXPECT_EQ(stats.transport_bytes_in, client.value()->bytes_sent());
  EXPECT_GT(stats.snapshot_version, uint64_t{kEvents});
}

TEST(LearnerDaemonTest, SnapshotFetchesAreVersionGated) {
  DaemonFixture fx("snapshot");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();

  bool changed = false;
  ASSERT_TRUE(actor->FetchSnapshot(0, &changed).ok());
  EXPECT_TRUE(changed);
  ASSERT_NE(actor->replica(), nullptr);
  EXPECT_GT(actor->replica_version(), 0u);
  ASSERT_NE(actor->replica()->worker.online, nullptr);

  // Nothing learned since: the refetch is headers-only and keeps the
  // existing replica.
  const std::shared_ptr<const PolicySnapshot> before = actor->replica();
  ASSERT_TRUE(actor->FetchSnapshot(0, &changed).ok());
  EXPECT_FALSE(changed);
  EXPECT_EQ(actor->replica(), before);

  // One learned event bumps the published version; the next fetch sees it.
  Rng rng(5);
  const Observation obs = fx.workload.MakeObservation(0, &rng);
  DecodedRankResponse rank;
  ASSERT_TRUE(actor->Rank(obs, true, &rank).ok());
  FeedbackResponseHead fb_resp;
  ASSERT_TRUE(actor
                  ->Feedback(obs.arrival_index, obs.worker,
                             fx.workload.SimulateFeedback(obs, rank.ranking,
                                                          &rng),
                             &fb_resp)
                  .ok());
  ASSERT_TRUE(actor->FetchSnapshot(0, &changed).ok());
  EXPECT_TRUE(changed);
  EXPECT_GT(actor->replica_version(), before->version);

  // Fetching a shard that does not exist is a typed remote error (and is
  // rejected before the fetch counter, so only the 3 served fetches count).
  EXPECT_EQ(actor->FetchSnapshot(7).code(), StatusCode::kInvalidArgument);

  ServiceStats stats;
  ASSERT_TRUE(actor->FetchStats(&stats).ok());
  EXPECT_EQ(stats.transport_snapshot_fetches, 3);
}

TEST(LearnerDaemonTest, ScoringActorShipsTransitionsUpstream) {
  DaemonFixture fx("scoring_actor");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();

  // The remote actor: a local framework replica over the same (shared,
  // physically immutable) workload, scored against the fetched snapshot.
  TaskArrangementFramework local(
      SmallFrameworkConfig(), &fx.workload, fx.workload.worker_feature_dim(),
      fx.workload.task_feature_dim());
  ASSERT_TRUE(actor->FetchSnapshot(0).ok());

  constexpr int kEvents = 10;
  Rng rng(321);
  int64_t shipped = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Observation obs = fx.workload.MakeObservation(i, &rng);
    local.OnArrival(obs);
    const ScoringView view = actor->replica()->View();
    const DecisionContext ctx = local.BuildDecision(obs);
    const std::vector<double> scores = local.ScoreDecision(ctx, view);
    const std::vector<int> ranking = local.RankDecision(obs, ctx, scores);
    const crowdrl::Feedback feedback =
        fx.workload.SimulateFeedback(obs, ranking, &rng);
    const TransitionBlocks blocks =
        local.MakeTransitions(obs, ctx, ranking, feedback, view);
    if (blocks.empty()) continue;
    shipped += static_cast<int64_t>(blocks.size());
    FeedbackResponseHead resp;
    ASSERT_TRUE(actor
                    ->SubmitTransitions(obs.arrival_index, obs.worker,
                                        feedback, blocks, &resp)
                    .ok());
    EXPECT_EQ(resp.accepted, 1);
    // The learner publishes as it learns: refresh the replica like a real
    // scoring actor would.
    ASSERT_TRUE(actor->FetchSnapshot(0).ok());
  }
  ASSERT_GT(shipped, 0);

  ServiceStats stats;
  ASSERT_TRUE(actor->FetchStats(&stats).ok());
  EXPECT_EQ(stats.transport_remote_transitions, shipped);
  EXPECT_GT(stats.events_processed, 0);
  EXPECT_EQ(stats.requests, 0) << "scoring actors never hit the rank queue";
  EXPECT_GT(stats.replay_transitions, 0);
}

TEST(LearnerDaemonTest, UnfitTransitionBlocksAreRefusedAndLearningGoesOn) {
  // A worker-benefit learner: its requester MDP has no agent.
  FrameworkConfig cfg = SmallFrameworkConfig();
  cfg.objective = Objective::kWorkerBenefit;
  DaemonFixture fx("refused_blocks", /*num_shards=*/1, cfg);
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();
  TaskArrangementFramework local(cfg, &fx.workload,
                                 fx.workload.worker_feature_dim(),
                                 fx.workload.task_feature_dim());
  ASSERT_TRUE(actor->FetchSnapshot(0).ok());

  // Each unfit block is well-formed on the wire. Let through, it would
  // CHECK-fail the learner step (or, for the disabled MDP, dereference its
  // null agent).
  const auto submit = [&](const Observation& obs,
                          const crowdrl::Feedback& feedback,
                          const TransitionBlocks& blocks) {
    FeedbackResponseHead resp;
    EXPECT_TRUE(actor
                    ->SubmitTransitions(obs.arrival_index, obs.worker,
                                        feedback, blocks, &resp)
                    .ok());
    return resp.accepted;
  };
  Rng rng(321);
  // Only accepted blocks count toward transport_remote_transitions.
  int64_t accepted = 0, shipped = 0;
  bool refused = false;
  for (int i = 0; i < 20; ++i) {
    const Observation obs = fx.workload.MakeObservation(i, &rng);
    local.OnArrival(obs);
    const ScoringView view = actor->replica()->View();
    const DecisionContext ctx = local.BuildDecision(obs);
    const std::vector<int> ranking =
        local.RankDecision(obs, ctx, local.ScoreDecision(ctx, view));
    const crowdrl::Feedback feedback =
        fx.workload.SimulateFeedback(obs, ranking, &rng);
    const TransitionBlocks blocks =
        local.MakeTransitions(obs, ctx, ranking, feedback, view);
    if (blocks.empty()) continue;
    ASSERT_TRUE(blocks.requester.empty());
    if (!refused) {
      TransitionBlocks narrow;
      narrow.worker.push_back(blocks.worker[0]);
      Matrix& state = narrow.worker[0].state;
      state = Matrix(state.rows(), state.cols() - 1);
      EXPECT_EQ(submit(obs, feedback, narrow), 0) << "wrong width";
      TransitionBlocks disabled;
      disabled.requester = blocks.worker;
      EXPECT_EQ(submit(obs, feedback, disabled), 0) << "disabled MDP";
      refused = true;
    }
    ASSERT_EQ(submit(obs, feedback, blocks), 1);
    ++accepted;
    shipped += static_cast<int64_t>(blocks.size());
    ASSERT_TRUE(actor->FetchSnapshot(0).ok());
  }
  ASSERT_TRUE(refused);

  ServiceStats stats;
  ASSERT_TRUE(actor->FetchStats(&stats).ok());
  EXPECT_EQ(stats.blocks_refused, 2);
  EXPECT_EQ(stats.events_submitted, accepted);
  EXPECT_EQ(stats.events_processed, accepted);
  EXPECT_EQ(stats.transport_remote_transitions, shipped);
  int64_t learn_steps = 0;
  ASSERT_TRUE(fx.service->shard(0)
                  ->RunOnLearner([&] {
                    learn_steps = fx.service->shard(0)
                                      ->framework()
                                      ->worker_agent()
                                      ->learn_steps();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_GT(learn_steps, 0);
}

TEST(LearnerDaemonTest, MalformedBodyGetsTypedErrorAndConnectionSurvives) {
  DaemonFixture fx("malformed");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<FdHandle> conn = ConnectUnix(fx.socket_path);
  ASSERT_TRUE(conn.ok());

  // A rank request whose body is 3 bytes of garbage: typed error frame.
  ASSERT_TRUE(SendFrame(conn->fd(), MsgType::kRankRequest, 1, "abc").ok());
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(RecvFrame(conn->fd(), &header, &body).ok());
  ASSERT_EQ(static_cast<MsgType>(header.type), MsgType::kError);
  EXPECT_EQ(header.seq, 1u);
  EXPECT_EQ(ParseError(body.data(), body.size()).code(),
            StatusCode::kOutOfRange);  // truncated

  // A response type sent as a request: rejected, connection still alive.
  ASSERT_TRUE(SendFrame(conn->fd(), MsgType::kRankResponse, 2, "").ok());
  ASSERT_TRUE(RecvFrame(conn->fd(), &header, &body).ok());
  EXPECT_EQ(static_cast<MsgType>(header.type), MsgType::kError);

  // ...and a well-formed request on the same connection still works.
  ASSERT_TRUE(SendFrame(conn->fd(), MsgType::kStatsRequest, 3, "").ok());
  ASSERT_TRUE(RecvFrame(conn->fd(), &header, &body).ok());
  EXPECT_EQ(static_cast<MsgType>(header.type), MsgType::kStatsResponse);
  EXPECT_EQ(header.seq, 3u);
}

TEST(LearnerDaemonTest, UntrustedHeaderDropsConnection) {
  DaemonFixture fx("bad_magic");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<FdHandle> conn = ConnectUnix(fx.socket_path);
  ASSERT_TRUE(conn.ok());
  FrameHeader bad;
  bad.magic = 0;
  bad.type = static_cast<uint16_t>(MsgType::kStatsRequest);
  ASSERT_TRUE(WriteAll(conn->fd(), &bad, sizeof(bad)).ok());
  // The daemon reports the fault (best-effort) and closes; the socket
  // eventually reads EOF rather than hanging.
  FrameHeader header;
  std::string body;
  Status st = RecvFrame(conn->fd(), &header, &body);
  if (st.ok()) {
    // The error frame arrived; the next read observes the close.
    EXPECT_EQ(static_cast<MsgType>(header.type), MsgType::kError);
    st = RecvFrame(conn->fd(), &header, &body);
  }
  EXPECT_FALSE(st.ok());
}

TEST(LearnerDaemonTest, ShmUpgradeServesTheFullRequestSurface) {
  DaemonFixture fx("shm_upgrade");
  ASSERT_TRUE(fx.daemon->Start().ok());
  ActorClient::TransportOptions transport;
  transport.kind = ActorClient::TransportOptions::Kind::kShm;
  transport.ring_capacity = kMinShmRingCapacity;
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path, transport);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();
  EXPECT_STREQ(actor->transport_name(), "shm");

  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    const Observation obs = fx.workload.MakeObservation(i, &rng);
    DecodedRankResponse rank;
    ASSERT_TRUE(actor->Rank(obs, true, &rank).ok());
    FeedbackResponseHead fb_resp;
    ASSERT_TRUE(actor
                    ->Feedback(obs.arrival_index, obs.worker,
                               fx.workload.SimulateFeedback(obs, rank.ranking,
                                                            &rng),
                               &fb_resp)
                    .ok());
    ASSERT_EQ(fb_resp.accepted, 1);
  }
  // Snapshot frames are far larger than the 4 KiB ring: they stream
  // through backpressure rather than failing or widening the segment.
  ASSERT_TRUE(actor->FetchSnapshot(0).ok());
  ASSERT_NE(actor->replica(), nullptr);

  ServiceStats stats;
  ASSERT_TRUE(actor->FetchStats(&stats).ok());
  EXPECT_EQ(stats.events_processed, 12);
  EXPECT_EQ(stats.transport_shm_connections, 1);
  EXPECT_EQ(stats.transport_ring_capacity,
            static_cast<int64_t>(kMinShmRingCapacity));
  // Frame accounting is transport-blind: the daemon counted the ring
  // frames exactly as it would socket frames, plus the one bootstrap
  // kShmSetupRequest the client sent before its RPC counters existed.
  EXPECT_EQ(stats.transport_frames_in, actor->frames_sent() + 1);
  EXPECT_EQ(stats.transport_bytes_in,
            actor->bytes_sent() +
                static_cast<int64_t>(sizeof(FrameHeader) +
                                     sizeof(ShmSetupRequestHead)));
}

TEST(LearnerDaemonTest, SecondShmUpgradeIsRejectedButRingSurvives) {
  DaemonFixture fx("shm_double");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<FdHandle> conn = ConnectUnix(fx.socket_path);
  ASSERT_TRUE(conn.ok());
  Result<std::unique_ptr<ShmTransport>> ring =
      ShmConnectClient(conn->fd(), kMinShmRingCapacity);
  ASSERT_TRUE(ring.ok());
  ShmTransport* transport = ring.value().get();

  // A second setup request arrives over the ring itself; the daemon
  // answers with a typed error frame on the ring and keeps serving.
  std::string body;
  AppendShmSetupRequest(kMinShmRingCapacity, &body);
  ASSERT_TRUE(
      transport->SendFrame(MsgType::kShmSetupRequest, 5, body).ok());
  FrameHeader header;
  std::string resp;
  ASSERT_TRUE(transport->RecvFrame(&header, &resp).ok());
  ASSERT_EQ(static_cast<MsgType>(header.type), MsgType::kError);
  EXPECT_EQ(header.seq, 5u);
  EXPECT_EQ(ParseError(resp.data(), resp.size()).code(),
            StatusCode::kFailedPrecondition);

  // The rejected upgrade did not wedge or double-count the connection.
  ASSERT_TRUE(transport->SendFrame(MsgType::kStatsRequest, 6, "").ok());
  ASSERT_TRUE(transport->RecvFrame(&header, &resp).ok());
  ASSERT_EQ(static_cast<MsgType>(header.type), MsgType::kStatsResponse);
  ServiceStats stats;
  ASSERT_TRUE(ParseStats(resp.data(), resp.size(), &stats).ok());
  EXPECT_EQ(stats.transport_shm_connections, 1);
}

TEST(LearnerDaemonTest, HostileShmCapacityGetsTypedErrorOnTheSocket) {
  DaemonFixture fx("shm_hostile");
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<FdHandle> conn = ConnectUnix(fx.socket_path);
  ASSERT_TRUE(conn.ok());

  // Non-power-of-two capacity: rejected at parse time (kMalformed ⇒
  // InvalidArgument), no segment is ever created, and the socket keeps
  // serving — the actor can retry with a sane geometry or stay on uds.
  std::string body;
  AppendShmSetupRequest(kMinShmRingCapacity + 1, &body);
  ASSERT_TRUE(SendFrame(conn->fd(), MsgType::kShmSetupRequest, 1, body).ok());
  FrameHeader header;
  std::string resp;
  ASSERT_TRUE(RecvFrame(conn->fd(), &header, &resp).ok());
  ASSERT_EQ(static_cast<MsgType>(header.type), MsgType::kError);
  EXPECT_EQ(ParseError(resp.data(), resp.size()).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(SendFrame(conn->fd(), MsgType::kStatsRequest, 2, "").ok());
  ASSERT_TRUE(RecvFrame(conn->fd(), &header, &resp).ok());
  ASSERT_EQ(static_cast<MsgType>(header.type), MsgType::kStatsResponse);
  ServiceStats stats;
  ASSERT_TRUE(ParseStats(resp.data(), resp.size(), &stats).ok());
  EXPECT_EQ(stats.transport_shm_connections, 0);
}

TEST(LearnerDaemonTest, ShutdownRequestIsObservable) {
  DaemonFixture fx("shutdown");
  ASSERT_TRUE(fx.daemon->Start().ok());
  EXPECT_FALSE(fx.daemon->shutdown_requested());
  EXPECT_FALSE(fx.daemon->WaitForShutdown(/*timeout_ms=*/10));

  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->RequestShutdown().ok());
  EXPECT_TRUE(fx.daemon->shutdown_requested());
  EXPECT_TRUE(fx.daemon->WaitForShutdown(/*timeout_ms=*/1000));
}

TEST(LearnerDaemonTest, ShardedDaemonRoutesByWorker) {
  DaemonFixture fx("sharded", /*num_shards=*/2);
  ASSERT_TRUE(fx.daemon->Start().ok());
  Result<std::unique_ptr<ActorClient>> client =
      ActorClient::Connect(fx.socket_path);
  ASSERT_TRUE(client.ok());
  ActorClient* actor = client.value().get();

  Rng rng(55);
  for (int i = 0; i < 24; ++i) {
    const Observation obs = fx.workload.MakeObservation(i, &rng);
    DecodedRankResponse rank;
    ASSERT_TRUE(actor->Rank(obs, true, &rank).ok());
    FeedbackResponseHead fb_resp;
    ASSERT_TRUE(actor
                    ->Feedback(obs.arrival_index, obs.worker,
                               fx.workload.SimulateFeedback(obs, rank.ranking,
                                                            &rng),
                               &fb_resp)
                    .ok());
    ASSERT_EQ(fb_resp.accepted, 1);
  }
  // Both shards' snapshots are independently fetchable.
  ASSERT_TRUE(actor->FetchSnapshot(0).ok());
  ASSERT_TRUE(actor->FetchSnapshot(1).ok());

  // With 24 arrivals over 16 workers and a splitmix64 router, both shards
  // saw traffic (deterministic for this seed).
  const ShardedServiceStats stats = fx.service->stats();
  EXPECT_EQ(stats.aggregate.events_processed, 24);
  EXPECT_GT(stats.per_shard[0].requests, 0);
  EXPECT_GT(stats.per_shard[1].requests, 0);
}

}  // namespace
}  // namespace net
}  // namespace crowdrl
