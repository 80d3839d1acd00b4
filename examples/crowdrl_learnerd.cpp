// crowdrl_learnerd — the learner daemon: a sharded arrangement service
// exposed to other processes over a UNIX-domain socket.
//
// The daemon owns the learners; actor processes (see crowdrl_actor)
// connect as clients and either forward observations for server-side
// scoring or pull policy-snapshot replicas, score locally and ship
// transitions upstream. Stop it with an actor's --shutdown, SIGTERM-free:
// shutdown is a protocol message, so supervisors and tests get a clean
// drain (every flushed event learned) instead of a kill.
//
//   ./build/examples/crowdrl_learnerd --socket=/tmp/crowdrl.sock
//   ./build/examples/crowdrl_learnerd --shards=2 --max_runtime_s=60
//
// Exits 0 iff the drained service learned every submitted event.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "net/learner_daemon.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"

using namespace crowdrl;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string socket_path = flags.GetString(
      "socket", "/tmp/crowdrl_learnerd.sock", "UNIX-domain socket path");
  const int shards = static_cast<int>(
      flags.GetInt("shards", 1, "learner/replica shards behind the router"));
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7, "master seed"));
  const int64_t hidden =
      flags.GetInt("hidden", 32, "Q-network hidden width");
  const int64_t publish_every = flags.GetInt(
      "publish_every", 4, "snapshot publication cadence (feedback events)");
  const int64_t max_runtime_s = flags.GetInt(
      "max_runtime_s", -1,
      "stop after this many seconds even without a shutdown request "
      "(negative = wait for the protocol shutdown only)");
  // The workload population must match the actors': feature dimensions are
  // part of the wire contract (a mismatched actor gets typed errors).
  ServeWorkloadConfig workload_cfg;
  workload_cfg.num_workers = static_cast<int>(
      flags.GetInt("workers", 64, "worker population of the workload"));
  workload_cfg.num_tasks = static_cast<int>(
      flags.GetInt("tasks", 64, "task population of the workload"));
  workload_cfg.pool_size = static_cast<int>(
      flags.GetInt("pool", 12, "available tasks per arrival (|T_i|)"));
  workload_cfg.seed = seed ^ 0x5EEDULL;
  if (flags.HelpRequested()) {
    flags.PrintHelp();
    return 0;
  }

  const ServeWorkload workload(workload_cfg);

  FrameworkConfig fw_cfg = FrameworkConfig::Defaults();
  fw_cfg.worker_dqn.net.hidden_dim = static_cast<size_t>(hidden);
  fw_cfg.requester_dqn.net.hidden_dim = static_cast<size_t>(hidden);
  fw_cfg.worker_dqn.learn_every = 8;
  fw_cfg.requester_dqn.learn_every = 8;
  fw_cfg.predictor.max_segments = 2;
  fw_cfg.max_failed_stored = 0;
  fw_cfg.learn_from_history = false;
  fw_cfg.seed = seed;

  ServiceConfig service_cfg;
  service_cfg.publish_every_events = publish_every;

  auto service = ShardedArrangementService::Create(
      fw_cfg, &workload, workload.worker_feature_dim(),
      workload.task_feature_dim(), shards, service_cfg);
  service->Start();

  net::LearnerDaemon daemon(service.get(), socket_path);
  const Status start = daemon.Start();
  if (!start.ok()) {
    std::fprintf(stderr, "crowdrl_learnerd: %s\n", start.message().c_str());
    service->Stop();
    return 2;
  }
  std::printf("crowdrl_learnerd: serving %d shard(s) on %s\n", shards,
              socket_path.c_str());
  std::fflush(stdout);

  const bool requested = daemon.WaitForShutdown(
      max_runtime_s < 0 ? -1 : static_cast<int>(max_runtime_s * 1000));
  std::printf("crowdrl_learnerd: %s, draining...\n",
              requested ? "shutdown requested" : "max runtime reached");
  daemon.Stop();
  service->Stop();  // drains every shard's learner

  const ServiceStats stats = daemon.Stats();
  const bool all_learned = stats.events_processed == stats.events_submitted;
  std::printf("crowdrl_learnerd:");
  ServiceStats::ForEachField([&](const char* name, auto field) {
    std::printf(" %s=%s", name, std::to_string(stats.*field).c_str());
  });
  std::printf(" all_learned=%d\n", all_learned ? 1 : 0);
  return all_learned ? 0 : 1;
}
