// Quickstart for the arrangement service (src/serve/): S independent
// (framework, learner, micro-batched rank queue, snapshot chain) shards
// behind a deterministic worker hash. Every worker is pinned to one
// shard by a stable hash of its id, so its rank requests and feedback
// always meet the same learner and replay stream — shards share nothing
// but the read-only environment, which is what lets serving *and*
// learning scale with S.
//
//   ./build/examples/sharding_demo                  # 2 shards, 4 actors
//   ./build/examples/sharding_demo --shards=1       # one actor/learner pair
//   ./build/examples/sharding_demo --shards=4 --arrivals=10000
//   ./build/examples/sharding_demo --budget_us=500  # admission control on
//   ./build/examples/sharding_demo --help           # the full flag surface
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "core/sharding.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"

using namespace crowdrl;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const int shards = static_cast<int>(
      flags.GetInt("shards", 2, "learner/replica shards (S)"));
  const int actors = static_cast<int>(
      flags.GetInt("actors", 4, "concurrent worker sessions (actor threads)"));
  const int64_t arrivals = flags.GetInt(
      "arrivals", 2000, "total arrivals to serve across all actors");
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7, "master seed"));
  const int64_t budget_us = flags.GetInt(
      "budget_us", -1,
      "per-request enqueue budget in µs (<0 = block, never shed)");
  if (flags.HelpRequested()) {
    flags.PrintHelp();
    return 0;
  }
  if (shards < 1 || actors < 1) {
    std::fprintf(stderr, "--shards and --actors must be >= 1\n");
    return 2;
  }

  // 1. A frozen-clock workload: fixed population, physically immutable
  //    observable state — safe to share across actors and shards.
  ServeWorkloadConfig workload_cfg;
  workload_cfg.seed = seed;
  const ServeWorkload workload(workload_cfg);

  // 2. One framework per shard, derived from a single base config: shard 0
  //    keeps the base seeds bit-for-bit, shards >= 1 get decorrelated seed
  //    streams; each learns only from the workers its partition owns.
  FrameworkConfig fw_cfg = FrameworkConfig::Defaults();
  fw_cfg.worker_dqn.net.hidden_dim = 32;
  fw_cfg.requester_dqn.net.hidden_dim = 32;
  fw_cfg.worker_dqn.learn_every = 8;
  fw_cfg.requester_dqn.learn_every = 8;
  fw_cfg.predictor.max_segments = 2;
  fw_cfg.max_failed_stored = 1;
  fw_cfg.learn_from_history = false;
  fw_cfg.seed = seed;

  // 3. The service: worker hash in front, S actor/learner stacks behind.
  ServiceConfig service_cfg;
  service_cfg.publish_every_events = 4;
  service_cfg.enqueue_budget_us = budget_us;
  auto service = ShardedArrangementService::Create(
      fw_cfg, &workload, workload.worker_feature_dim(),
      workload.task_feature_dim(), shards, service_cfg);
  service->Start();

  // Where did the worker hash put this population?
  std::vector<int> owned(static_cast<size_t>(shards), 0);
  for (WorkerId w = 0; w < workload.config().num_workers; ++w) {
    ++owned[service->ShardOf(w)];
  }
  std::printf("routing: %d workers over %d shards:",
              workload.config().num_workers, shards);
  for (int s = 0; s < shards; ++s) std::printf(" s%d=%d", s, owned[s]);
  std::printf("\nserving %lld arrivals across %d actor sessions...\n",
              static_cast<long long>(arrivals), actors);

  std::atomic<int64_t> ticket_counter{0};
  std::atomic<int64_t> completions{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(seed ^ (0xABCDULL + static_cast<uint64_t>(a) * 7919));
      auto session = service->NewSession();
      while (true) {
        const int64_t i = ticket_counter.fetch_add(1);
        if (i >= arrivals) break;
        const Observation obs = workload.MakeObservation(i, &rng);
        service->RecordArrival(obs);
        ShardedArrangementService::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        const Feedback fb = workload.SimulateFeedback(obs, ranking, &rng);
        if (fb.completed_pos >= 0) completions.fetch_add(1);
        session->Feedback(obs, ticket, ranking, fb);
      }
      session->Flush();
    });
  }
  for (auto& t : threads) t.join();
  service->Stop();
  const double wall_s = wall.ElapsedSeconds();

  const ShardedServiceStats stats = service->stats();
  std::printf("\n-- served (aggregate over %d shards) --\n", shards);
  std::printf("throughput        %.1f arrivals/s (%.2f s wall)\n",
              arrivals / wall_s, wall_s);
  std::printf("completions       %lld / %lld\n",
              static_cast<long long>(completions.load()),
              static_cast<long long>(arrivals));
  std::printf("rank latency      p50 %.3f ms   p95 %.3f ms   p99 %.3f ms\n",
              stats.aggregate.rank_latency_p50_ms,
              stats.aggregate.rank_latency_p95_ms,
              stats.aggregate.rank_latency_p99_ms);
  std::printf("admission         %lld served, %lld shed (degraded answers, "
              "counted — never dropped)\n",
              static_cast<long long>(stats.aggregate.requests),
              static_cast<long long>(stats.aggregate.shed));
  std::printf("\n-- per shard --\n");
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const ServiceStats& shard = stats.per_shard[s];
    std::printf(
        "shard %zu: %5lld ranks  %5lld events  %4lld batches  p95 %.3f ms  "
        "snapshot v%llu\n",
        s, static_cast<long long>(shard.requests),
        static_cast<long long>(shard.events_processed),
        static_cast<long long>(shard.batches), shard.rank_latency_p95_ms,
        static_cast<unsigned long long>(shard.snapshot_version));
  }
  std::printf("\nEach shard learned exactly its own partition's feedback "
              "(%lld events total == %lld submitted).\n",
              static_cast<long long>(stats.aggregate.events_processed),
              static_cast<long long>(stats.aggregate.events_submitted));
  return 0;
}
