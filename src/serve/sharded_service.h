#ifndef CROWDRL_SERVE_SHARDED_SERVICE_H_
#define CROWDRL_SERVE_SHARDED_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/sharding.h"
#include "serve/shard.h"

namespace crowdrl {

/// Deployment-wide counters: the per-shard ServiceStats plus their merged
/// aggregate (counters summed; latency percentiles merged from the raw
/// per-shard accumulators, not averaged from per-shard percentiles, so the
/// aggregate tail is the tail of the union of all rank latencies).
struct ShardedServiceStats {
  ServiceStats aggregate;
  std::vector<ServiceStats> per_shard;
};

/// \brief The arrangement service: S independent ServiceShards behind a
/// deterministic worker→shard hash. It is the one serving front door; a
/// single-shard deployment is this class with S = 1.
///
/// Each shard is a full (framework, learner, micro-batched rank queue,
/// snapshot chain) stack over a *disjoint worker partition*: ShardOfWorker
/// (core/sharding.h) pins every worker to one shard by a stable hash of
/// its id — the same function behind ShardEnvView::Owns — so that worker's
/// sessions, rank requests, arrival statistics and feedback stream always
/// meet the same learner and the same replay memory. Shards share nothing
/// but the read-only environment — no cross-shard locks, no cross-shard
/// gradient traffic — so serving and learning scale with S until the
/// machine runs out of cores (each shard runs its own learner thread on
/// top of the shared inference pool; ranks are scored on the callers'
/// threads).
///
/// With S = 1 every worker maps to shard 0, and with one inline actor the
/// service is bit-for-bit the serial framework (equivalence-tested). S > 1
/// runs are deterministic for a fixed seed and shard count under a single
/// driver; per-shard models differ from the S = 1 model because each
/// learner sees only its own partition's feedback (that independence is
/// the scaling trade-off, cf. bandit-per-population task assignment).
class ShardedArrangementService {
 public:
  /// Non-owning: `frameworks[k]` serves shard k and must outlive the
  /// service; one ServiceShard is built around each with `shard_config`.
  explicit ShardedArrangementService(
      std::vector<TaskArrangementFramework*> frameworks,
      const ServiceConfig& shard_config = {});

  /// Owning: builds `num_shards` frameworks from the shared base config
  /// via BuildShardFrameworks (per-shard seed streams, partitioned env
  /// views) and keeps them alive for the service's lifetime.
  static std::unique_ptr<ShardedArrangementService> Create(
      const FrameworkConfig& base, const EnvView* env,
      size_t worker_feature_dim, size_t task_feature_dim, int num_shards,
      const ServiceConfig& shard_config = {});

  ShardedArrangementService(const ShardedArrangementService&) = delete;
  ShardedArrangementService& operator=(const ShardedArrangementService&) =
      delete;
  ~ShardedArrangementService();

  /// Starts / stops every shard. Same one-shot lifecycle as a single
  /// shard: Stop drains all queues, and a stopped service stays stopped.
  void Start();
  void Stop();
  bool started() const { return started_; }

  size_t num_shards() const { return shards_.size(); }
  ServiceShard* shard(size_t k) { return shards_[k].get(); }
  const ServiceShard* shard(size_t k) const { return shards_[k].get(); }
  /// The shard `worker` is pinned to (pure, stable): the shard whose
  /// ShardEnvView owns it.
  size_t ShardOf(WorkerId worker) const {
    return static_cast<size_t>(
        ShardOfWorker(worker, static_cast<int>(shards_.size())));
  }

  /// Routes the arrival to its owner shard's arrival statistic. Arrival
  /// times must be nondecreasing across all callers per shard (a single
  /// global nondecreasing driver satisfies every shard at once).
  void RecordArrival(const Observation& obs);

  /// Decision state handed back with feedback; remembers the shard that
  /// ranked, so feedback reaches the same learner without re-routing.
  struct Ticket {
    ServiceShard::Ticket inner;
    size_t shard = 0;
  };

  /// \brief One actor's handle onto the sharded service: a lazily-opened
  /// inner Session per shard, with Rank/Feedback routed by worker id.
  /// Not thread-safe — one Session per actor thread.
  class Session {
   public:
    /// Routes to the owner shard and ranks there (micro-batched with all
    /// concurrent requests of that shard). Shed and post-shutdown
    /// requests get the shard's observation-order fallback.
    std::vector<int> Rank(const Observation& obs, Ticket* ticket);

    /// Hands feedback to the shard that made the decision.
    void Feedback(const Observation& obs, const Ticket& ticket,
                  const std::vector<int>& ranking,
                  const crowdrl::Feedback& feedback);

    /// Flushes every opened inner session's partial block.
    bool Flush();

   private:
    friend class ShardedArrangementService;
    explicit Session(ShardedArrangementService* service);

    ServiceShard::Session* SessionFor(size_t shard);

    ShardedArrangementService* service_;
    std::vector<std::unique_ptr<ServiceShard::Session>> per_shard_;
  };

  std::unique_ptr<Session> NewSession();

  /// Routes externally minted transition blocks (a remote actor scoring
  /// against a snapshot replica) to `worker`'s owner shard — the same
  /// routing invariant as Rank/Feedback, so a worker's remote experience
  /// meets the same learner as its in-process experience would.
  bool SubmitTransitions(WorkerId worker, TransitionBlocks blocks) {
    return shards_[ShardOf(worker)]->SubmitTransitions(std::move(blocks));
  }

  /// Checkpoints every shard: shard k writes `path` + ".shard<k>". The
  /// set restores only into a service with the same shard count.
  Status SaveState(const std::string& path);
  Status LoadState(const std::string& path);

  /// Publishes a fresh snapshot on every shard (learner contexts).
  void PublishNow();

  ShardedServiceStats stats() const;

 private:
  ShardSet owned_;  ///< non-empty only for Create()-built services
  std::vector<std::unique_ptr<ServiceShard>> shards_;
  /// Serializes Start/Stop (a concurrent Stop pair would race the shards'
  /// sequential drain); `started_` is atomic so lock-free started() reads
  /// from other threads are well-defined.
  Mutex lifecycle_mu_;
  std::atomic<bool> started_{false};
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SHARDED_SERVICE_H_
