#ifndef CROWDRL_SERVE_SHARD_H_
#define CROWDRL_SERVE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/framework.h"
#include "rl/local_buffer.h"
#include "serve/snapshot.h"

namespace crowdrl {

/// Tuning knobs of one arrangement-service shard.
struct ServiceConfig {
  /// Micro-batching: the batch leader takes up to `max_batch` queued Rank
  /// requests and scores them against a single snapshot in one batched
  /// inference pass (0 is taken as 1).
  size_t max_batch = 16;
  /// Straggler window, applied only under load: after a batch of two or
  /// more requests the next leader waits at most this long for more to
  /// arrive; after a batch of one (and for the first batch) it takes what
  /// is queued and scores it at once. Open loop at 200 arrivals/s the
  /// window caught a second request in 0.2-1.8% of batches (mean batch
  /// 1.002-1.018) while every rank waited it out. Closed loop, batches
  /// still coalesce (mean 3.1 at 4 actors, 4.0 at 8).
  int64_t batch_window_us = 200;
  /// Bound on queued rank requests (backpressure on actors).
  size_t request_queue_capacity = 1024;
  /// Bound on queued transition blocks awaiting the learner.
  size_t learner_queue_capacity = 256;
  /// Per-session local buffer: feedback events accumulate locally and
  /// flush to the learner in blocks of this many events.
  size_t flush_block_events = 4;
  /// Publish a fresh parameter snapshot every this many learned feedback
  /// events (1 = after every event, the paper's per-feedback cadence).
  int64_t publish_every_events = 1;
  /// Synchronous learning: feedback is learned on the calling thread
  /// (under the learner lock) instead of a dedicated learner thread.
  /// With one actor this reproduces the serial framework bit-for-bit —
  /// the equivalence tests rely on it.
  bool inline_learning = false;

  // ---- admission control / load shedding ----
  /// Per-request enqueue budget in microseconds: a Rank waits at most this
  /// long for request-queue space, then is *shed* — answered immediately
  /// in observation order and counted in ServiceStats::shed, never
  /// silently dropped. Negative (default) = block until space (pure
  /// backpressure, the pre-admission-control behaviour); 0 = shed on the
  /// first full check.
  int64_t enqueue_budget_us = -1;
};

/// Shard-level counters and latency percentiles (see stats()).
/// ForEachField is the one list of the fields: the stats frame, the sharded
/// sum, the bench JSON and the daemon summary all walk it. Its order is the
/// kStatsResponse body layout (net/wire.h), one 8-byte field after another,
/// so adding or reordering a field means a kWireVersion bump.
struct ServiceStats {
  int64_t requests = 0;        ///< rank requests scored by the batch leader
  int64_t rejected = 0;        ///< rank requests after shutdown (fallback)
  int64_t shed = 0;            ///< rank requests shed by admission control
  int64_t batches = 0;         ///< micro-batches executed
  double mean_batch_size = 0;  ///< requests / batches
  int64_t events_submitted = 0;  ///< feedback events entering the pipeline
  int64_t events_processed = 0;  ///< feedback events learned
  int64_t blocks_dropped = 0;    ///< flush blocks rejected after shutdown
  int64_t blocks_refused = 0;    ///< SubmitTransitions blocks refused as unfit
  /// Replay capacity planning: transitions resident in (and approximate
  /// bytes held by) the agents' replay buffers, summed over both MDPs.
  int64_t replay_transitions = 0;
  int64_t replay_bytes = 0;
  uint64_t snapshot_version = 0;
  int64_t snapshot_nets_copied = 0;  ///< nets deep-copied by publication
  int64_t snapshot_nets_shared = 0;  ///< nets reused via delta-publication
  int64_t rank_count = 0;
  double rank_latency_mean_ms = 0;
  double rank_latency_p50_ms = 0;
  double rank_latency_p95_ms = 0;
  double rank_latency_p99_ms = 0;
  double rank_latency_max_ms = 0;

  // ---- transport (filled by the net-layer daemon; zero for in-process
  // services — the shard itself never touches a socket) ----
  int64_t transport_connections = 0;          ///< client connections accepted
  int64_t transport_connections_dropped = 0;  ///< torn down by daemon Stop
  int64_t transport_frames_in = 0;
  int64_t transport_frames_out = 0;
  int64_t transport_bytes_in = 0;
  int64_t transport_bytes_out = 0;
  int64_t transport_snapshot_fetches = 0;
  /// Transitions of accepted blocks shipped by remote actors that scored
  /// locally against a snapshot replica (FeedbackMode::kClientTransitions).
  int64_t transport_remote_transitions = 0;
  /// Connections upgraded from the bootstrap socket onto a shared-memory
  /// ring pair (kShmSetupRequest accepted).
  int64_t transport_shm_connections = 0;
  /// Per-direction ring bytes of the largest accepted segment.
  int64_t transport_ring_capacity = 0;
  /// Ring wait episodes (send side full + recv side empty), summed over
  /// finished shm connections — backpressure visibility.
  int64_t transport_ring_stalls = 0;
  /// Syscalls (yields + sleeps + liveness polls) spent waiting on rings;
  /// zero in steady state with live peers, by design and by test.
  int64_t transport_ring_wait_syscalls = 0;

  /// Calls `fn(name, &ServiceStats::field)` once per field, in declaration
  /// order.
  template <typename Fn>
  static void ForEachField(Fn&& fn) {
    fn("requests", &ServiceStats::requests);
    fn("rejected", &ServiceStats::rejected);
    fn("shed", &ServiceStats::shed);
    fn("batches", &ServiceStats::batches);
    fn("mean_batch_size", &ServiceStats::mean_batch_size);
    fn("events_submitted", &ServiceStats::events_submitted);
    fn("events_processed", &ServiceStats::events_processed);
    fn("blocks_dropped", &ServiceStats::blocks_dropped);
    fn("blocks_refused", &ServiceStats::blocks_refused);
    fn("replay_transitions", &ServiceStats::replay_transitions);
    fn("replay_bytes", &ServiceStats::replay_bytes);
    fn("snapshot_version", &ServiceStats::snapshot_version);
    fn("snapshot_nets_copied", &ServiceStats::snapshot_nets_copied);
    fn("snapshot_nets_shared", &ServiceStats::snapshot_nets_shared);
    fn("rank_count", &ServiceStats::rank_count);
    fn("rank_latency_mean_ms", &ServiceStats::rank_latency_mean_ms);
    fn("rank_latency_p50_ms", &ServiceStats::rank_latency_p50_ms);
    fn("rank_latency_p95_ms", &ServiceStats::rank_latency_p95_ms);
    fn("rank_latency_p99_ms", &ServiceStats::rank_latency_p99_ms);
    fn("rank_latency_max_ms", &ServiceStats::rank_latency_max_ms);
    fn("transport_connections", &ServiceStats::transport_connections);
    fn("transport_connections_dropped",
       &ServiceStats::transport_connections_dropped);
    fn("transport_frames_in", &ServiceStats::transport_frames_in);
    fn("transport_frames_out", &ServiceStats::transport_frames_out);
    fn("transport_bytes_in", &ServiceStats::transport_bytes_in);
    fn("transport_bytes_out", &ServiceStats::transport_bytes_out);
    fn("transport_snapshot_fetches",
       &ServiceStats::transport_snapshot_fetches);
    fn("transport_remote_transitions",
       &ServiceStats::transport_remote_transitions);
    fn("transport_shm_connections", &ServiceStats::transport_shm_connections);
    fn("transport_ring_capacity", &ServiceStats::transport_ring_capacity);
    fn("transport_ring_stalls", &ServiceStats::transport_ring_stalls);
    fn("transport_ring_wait_syscalls",
       &ServiceStats::transport_ring_wait_syscalls);
  }
};

/// Fills the rank_* fields of `out` from a rank-latency accumulator
/// (seconds in, milliseconds out).
void FillRankLatency(const PercentileAccumulator& latency, ServiceStats* out);

/// \brief One self-contained arrangement-service shard: a continuously-
/// learning framework behind a micro-batched rank queue, an actor/learner
/// split and a versioned snapshot chain.
///
/// ShardedArrangementService composes S of these, one per worker
/// partition; it is the serving front door, and this is the unit beneath
/// it. Per shard:
///
///  * N *actor* threads (one Session each) submit Rank requests into a
///    bounded MPMC queue and, at feedback time, mint prioritized-replay
///    transitions whose Bellman targets are computed against a published
///    parameter snapshot;
///  * the Rank callers batch their own requests (flat combining): the
///    caller that takes the shard's scoring lock is the *batch leader*. It
///    takes the queued requests (up to max_batch; after a batch of two or more
///    it also waits up to batch_window_us for stragglers, a lone request
///    is scored at once), scores the whole batch against a single
///    snapshot in one batched inference pass and fulfils every request in
///    it. Callers that find the lock taken park until their request is
///    fulfilled or the lead is handed to them. A lone rank on an idle shard
///    is scored on its caller's thread with no wake-up;
///  * per-actor LocalBuffers flush transition blocks into the learner
///    queue;
///  * one *learner* thread consumes the blocks, runs the existing DqnAgent
///    per-transition update cadence, and publishes immutable versioned
///    snapshots via atomic shared_ptr swap — actors never read live
///    parameters, so no lock is held across inference.
///
/// Thread-safety contract for the environment: the framework reads its
/// EnvView at transition-minting time (actor threads). Drive the shard
/// either from a single caller (the harness/ShardedServingPolicy flow) or
/// with an env whose reads are physically pure, e.g. the frozen-clock
/// ServeWorkload. Arrival statistics are internally guarded (writers
/// exclusive, predictor readers shared).
class ServiceShard {
 public:
  /// `framework` must outlive the shard. The shard takes over the learning
  /// side: do not call the framework's mutating Policy methods directly
  /// while the shard is started.
  explicit ServiceShard(TaskArrangementFramework* framework,
                        const ServiceConfig& config = {});
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Publishes the initial snapshot, launches the learner thread (none
  /// with inline_learning) and wakes the ranks queued before Start.
  void Start();

  /// Drains both queues (every accepted request is fulfilled, every
  /// flushed block learned) and joins the learner thread. Idempotent and
  /// final: the shard is one-shot (Start after Stop CHECK-fails — construct
  /// a fresh instance instead). Sessions should Flush() before Stop —
  /// blocks flushed afterwards are dropped and counted in
  /// ServiceStats::blocks_dropped.
  void Stop();

  bool started() const { return started_; }
  TaskArrangementFramework* framework() const { return framework_; }
  const ServiceConfig& config() const { return config_; }

  /// Feeds the "Worker Arrivals' Statistic" (thread-safe; writers are
  /// serialized against concurrent predictor reads). Arrival times must be
  /// nondecreasing across all callers of one shard.
  void RecordArrival(const Observation& obs);

  /// Decision state handed back with feedback — the shard keeps no
  /// per-decision state, so concurrent sessions never contend on it.
  struct Ticket {
    DecisionContext ctx;
    uint64_t snapshot_version = 0;
  };

  /// \brief One actor's handle onto the shard. Not thread-safe: one
  /// Session per actor thread (its LocalBuffer is single-producer).
  class Session {
   public:
    ~Session();

    /// Blocking up to the configured enqueue budget: enqueues the
    /// observation, then either leads a batch that scores it or parks
    /// until a leader has. Shed and post-shutdown requests return the
    /// observation order (a valid permutation) and are counted in shed /
    /// rejected.
    std::vector<int> Rank(const Observation& obs, Ticket* ticket);

    /// Mints this event's transitions against the current snapshot and
    /// buffers them toward the learner (flushed in blocks). With
    /// inline_learning the event is learned synchronously instead.
    void Feedback(const Observation& obs, const Ticket& ticket,
                  const std::vector<int>& ranking,
                  const crowdrl::Feedback& feedback);

    /// Flushes the partial block to the learner queue.
    bool Flush();

    int64_t events_submitted() const { return events_submitted_; }

   private:
    friend class ServiceShard;
    explicit Session(ServiceShard* shard);

    ServiceShard* shard_;
    LocalBuffer<TransitionBlocks> buffer_;
    int64_t events_submitted_ = 0;
  };

  std::unique_ptr<Session> NewSession();

  /// Hands one feedback event's worth of externally minted transitions to
  /// the learner — the upstream half of the remote-actor contract: a
  /// client that pulled a snapshot replica scores and mints locally, and
  /// ships only the blocks here (no observation, no decision context).
  /// Counts as one submitted event. Returns false, and enqueues nothing,
  /// for a block the learner cannot train on: a transition for an MDP the
  /// objective disables, or a state whose width is not its net's input
  /// width (counted in blocks_refused). Also returns false (counting the
  /// block as dropped) once the shard has stopped. Thread-safe.
  bool SubmitTransitions(TransitionBlocks blocks);

  /// Runs `fn` in the learner execution context (on the learner thread in
  /// async mode, under the learner lock otherwise) and returns its status.
  /// This is how anything that must not race with training — checkpointing,
  /// warm-up history replay, OnInitEnd — reaches the framework.
  Status RunOnLearner(std::function<Status()> fn);

  /// Checkpoints the framework without pausing the actors: the save runs
  /// in the learner context between gradient steps, so it always sees a
  /// consistent (not mid-update) parameter state.
  Status SaveState(const std::string& path);
  /// Restores a checkpoint in the learner context and republishes.
  Status LoadState(const std::string& path);

  /// Publishes a fresh snapshot immediately (learner context).
  void PublishNow();

  std::shared_ptr<const PolicySnapshot> CurrentSnapshot() const {
    return channel_.Load();
  }

  /// Counters and rank-latency percentiles. The percentiles come from a
  /// copy of the latency accumulator taken under the stats lock and sorted
  /// outside it; when `latency` is given, that copy is moved into it (the
  /// sharded aggregate merges it instead of copying again).
  ServiceStats stats(PercentileAccumulator* latency = nullptr) const;

  /// Copy of the rank-latency accumulator (seconds).
  PercentileAccumulator latency_accumulator() const;

 private:
  /// One queued rank, owned by the Rank() frame that waits for it. The
  /// leader that scores it writes the ranking and ticket, then sets `done`
  /// (under done_mu_); past that the request may be gone.
  struct RankRequest {
    const Observation* obs = nullptr;
    Ticket* ticket = nullptr;
    std::vector<int>* ranking = nullptr;
    bool done = false;  // guarded by done_mu_
    Stopwatch wait;
  };

  /// One learner-queue entry: either a batch of flushed transition blocks
  /// or a command to run in learner context.
  struct LearnerItem {
    std::vector<TransitionBlocks> blocks;
    std::function<Status()> command;
    std::promise<Status>* command_done = nullptr;
  };

  /// Leads batches (or parks) until `request` is fulfilled.
  void AwaitRanking(RankRequest* request);
  /// Batch leader: pops up to max_batch queued requests, scores them
  /// against one snapshot and fulfils them. The leader's own request
  /// (`self`, may be null) is only reported through `*served_self`; the
  /// others are marked done. Returns how many others it fulfilled (their
  /// callers need a done_cv_ wake); 0 with !*served_self iff the queue was
  /// empty.
  size_t LeadBatchLocked(const RankRequest* self, bool* served_self)
      CROWDRL_REQUIRES(score_mu_);
  void LearnerLoop();
  /// Learner context only (learner_mu_ held).
  void ApplyOneLocked(TransitionBlocks blocks) CROWDRL_REQUIRES(learner_mu_);
  void PublishLocked() CROWDRL_REQUIRES(learner_mu_);
  bool EnqueueBlocks(std::vector<TransitionBlocks>&& blocks);

  TaskArrangementFramework* framework_;
  ServiceConfig config_;

  SnapshotChannel channel_;
  /// Mutated only under learner_mu_ (via PublishLocked's REQUIRES); not
  /// GUARDED_BY because stats() reads its internal atomic counters
  /// lock-free, which the analysis would flag as a false positive.
  SnapshotBuilder builder_;
  BoundedQueue<RankRequest*> request_queue_;
  BoundedQueue<LearnerItem> learner_queue_;

  /// Guards the one-shot Start/Stop transition and the thread handle.
  /// Without it, two concurrent Stop() calls double-join, and Start()
  /// published `started_` before the handle was assigned. Lock order:
  /// lifecycle_mu_ → learner_mu_, and lifecycle_mu_ → score_mu_ →
  /// done_mu_ (no other thread takes lifecycle_mu_, so the order is
  /// acyclic).
  Mutex lifecycle_mu_;
  std::thread learner_ CROWDRL_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// Serializes learner-state mutation (training, snapshot copies,
  /// checkpoint IO) across the learner thread / inline feedback callers /
  /// post-shutdown command execution.
  Mutex learner_mu_;
  /// Arrival statistics: RecordArrival writes exclusively; transition
  /// minting (predictors) and checkpointing read under shared locks.
  SharedMutex arrivals_mu_;

  /// The scoring lock: its holder is the batch leader. Each batch slot
  /// keeps its warm DecisionContext and score vector across batches, so
  /// once every slot has seen its steady-state shape the scoring pass
  /// allocates nothing (the ticket receives a copy; the slot keeps its
  /// buffers).
  Mutex score_mu_;
  std::vector<RankRequest*> batch_ CROWDRL_GUARDED_BY(score_mu_);
  std::vector<DecisionContext> contexts_ CROWDRL_GUARDED_BY(score_mu_);
  std::vector<std::vector<double>> scores_ CROWDRL_GUARDED_BY(score_mu_);
  std::vector<double> latencies_ CROWDRL_GUARDED_BY(score_mu_);
  /// Size of the last batch (load-adaptive window, see batch_window_us).
  size_t last_batch_ CROWDRL_GUARDED_BY(score_mu_) = 1;

  /// Guards every queued RankRequest::done; callers waiting on one park on
  /// done_cv_. lead_epoch_ moves (under done_mu_) whenever a parked caller
  /// may take the lead: at Start and when a leader leaves requests queued.
  /// A caller reads it before its TryLock on score_mu_, so a hand-off
  /// after a failed TryLock is never missed.
  Mutex done_mu_;
  CondVar done_cv_;
  std::atomic<uint64_t> lead_epoch_{0};

  // ---- statistics ----
  mutable Mutex stats_mu_;
  PercentileAccumulator rank_latency_ CROWDRL_GUARDED_BY(stats_mu_);  // s
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> events_submitted_{0};
  std::atomic<int64_t> events_processed_{0};
  std::atomic<int64_t> blocks_dropped_{0};
  std::atomic<int64_t> blocks_refused_{0};
  std::atomic<uint64_t> snapshot_version_{0};
};

}  // namespace crowdrl

#endif  // CROWDRL_SERVE_SHARD_H_
