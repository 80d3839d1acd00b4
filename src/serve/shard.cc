#include "serve/shard.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"

namespace crowdrl {

namespace {
/// Reservoir bound of the rank-latency percentile accumulator.
constexpr size_t kLatencyMaxSamples = size_t{1} << 20;

/// Observation order: the permutation served to shed and post-shutdown
/// requests.
std::vector<int> ObservationOrder(const Observation& obs) {
  std::vector<int> ranking(obs.tasks.size());
  std::iota(ranking.begin(), ranking.end(), 0);
  return ranking;
}
}  // namespace

ServiceShard::ServiceShard(TaskArrangementFramework* framework,
                           const ServiceConfig& config)
    : framework_(framework),
      config_(config),
      request_queue_(config.request_queue_capacity),
      learner_queue_(config.learner_queue_capacity),
      rank_latency_(kLatencyMaxSamples) {
  CROWDRL_CHECK(framework != nullptr);
  config_.max_batch = std::max<size_t>(config_.max_batch, 1);
  contexts_.resize(config_.max_batch);
  scores_.resize(config_.max_batch);
}

ServiceShard::~ServiceShard() { Stop(); }

void ServiceShard::Start() {
  MutexLock lifecycle(lifecycle_mu_);
  CROWDRL_CHECK_MSG(!started_, "shard already started");
  // One-shot lifecycle: the queues close permanently on Stop, so a
  // restarted shard would be silently dead (every Rank degraded, every
  // block dropped). Fail loudly instead.
  CROWDRL_CHECK_MSG(!stopped_, "shard is one-shot: construct a new one");
  {
    MutexLock lk(learner_mu_);
    PublishLocked();  // version 1: the framework's pre-start parameters
  }
  if (!config_.inline_learning) {
    learner_ = std::thread(&ServiceShard::LearnerLoop, this);
  }
  // Published after the handle: once a concurrent observer sees started_,
  // a racing Stop() joins a real thread.
  started_ = true;
  // Ranks queued before Start had no snapshot to score against and
  // parked: wake them to elect a leader.
  {
    MutexLock lk(done_mu_);
    lead_epoch_.fetch_add(1);
  }
  done_cv_.NotifyAll();
}

void ServiceShard::Stop() {
  // Serialized against Start and against concurrent Stops: the loser of
  // the race blocks here until the winner finished joining, then observes
  // !started_ and returns instead of double-joining the handles.
  MutexLock lifecycle(lifecycle_mu_);
  if (!started_) return;
  // Order matters: every accepted rank request is scored and fulfilled
  // before the learner queue closes, so feedback for in-flight decisions
  // can still be flushed by sessions until the learner is joined.
  request_queue_.Close();
  {
    MutexLock lead(score_mu_);
    bool unused;
    while (LeadBatchLocked(nullptr, &unused) > 0) continue;
  }
  done_cv_.NotifyAll();
  learner_queue_.Close();
  if (learner_.joinable()) learner_.join();
  started_ = false;
  stopped_ = true;
}

void ServiceShard::RecordArrival(const Observation& obs) {
  WriterMutexLock lk(arrivals_mu_);
  framework_->OnArrival(obs);
}

void ServiceShard::PublishLocked() {
  channel_.Publish(builder_.Build(framework_->worker_agent(),
                                  framework_->requester_agent(),
                                  snapshot_version_.fetch_add(1) + 1));
}

void ServiceShard::PublishNow() {
  Status st = RunOnLearner([this] {
    // RunOnLearner's contract: the callable executes with learner_mu_
    // held (on the learner thread or the direct path). The analysis
    // cannot see through std::function, so assert the capability here.
    learner_mu_.AssertHeld();
    PublishLocked();
    return Status::OK();
  });
  CROWDRL_CHECK(st.ok());
}

void ServiceShard::ApplyOneLocked(TransitionBlocks blocks) {
  framework_->ApplyTransitions(std::move(blocks));
  const int64_t processed = events_processed_.fetch_add(1) + 1;
  if (config_.publish_every_events > 0 &&
      processed % config_.publish_every_events == 0) {
    PublishLocked();
  }
}

bool ServiceShard::EnqueueBlocks(std::vector<TransitionBlocks>&& blocks) {
  if (config_.inline_learning) {
    MutexLock lk(learner_mu_);
    for (TransitionBlocks& b : blocks) ApplyOneLocked(std::move(b));
    return true;
  }
  LearnerItem item;
  item.blocks = std::move(blocks);
  return learner_queue_.Push(std::move(item));
}

Status ServiceShard::RunOnLearner(std::function<Status()> fn) {
  if (!config_.inline_learning && started_) {
    std::promise<Status> done;
    std::future<Status> result = done.get_future();
    LearnerItem item;
    item.command = fn;  // copy: the direct path below is the fallback
    item.command_done = &done;
    if (learner_queue_.Push(std::move(item))) {
      return result.get();
    }
    // Queue closed mid-Stop: execute directly under the learner lock
    // (serialized against the draining learner thread).
  }
  MutexLock lk(learner_mu_);
  return fn();
}

void ServiceShard::LearnerLoop() {
  while (auto item = learner_queue_.Pop()) {
    MutexLock lk(learner_mu_);
    if (item->command) {
      item->command_done->set_value(item->command());
      continue;
    }
    for (TransitionBlocks& blocks : item->blocks) {
      ApplyOneLocked(std::move(blocks));
    }
  }
}

void ServiceShard::AwaitRanking(RankRequest* request) {
  for (;;) {
    // Read before the TryLock: if the lock is taken, its holder moves the
    // epoch after releasing it whenever requests are still queued, so the
    // park below cannot miss the hand-off. (try_lock fails only while
    // another thread holds the mutex.)
    const uint64_t epoch = lead_epoch_.load();
    // Before Start there is no snapshot: stay queued until Start's wake.
    if (started_ && score_mu_.TryLock()) {
      bool served_self = false;
      const size_t followers = LeadBatchLocked(request, &served_self);
      score_mu_.Unlock();
      // One wake per batch: it releases the fulfilled followers and lets
      // a parked caller take the lead over what is still queued.
      const bool queued = request_queue_.size() > 0;
      if (queued) {
        MutexLock lk(done_mu_);
        lead_epoch_.fetch_add(1);
      }
      if (queued || followers > 0) done_cv_.NotifyAll();
      if (served_self) return;
    }
    MutexLock lk(done_mu_);
    while (!request->done && lead_epoch_.load() == epoch) {
      done_cv_.Wait(done_mu_, lk);
    }
    if (request->done) return;
  }
}

size_t ServiceShard::LeadBatchLocked(const RankRequest* self,
                                     bool* served_self) {
  // Load-adaptive window (see ServiceConfig::batch_window_us): after a
  // batch of one, and for the first batch, what is queued is scored at
  // once; the window opens only after a batch of two or more shows
  // requests arriving faster than they are served.
  batch_.clear();
  const int64_t window_us = last_batch_ > 1 ? config_.batch_window_us : 0;
  const size_t n = request_queue_.PopBatch(&batch_, config_.max_batch,
                                           window_us);
  *served_self = false;
  if (n == 0) return 0;
  // One snapshot per micro-batch: every request in the batch is scored
  // against the same consistent parameters, lock-free.
  const std::shared_ptr<const PolicySnapshot> snapshot = channel_.Load();
  const ScoringView view = snapshot->View();
  // Plain references for the lambda: the thread-safety analysis cannot see
  // that pool workers run it while this leader holds score_mu_.
  const std::vector<RankRequest*>& batch = batch_;
  std::vector<DecisionContext>& contexts = contexts_;
  std::vector<std::vector<double>>& scores = scores_;
  const auto score_one = [&](size_t i) {
    framework_->BuildDecisionInto(*batch[i]->obs, &contexts[i]);
    framework_->ScoreDecisionInto(contexts[i], view, &scores[i]);
  };
  if (n == 1) {
    score_one(0);
  } else {
    // The batched forward pass: set-states are independent, so the batch
    // fans out across the shared pool. The learner steps serially on its
    // own thread and never queues on the pool.
    ThreadPool::Global().ParallelFor(n, score_one);
  }
  latencies_.clear();
  for (size_t i = 0; i < n; ++i) {
    RankRequest& req = *batch_[i];
    *req.ranking = framework_->RankDecision(*req.obs, contexts_[i],
                                            scores_[i]);
    req.ticket->ctx = contexts_[i];
    req.ticket->snapshot_version = snapshot->version;
    latencies_.push_back(req.wait.ElapsedSeconds());
  }
  last_batch_ = n;
  // Counted before any caller is released, so a returned Rank is in stats.
  requests_.fetch_add(static_cast<int64_t>(n));
  batches_.fetch_add(1);
  {
    MutexLock lk(stats_mu_);
    for (double s : latencies_) rank_latency_.Add(s);
  }
  MutexLock lk(done_mu_);
  for (RankRequest* req : batch_) {
    if (req == self) {
      *served_self = true;  // the leader returns on its own
    } else {
      req->done = true;  // the request may be gone past this line
    }
  }
  return n - (*served_self ? 1 : 0);
}

// ---- Session ----

ServiceShard::Session::Session(ServiceShard* shard)
    : shard_(shard),
      buffer_(
          [shard](std::vector<TransitionBlocks>&& blocks) {
            if (!shard->EnqueueBlocks(std::move(blocks))) {
              shard->blocks_dropped_.fetch_add(1);
              return false;
            }
            return true;
          },
          // Inline learning is synchronous per event: block size 1, so
          // Feedback() returns with the event already learned.
          shard->config_.inline_learning
              ? 1
              : shard->config_.flush_block_events) {}

ServiceShard::Session::~Session() { Flush(); }

std::unique_ptr<ServiceShard::Session> ServiceShard::NewSession() {
  return std::unique_ptr<Session>(new Session(this));
}

std::vector<int> ServiceShard::Session::Rank(const Observation& obs,
                                             Ticket* ticket) {
  CROWDRL_CHECK(ticket != nullptr);
  if (obs.tasks.empty()) {
    ticket->ctx = DecisionContext{};
    return {};
  }
  std::vector<int> ranking;
  RankRequest request;
  request.obs = &obs;
  request.ticket = ticket;
  request.ranking = &ranking;
  using PushResult = BoundedQueue<RankRequest*>::PushResult;
  PushResult pushed;
  if (shard_->config_.enqueue_budget_us < 0) {
    pushed = shard_->request_queue_.Push(&request) ? PushResult::kOk
                                                   : PushResult::kClosed;
  } else {
    // Admission control: give the enqueue exactly the per-request budget,
    // then shed — a degraded answer now beats a personalized answer the
    // caller stopped waiting for.
    pushed = shard_->request_queue_.TryPushFor(
        &request, shard_->config_.enqueue_budget_us);
  }
  if (pushed != PushResult::kOk) {
    // Degraded mode: the caller still receives a full permutation. A shed
    // request is never scored, so its ticket carries no decision context
    // and its (non-)feedback never enters the learning stream.
    (pushed == PushResult::kClosed ? shard_->rejected_ : shard_->shed_)
        .fetch_add(1);
    ticket->ctx = DecisionContext{};
    ticket->snapshot_version = 0;
    return ObservationOrder(obs);
  }
  shard_->AwaitRanking(&request);
  return ranking;
}

void ServiceShard::Session::Feedback(const Observation& obs,
                                     const Ticket& ticket,
                                     const std::vector<int>& ranking,
                                     const crowdrl::Feedback& feedback) {
  if (obs.tasks.empty() || ticket.ctx.task_to_row.empty()) return;
  // Fresh snapshot for the Bellman targets: in inline mode this equals the
  // live parameters (published after every event); in async mode it is the
  // newest consistent view, the actor/learner staleness trade-off.
  const std::shared_ptr<const PolicySnapshot> snapshot =
      shard_->channel_.Load();
  TransitionBlocks blocks;
  {
    ReaderMutexLock lk(shard_->arrivals_mu_);
    blocks = shard_->framework_->MakeTransitions(obs, ticket.ctx, ranking,
                                                 feedback,
                                                 snapshot->View());
  }
  ++events_submitted_;
  shard_->events_submitted_.fetch_add(1);
  buffer_.Add(std::move(blocks));
}

bool ServiceShard::Session::Flush() { return buffer_.Flush(); }

bool ServiceShard::SubmitTransitions(TransitionBlocks blocks) {
  if (blocks.empty()) return true;
  // The wire checks each transition on its own; whether it fits this
  // shard's nets is checked here, before the learner would CHECK-fail on it.
  // A null agent is an MDP the objective disables.
  const auto fits = [](const std::vector<Transition>& block,
                       const DqnAgent* agent) {
    return std::all_of(
        block.begin(), block.end(), [agent](const Transition& t) {
          return agent != nullptr &&
                 t.state.cols() == agent->config().net.input_dim;
        });
  };
  if (!fits(blocks.worker, framework_->worker_agent()) ||
      !fits(blocks.requester, framework_->requester_agent())) {
    blocks_refused_.fetch_add(1);
    return false;
  }
  events_submitted_.fetch_add(1);
  std::vector<TransitionBlocks> one;
  one.push_back(std::move(blocks));
  if (!EnqueueBlocks(std::move(one))) {
    blocks_dropped_.fetch_add(1);
    return false;
  }
  return true;
}

// ---- Checkpointing & stats ----

Status ServiceShard::SaveState(const std::string& path) {
  return RunOnLearner([this, path] {
    // Shared arrivals lock: the statistic may keep moving for other
    // arrivals, but the serialized φ/ϕ state must not be torn mid-write.
    ReaderMutexLock lk(arrivals_mu_);
    return framework_->SaveState(path);
  });
}

Status ServiceShard::LoadState(const std::string& path) {
  return RunOnLearner([this, path] {
    learner_mu_.AssertHeld();  // RunOnLearner contract (see PublishNow)
    Status st;
    {
      WriterMutexLock lk(arrivals_mu_);
      st = framework_->LoadState(path);
    }
    if (st.ok()) PublishLocked();  // actors see the restored parameters
    return st;
  });
}

ServiceStats ServiceShard::stats(PercentileAccumulator* latency) const {
  ServiceStats out;
  out.requests = requests_.load();
  out.rejected = rejected_.load();
  out.shed = shed_.load();
  out.batches = batches_.load();
  out.mean_batch_size =
      out.batches > 0
          ? static_cast<double>(out.requests) / static_cast<double>(out.batches)
          : 0.0;
  out.events_submitted = events_submitted_.load();
  out.events_processed = events_processed_.load();
  out.blocks_dropped = blocks_dropped_.load();
  out.blocks_refused = blocks_refused_.load();
  // Atomic-backed replay counters: safe to read while the learner trains.
  for (const DqnAgent* agent :
       {framework_->worker_agent(), framework_->requester_agent()}) {
    if (agent == nullptr) continue;
    out.replay_transitions += static_cast<int64_t>(agent->replay_transitions());
    out.replay_bytes += static_cast<int64_t>(agent->replay_bytes());
  }
  out.snapshot_version = channel_.version();
  out.snapshot_nets_copied = builder_.nets_copied();
  out.snapshot_nets_shared = builder_.nets_shared();
  // Copy under the lock, sort outside it: the batch leader takes stats_mu_
  // after every batch, and a percentile sort over the retained sample
  // (up to kLatencyMaxSamples) would stall it.
  PercentileAccumulator copy = latency_accumulator();
  FillRankLatency(copy, &out);
  if (latency != nullptr) *latency = std::move(copy);
  return out;
}

PercentileAccumulator ServiceShard::latency_accumulator() const {
  MutexLock lk(stats_mu_);
  return rank_latency_;
}

void FillRankLatency(const PercentileAccumulator& latency, ServiceStats* out) {
  out->rank_count = latency.count();
  out->rank_latency_mean_ms = latency.mean() * 1e3;
  const std::vector<double> tail = latency.Percentiles({50, 95, 99});
  out->rank_latency_p50_ms = tail[0] * 1e3;
  out->rank_latency_p95_ms = tail[1] * 1e3;
  out->rank_latency_p99_ms = tail[2] * 1e3;
  out->rank_latency_max_ms = latency.max() * 1e3;
}

}  // namespace crowdrl
