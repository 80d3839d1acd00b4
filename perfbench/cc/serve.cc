// serve_inproc and serve_uds: an open-loop arrival schedule at a fixed rate
// against the arrangement service, in process (two Sessions of a 1-shard
// ShardedArrangementService) or over a UNIX-domain socket (a LearnerDaemon
// and two thin ActorClients, server-minted feedback). Rank latency is timed
// from each arrival's due instant.
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/actor_client.h"
#include "net/learner_daemon.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowdrl::Observation;
using crowdrl::ServeWorkload;
using crowdrl::ShardedArrangementService;

constexpr double kRatePerS = 200;
constexpr int kThreads = 2;
/// The worker/task population and the framework seeds are fixed; --seed
/// drives the arrival stream (who arrives, which pool, what they accept).
constexpr uint64_t kPopulationSeed = 17;
/// Closed-loop warm-up per setup: enough feedback events that both replay
/// buffers pass one batch (32) and snapshots are published (every 8).
constexpr int64_t kWarmupPerThread = 128;
/// Setups per untraced run, so setup_s is a median.
constexpr int kSetups = 15;
/// Poll interval of the wait for the warm-up events to be learned.
constexpr int kSetupPollUs = 50;
/// Observations the traced run times the core primitives on.
constexpr int kCoreProbes = 400;

crowdrl::FrameworkConfig ServingFrameworkConfig() {
  // The serving-lean sizing of bench_serve_throughput.
  crowdrl::FrameworkConfig cfg = crowdrl::FrameworkConfig::Defaults();
  for (crowdrl::DqnAgentConfig* dqn : {&cfg.worker_dqn, &cfg.requester_dqn}) {
    dqn->net.hidden_dim = 32;
    dqn->net.num_heads = 4;
    dqn->batch_size = 32;
    dqn->learn_every = 16;
    dqn->replay.capacity = 1000;
  }
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 0;
  cfg.learn_from_history = false;
  cfg.seed = kPopulationSeed;
  return cfg;
}

crowdrl::ServiceConfig ServingServiceConfig() {
  crowdrl::ServiceConfig cfg;
  cfg.max_batch = 16;
  cfg.batch_window_us = 200;
  cfg.flush_block_events = 4;
  cfg.publish_every_events = 8;
  cfg.request_queue_capacity = 1024;
  cfg.enqueue_budget_us = -1;
  return cfg;
}

uint64_t ArrivalSeed(uint64_t seed, int64_t index) {
  return seed * 0x9E3779B97F4A7C15ULL ^
         (static_cast<uint64_t>(index) + 1) * 0xBF58476D1CE4E5B9ULL;
}

/// What one generator thread measured.
struct ThreadStats {
  Samples rank_from_due_ms;
  Samples rank_call_ms;
  Samples feedback_ms;
  Samples record_arrival_ms;
  /// Generator-side service time of traced and untraced arrivals.
  Samples traced_arrival_ms;
  Samples plain_arrival_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t slo_met = 0;
  int64_t invalid_rankings = 0;
  int64_t feedback_submitted = 0;
  int64_t completions = 0;
  double quality_gain = 0;
  std::unique_ptr<SpanLog> log;

  void Merge(const ThreadStats& o) {
    rank_from_due_ms.Append(o.rank_from_due_ms);
    rank_call_ms.Append(o.rank_call_ms);
    feedback_ms.Append(o.feedback_ms);
    record_arrival_ms.Append(o.record_arrival_ms);
    traced_arrival_ms.Append(o.traced_arrival_ms);
    plain_arrival_ms.Append(o.plain_arrival_ms);
    attempted += o.attempted;
    failed += o.failed;
    slo_met += o.slo_met;
    invalid_rankings += o.invalid_rankings;
    feedback_submitted += o.feedback_submitted;
    completions += o.completions;
    quality_gain += o.quality_gain;
  }
};

/// One serving stack: the workload (inputs), the service and, over uds, a
/// daemon; plus one Session or ActorClient per generator thread.
class Stack {
 public:
  Stack(const Options& opts, bool over_uds) : opts_(opts), over_uds_(over_uds) {}

  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Builds and warms the stack; returns the setup wall time in seconds.
  double Setup() {
    const int64_t t0 = NowNs();
    crowdrl::ServeWorkloadConfig wl;
    wl.num_workers = over_uds_ ? 4096 : 64;
    wl.num_tasks = over_uds_ ? 1024 : 64;
    wl.pool_size = 12;
    wl.seed = kPopulationSeed;
    workload_ = std::make_unique<ServeWorkload>(wl);
    data_s = (NowNs() - t0) * 1e-9;

    service_ = ShardedArrangementService::Create(
        ServingFrameworkConfig(), workload_.get(),
        workload_->worker_feature_dim(), workload_->task_feature_dim(), 1,
        ServingServiceConfig());
    service_->Start();
    if (over_uds_) {
      daemon_ = std::make_unique<crowdrl::net::LearnerDaemon>(
          service_.get(), opts_.work_dir + "/serve-" +
                              std::to_string(::getpid()) + ".sock");
      Require(daemon_->Start(), "daemon start");
      for (int t = 0; t < kThreads; ++t) {
        auto client = crowdrl::net::ActorClient::Connect(daemon_->socket_path());
        Require(client.status(), "client connect");
        clients_.push_back(std::move(client).value());
      }
    } else {
      for (int t = 0; t < kThreads; ++t) {
        sessions_.push_back(service_->NewSession());
      }
    }

    // Closed-loop warm-up, then wait until every warm-up event is learned.
    std::vector<std::thread> warm;
    std::vector<ThreadStats> warm_stats(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      warm.emplace_back([&, t] {
        for (int64_t k = 0; k < kWarmupPerThread; ++k) {
          Arrive(t * kWarmupPerThread + k, NowNs(), t, &warm_stats[t]);
        }
        if (!over_uds_) sessions_[t]->Flush();
      });
    }
    for (std::thread& th : warm) th.join();
    for (const ThreadStats& s : warm_stats) {
      warmup_submitted += s.feedback_submitted;
      warmup_failed += s.failed + s.invalid_rankings;
    }
    next_index_ = kThreads * kWarmupPerThread;
    // The service has no blocking drain, so poll its counters. A short
    // sleep instead of a yield spin leaves the cores to the learner, whose
    // work this wait is for; it adds at most kSetupPollUs to the setup.
    while (true) {
      const crowdrl::ServiceStats s = service_->stats().aggregate;
      if (s.events_processed >= warmup_submitted && s.snapshot_version > 1) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kSetupPollUs));
    }
    return (NowNs() - t0) * 1e-9;
  }

  /// One arrival: observation, arrival statistic, rank, simulated worker
  /// reaction, feedback. Latency is charged from `due_ns`.
  void Arrive(int64_t index, int64_t due_ns, int thread, ThreadStats* st) {
    // A traced phase traces odd arrivals only: the even ones, interleaved
    // over the same period, are the baseline for the tracing overhead.
    SpanLog* log = index % 2 == 1 ? st->log.get() : nullptr;
    const int64_t start = NowNs();
    Serve(index, due_ns, thread, log, st);
    (log ? st->traced_arrival_ms : st->plain_arrival_ms)
        .Add((NowNs() - start) * 1e-6);
  }

 private:
  void Serve(int64_t index, int64_t due_ns, int thread, SpanLog* log,
             ThreadStats* st) {
    ScopedSpan root(log, "arrival", index);
    if (log != nullptr) log->Add("gen.late", index, due_ns, NowNs());
    ++st->attempted;
    crowdrl::Rng rng(ArrivalSeed(opts_.seed, index));
    Observation obs;
    {
      ScopedSpan s(log, "env.observation", index, root.id());
      obs = workload_->MakeObservation(index, &rng);
    }
    std::vector<int> ranking;
    bool answered = false;
    ShardedArrangementService::Ticket ticket;
    int64_t rank_start = 0;
    if (over_uds_) {
      crowdrl::net::DecodedRankResponse resp;
      ScopedSpan s(log, "rank_call", index, root.id());
      rank_start = NowNs();
      // A failed or degraded answer carries no ranking to check; it is
      // counted in `failed` only.
      answered = clients_[thread]->Rank(obs, /*record_arrival=*/true, &resp).ok() &&
                 !resp.degraded;
      ranking = std::move(resp.ranking);
    } else {
      {
        ScopedSpan s(log, "record_arrival", index, root.id());
        const int64_t start = NowNs();
        service_->RecordArrival(obs);
        st->record_arrival_ms.Add((NowNs() - start) * 1e-6);
      }
      ScopedSpan s(log, "rank_call", index, root.id());
      rank_start = NowNs();
      ranking = sessions_[thread]->Rank(obs, &ticket);
      answered = ticket.inner.snapshot_version != 0;  // 0 = shed or rejected
    }
    const int64_t rank_end = NowNs();
    const double from_due_ms = (rank_end - due_ns) * 1e-6;
    st->rank_from_due_ms.Add(from_due_ms);
    st->rank_call_ms.Add((rank_end - rank_start) * 1e-6);
    if (answered && !IsPermutation(ranking, obs.tasks.size())) {
      ++st->invalid_rankings;
      answered = false;
    }
    if (!answered) {
      ++st->failed;
      return;
    }
    crowdrl::Feedback fb;
    {
      ScopedSpan s(log, "env.simulate", index, root.id());
      fb = workload_->SimulateFeedback(obs, ranking, &rng);
    }
    bool ok = true;
    {
      ScopedSpan s(log, "feedback_call", index, root.id());
      const int64_t start = NowNs();
      if (over_uds_) {
        crowdrl::net::FeedbackResponseHead head;
        ok = clients_[thread]->Feedback(index, obs.worker, fb, &head).ok() &&
             head.accepted != 0;
      } else {
        sessions_[thread]->Feedback(obs, ticket, ranking, fb);
      }
      st->feedback_ms.Add((NowNs() - start) * 1e-6);
    }
    if (!ok) {
      ++st->failed;
      return;
    }
    ++st->feedback_submitted;
    if (from_due_ms <= kSloLimitMs) ++st->slo_met;
    if (fb.completed_pos >= 0) ++st->completions;
    st->quality_gain += fb.quality_gain;
  }

 public:
  /// Runs `seconds` of the open-loop schedule.
  ThreadStats RunPhase(double seconds, bool traced, double* late_p50_ms,
                       double* late_p99_ms) {
    const int64_t arrivals = static_cast<int64_t>(kRatePerS * seconds);
    std::vector<ThreadStats> per(kThreads);
    for (ThreadStats& s : per) {
      s.rank_from_due_ms.Reserve(arrivals);
      if (traced) s.log = std::make_unique<SpanLog>(arrivals * 8);
    }
    const int64_t base = next_index_;
    const OpenLoopResult loop = RunOpenLoop(
        kRatePerS, arrivals, kThreads, [&](int64_t i, int64_t due, int t) {
          Arrive(base + i, due, t, &per[t]);
        });
    next_index_ += arrivals;
    ThreadStats total;
    for (ThreadStats& s : per) {
      total.Merge(s);
      if (s.log) logs_.push_back(std::move(s.log));
    }
    if (late_p50_ms) *late_p50_ms = loop.late_ms.Percentile(50).value_or(-1);
    if (late_p99_ms) *late_p99_ms = loop.late_ms.Percentile(99).value_or(-1);
    return total;
  }

  /// Flushes, disconnects and drains; every accepted event gets learned.
  void Stop() {
    for (auto& s : sessions_) s->Flush();
    sessions_.clear();
    for (const auto& c : clients_) client_frames_sent += c->frames_sent();
    clients_.clear();  // the daemon flushes each connection's session
    if (daemon_) {
      daemon_->Stop();
      daemon_frames_in = daemon_->Stats().transport_frames_in;
    }
    if (service_) service_->Stop();
  }

  ShardedArrangementService& service() { return *service_; }
  const ServeWorkload& workload() const { return *workload_; }
  bool over_uds() const { return over_uds_; }
  int64_t next_index() const { return next_index_; }
  std::vector<const SpanLog*> logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }
  /// Frames and bytes both directions, summed over the clients.
  void WireCounters(int64_t* frames, int64_t* bytes) const {
    *frames = *bytes = 0;
    for (const auto& c : clients_) {
      *frames += c->frames_sent() + c->frames_received();
      *bytes += c->bytes_sent() + c->bytes_received();
    }
  }

  double data_s = 0;
  int64_t warmup_submitted = 0;
  int64_t warmup_failed = 0;
  /// Over uds: frames the clients sent and frames the daemon received.
  int64_t client_frames_sent = 0;
  int64_t daemon_frames_in = 0;

 private:
  static void Require(const crowdrl::Status& st, const char* what) {
    if (!st.ok()) throw std::runtime_error(std::string(what) + ": " + st.ToString());
  }

  Options opts_;
  bool over_uds_;
  std::unique_ptr<ServeWorkload> workload_;
  std::unique_ptr<ShardedArrangementService> service_;
  std::unique_ptr<crowdrl::net::LearnerDaemon> daemon_;
  std::vector<std::unique_ptr<ShardedArrangementService::Session>> sessions_;
  std::vector<std::unique_ptr<crowdrl::net::ActorClient>> clients_;
  int64_t next_index_ = 0;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Samples learner lag (events submitted minus processed) about once per
/// second while alive.
class LagSampler {
 public:
  explicit LagSampler(ShardedArrangementService* service)
      : service_(service), thread_([this] { Loop(); }) {}
  ~LagSampler() { Stop(); }
  LagSampler(const LagSampler&) = delete;
  LagSampler& operator=(const LagSampler&) = delete;

  /// Ends sampling and joins; idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Mean sampled lag; valid after Stop().
  double mean() const { return n_ ? sum_ / n_ : 0; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; })) {
      const crowdrl::ServiceStats s = service_->stats().aggregate;
      sum_ += static_cast<double>(s.events_submitted - s.events_processed);
      ++n_;
    }
  }

  ShardedArrangementService* service_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double sum_ = 0;
  int64_t n_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Checks shared by every serve run, after the stack has stopped.
void CheckDrained(Report* report, Stack* stack, const ThreadStats& timed) {
  const crowdrl::ServiceStats s = stack->service().stats().aggregate;
  const int64_t submitted = stack->warmup_submitted + timed.feedback_submitted;
  report->Check("valid_rankings", timed.invalid_rankings == 0,
                std::to_string(timed.invalid_rankings) + " invalid of " +
                    std::to_string(timed.attempted));
  if (stack->over_uds()) {
    report->Check("daemon_received_every_frame",
                  stack->daemon_frames_in == stack->client_frames_sent,
                  "daemon " + std::to_string(stack->daemon_frames_in) +
                      " frames in, clients sent " +
                      std::to_string(stack->client_frames_sent));
  }
  report->Check("warmup_without_failures", stack->warmup_failed == 0,
                std::to_string(stack->warmup_failed) + " failed warm-up arrivals");
  report->Check("every_event_learned",
                s.events_processed == s.events_submitted &&
                    s.events_submitted == submitted && s.blocks_dropped == 0,
                "processed " + std::to_string(s.events_processed) +
                    ", submitted " + std::to_string(s.events_submitted) +
                    ", sent " + std::to_string(submitted) + ", dropped " +
                    std::to_string(s.blocks_dropped));
}

void RunUntraced(const Options& opts, bool over_uds, Report* report) {
  Samples setup_s;
  for (int k = 1; k < kSetups; ++k) {
    Stack discarded(opts, over_uds);
    setup_s.Add(discarded.Setup());
  }
  Stack stack(opts, over_uds);
  setup_s.Add(stack.Setup());

  const double cpu0 = ProcessCpuSeconds();
  const ThreadStats timed = stack.RunPhase(opts.seconds, false, nullptr, nullptr);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  stack.Stop();
  CheckDrained(report, &stack, timed);

  const double n = static_cast<double>(timed.attempted);
  report->Metric("setup_s", setup_s.Median(), "s");
  report->Metric("peak_rss_mb", PeakRssMib(), "MiB");
  report->Metric("rank_p50_ms",
                 RequirePercentile(report, timed.rank_from_due_ms, 50, "rank"), "ms");
  report->Metric("update_p50_ms",
                 RequirePercentile(report, timed.feedback_ms, 50, "update"), "ms");
  report->Metric("cpu_ms_per_arrival", cpu_s * 1e3 / n, "ms");
  report->Metric(kSloMetric, timed.slo_met / n, "share");
  report->Metric("qg_per_arrival", timed.quality_gain / n, "gain/arrival");
  report->Count(timed.attempted, timed.attempted - timed.failed, timed.failed);
  report->Info("rank_p99_ms", timed.rank_from_due_ms.Percentile(99).value_or(-1));
  report->Info("rank_samples", n);
  report->Info("accept_share", timed.completions / n);
}

/// Times the framework's primitives on fresh observations after the
/// service has stopped: the core-layer cost at this population.
void ProbeCore(Stack* stack, uint64_t seed, Report* report) {
  crowdrl::TaskArrangementFramework* fw = stack->service().shard(0)->framework();
  Samples build, score, order, mint, apply;
  auto timed = [](Samples* s, auto&& fn) {
    const int64_t start = NowNs();
    fn();
    s->Add((NowNs() - start) * 1e-6);
  };
  for (int k = 0; k < kCoreProbes; ++k) {
    const int64_t index = stack->next_index() + k;
    crowdrl::Rng rng(ArrivalSeed(seed, index));
    const Observation obs = stack->workload().MakeObservation(index, &rng);
    fw->OnArrival(obs);
    crowdrl::DecisionContext ctx;
    std::vector<double> combined;
    std::vector<int> ranking;
    crowdrl::TransitionBlocks blocks;
    timed(&build, [&] { ctx = fw->BuildDecision(obs); });
    timed(&score, [&] { combined = fw->ScoreDecision(ctx, fw->LiveView()); });
    timed(&order, [&] { ranking = fw->RankDecision(obs, ctx, combined); });
    const crowdrl::Feedback fb =
        stack->workload().SimulateFeedback(obs, ranking, &rng);
    timed(&mint, [&] {
      blocks = fw->MakeTransitions(obs, ctx, ranking, fb, fw->LiveView());
    });
    timed(&apply, [&] { fw->ApplyTransitions(std::move(blocks)); });
  }
  report->Metric("core.build_ms", RequirePercentile(report, build, 50, "build"), "ms");
  report->Metric("core.score_ms", RequirePercentile(report, score, 50, "score"), "ms");
  report->Metric("core.order_ms", RequirePercentile(report, order, 50, "order"), "ms");
  report->Metric("core.mint_ms", RequirePercentile(report, mint, 50, "mint"), "ms");
  report->Metric("core.apply_ms", RequirePercentile(report, apply, 50, "apply"), "ms");
}

void RunTraced(const Options& opts, bool over_uds, Report* report) {
  Stack stack(opts, over_uds);
  const double setup_s = stack.Setup();

  const crowdrl::ServiceStats before = stack.service().stats().aggregate;
  int64_t frames0 = 0, bytes0 = 0;
  stack.WireCounters(&frames0, &bytes0);
  double late_p50 = 0, late_p99 = 0;
  LagSampler sampler(&stack.service());
  const ThreadStats traced =
      stack.RunPhase(opts.seconds, true, &late_p50, &late_p99);
  sampler.Stop();
  const crowdrl::ServiceStats after = stack.service().stats().aggregate;
  int64_t frames1 = 0, bytes1 = 0;
  stack.WireCounters(&frames1, &bytes1);
  stack.Stop();
  CheckDrained(report, &stack, traced);
  if (!WriteSpans(opts.trace_path, stack.logs())) {
    report->Check("write_spans", false, opts.trace_path);
  }

  const double n = static_cast<double>(traced.attempted);
  const crowdrl::ServiceStats life = stack.service().stats().aggregate;
  const auto totals = TotalsByName(stack.logs());
  // The arrival span's self time is generator time no child span covers.
  double arrival_ms = 0, arrival_self_ms = 0, env_ms = 0, traced_n = 0;
  for (const auto& [name, t] : totals) {
    if (name == "arrival") {
      arrival_ms = t.total_ms;
      arrival_self_ms = t.self_ms;
      traced_n = static_cast<double>(t.count);
    }
    if (name.rfind("env.", 0) == 0) env_ms += t.total_ms;
  }
  const crowdrl::TaskArrangementFramework* fw =
      stack.service().shard(0)->framework();
  int64_t learn_steps = 0, stored = 0;
  for (const crowdrl::DqnAgent* a : {fw->worker_agent(), fw->requester_agent()}) {
    if (a != nullptr) {
      learn_steps += a->learn_steps();
      stored += a->stored();
    }
  }
  ProbeCore(&stack, opts.seed, report);

  const double events = static_cast<double>(life.events_processed);
  const double rank_call_p50 = RequirePercentile(report, traced.rank_call_ms, 50, "rank_call");
  const double rank_call_p99 = RequirePercentile(report, traced.rank_call_ms, 99, "rank_call");
  const double feedback_p50 = RequirePercentile(report, traced.feedback_ms, 50, "feedback");
  const double batches = static_cast<double>(after.batches - before.batches);
  const double batch =
      batches > 0 ? (after.requests - before.requests) / batches : 0;
  const double nets =
      static_cast<double>(life.snapshot_nets_copied + life.snapshot_nets_shared);

  // The benchmark's generator, not src/data or src/eval, makes the inputs
  // and plays the workers here, so its costs go under gen.*.
  report->Metric("gen.inputs_s", stack.data_s, "s");
  report->Metric("gen.warmup_s", setup_s - stack.data_s, "s");
  report->Metric("gen.env_ms_per_arrival", env_ms / traced_n, "ms");
  ReportAbsentReplayLayers(report);
  report->Info("accept_share", traced.completions / n);
  report->Metric("rl.learn_steps_per_feedback", learn_steps / events, "count");
  report->Metric("rl.transitions_per_feedback", stored / events, "count");
  report->Metric("rl.replay_bytes", static_cast<double>(life.replay_bytes),
                 "bytes");
  report->Metric("serve.rank_call_p50_ms", rank_call_p50, "ms");
  report->Metric("serve.rank_call_p99_ms", rank_call_p99, "ms");
  report->Metric("serve.feedback_call_ms", feedback_p50, "ms");
  report->Metric("serve.batcher_p50_ms", life.rank_latency_p50_ms, "ms");
  report->Metric("serve.record_arrival_ms",
                 over_uds ? 0
                          : RequirePercentile(report, traced.record_arrival_ms, 50,
                                     "record_arrival"),
                 "ms");
  report->Metric("serve.mean_batch_size", batch, "count");
  report->Metric("serve.batch_fill",
                 batch / static_cast<double>(ServingServiceConfig().max_batch),
                 "share");
  report->Metric("serve.learner_lag_events", sampler.mean(), "count");
  report->Metric("serve.nets_shared_share",
                 nets > 0 ? life.snapshot_nets_shared / nets : 0, "share");
  report->Metric("serve.publishes_per_1k_events",
                 life.snapshot_version * 1e3 / events, "count");
  report->Metric("net.rank_rtt_p50_ms", over_uds ? rank_call_p50 : 0, "ms");
  report->Metric("net.rank_rtt_p99_ms", over_uds ? rank_call_p99 : 0, "ms");
  report->Metric("net.feedback_rtt_ms", over_uds ? feedback_p50 : 0, "ms");
  report->Metric("net.overhead_ms", rank_call_p50 - life.rank_latency_p50_ms,
                 "ms");
  report->Metric("net.frames_per_arrival", (frames1 - frames0) / n, "count");
  report->Metric("net.bytes_per_arrival", (bytes1 - bytes0) / n, "bytes");
  report->Metric("gen.late_p50_ms", late_p50, "ms");
  report->Metric("gen.late_p99_ms", late_p99, "ms");
  report->Metric("gen.rank_p99_ms",
                 RequirePercentile(report, traced.rank_from_due_ms, 99, "rank_from_due"),
                 "ms");
  report->Metric("gen.rank_samples", n, "count");
  report->Metric("trace.overhead_share",
                 RequirePercentile(report, traced.traced_arrival_ms, 50, "traced") /
                         RequirePercentile(report, traced.plain_arrival_ms, 50, "plain") -
                     1,
                 "share");
  ReportStageGap(arrival_ms > 0 ? arrival_self_ms / arrival_ms : 1, report);
  report->Count(traced.attempted, traced.attempted - traced.failed,
                traced.failed);
}

}  // namespace

void RunServe(const Options& opts, bool over_uds, Report* report) {
  if (opts.trace) {
    RunTraced(opts, over_uds, report);
  } else {
    RunUntraced(opts, over_uds, report);
  }
}

}  // namespace perfbench
