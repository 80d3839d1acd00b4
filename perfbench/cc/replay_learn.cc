// replay_learn: the paper's setting. A serial replay of the synthetic
// CrowdSpring-calibrated trace through ReplayHarness into the DRL framework
// (both DQNs, balanced objective, default Experiment sizing). Table I's
// update time is the OnFeedback call.
#include <map>
#include <stdexcept>
#include <string>

#include "core/framework.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowdrl::DecisionContext;
using crowdrl::Feedback;
using crowdrl::Observation;
using crowdrl::TaskArrangementFramework;

constexpr double kScale = 0.05;
constexpr int kEvalMonths = 5;
/// The calibrated trace is fixed; --seed drives the simulated worker
/// decisions (the harness seed), so runs differ in what workers accept.
constexpr uint64_t kTraceSeed = 17;
/// Harness seed of the k-th replay of a run. Each replay plays other
/// simulated workers, so a run's quality is an average over a few of them:
/// one seed's QG alone spreads by up to 9% across seeds.
uint64_t ReplaySeed(uint64_t seed, int k) { return seed * 1000 + k; }
/// Setups per untraced run, so setup_s is a median.
constexpr int kMinSetups = 5;

/// Thrown from OnInitEnd to end a setup-only repetition.
struct SetupDone {};

/// \brief Decorator between the harness and the framework. Untraced, it
/// forwards Rank/OnFeedback and times each call. Traced, it calls the
/// framework's public primitives in the same order as Rank/OnFeedback and
/// records a span around each, plus "env" spans for the harness time
/// between policy calls.
class ReplayPolicy : public crowdrl::Policy {
 public:
  ReplayPolicy(TaskArrangementFramework* fw, SpanLog* log, bool setup_only)
      : fw_(fw), log_(log), setup_only_(setup_only) {}

  std::string name() const override { return fw_->name(); }

  void OnArrival(const Observation& obs) override {
    EnvGap(obs.arrival_index);
    {
      ScopedSpan span(eval_log(), "arrival", obs.arrival_index);
      fw_->OnArrival(obs);
    }
    MarkExit();
  }

  std::vector<int> Rank(const Observation& obs) override {
    EnvGap(obs.arrival_index);
    std::vector<int> ranking;
    const int64_t start = NowNs();
    if (log_ == nullptr) {
      ranking = fw_->Rank(obs);
    } else {
      ScopedSpan rank(log_, "rank", obs.arrival_index);
      DecisionContext ctx;
      std::vector<double> combined;
      {
        ScopedSpan s(log_, "build", obs.arrival_index, rank.id());
        ctx = fw_->BuildDecision(obs);
      }
      {
        ScopedSpan s(log_, "score", obs.arrival_index, rank.id());
        combined = fw_->ScoreDecision(ctx, fw_->LiveView());
      }
      {
        ScopedSpan s(log_, "order", obs.arrival_index, rank.id());
        ranking = fw_->RankDecision(obs, ctx, combined);
      }
      pending_[obs.arrival_index] = std::move(ctx);
      while (pending_.size() > TaskArrangementFramework::kMaxPendingDecisions) {
        pending_.erase(pending_.begin());
      }
    }
    rank_ms.Add((NowNs() - start) * 1e-6);
    if (!IsPermutation(ranking, obs.tasks.size())) ++invalid_rankings;
    MarkExit();
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const Feedback& feedback) override {
    EnvGap(obs.arrival_index);
    const int64_t start = NowNs();
    if (log_ == nullptr) {
      fw_->OnFeedback(obs, ranking, feedback);
    } else {
      ScopedSpan fb(log_, "feedback", obs.arrival_index);
      auto it = pending_.find(obs.arrival_index);
      if (it != pending_.end()) {
        crowdrl::TransitionBlocks blocks;
        {
          ScopedSpan s(log_, "mint", obs.arrival_index, fb.id());
          blocks = fw_->MakeTransitions(obs, it->second, ranking, feedback,
                                        fw_->LiveView());
        }
        {
          ScopedSpan s(log_, "apply", obs.arrival_index, fb.id());
          fw_->ApplyTransitions(std::move(blocks));
        }
        pending_.erase(it);
      }
    }
    update_ms.Add((NowNs() - start) * 1e-6);
    MarkExit();
  }

  void OnHistory(const Observation& obs, const std::vector<int>& browse_order,
                 int completed_pos, double quality_gain) override {
    fw_->OnHistory(obs, browse_order, completed_pos, quality_gain);
  }

  void OnInitEnd() override {
    fw_->OnInitEnd();
    init_end_ns = NowNs();
    init_end_cpu_s = ProcessCpuSeconds();
    if (setup_only_) throw SetupDone{};
    learn_steps_at_init = LearnSteps();
    stored_at_init = fw_->transitions_stored();
    last_exit_ns_ = init_end_ns;
  }

  /// Closes the last env gap once the harness returns.
  void Finish(int64_t end_ns) {
    if (log_ != nullptr && last_exit_ns_ > 0) {
      log_->Add("env", -1, last_exit_ns_, end_ns);
    }
  }

  int64_t LearnSteps() const {
    int64_t n = 0;
    if (fw_->worker_agent()) n += fw_->worker_agent()->learn_steps();
    if (fw_->requester_agent()) n += fw_->requester_agent()->learn_steps();
    return n;
  }

  Samples rank_ms;
  Samples update_ms;
  int64_t invalid_rankings = 0;
  int64_t init_end_ns = 0;
  double init_end_cpu_s = 0;
  int64_t learn_steps_at_init = 0;
  int64_t stored_at_init = 0;

 private:
  /// Spans are recorded only in the evaluation phase.
  SpanLog* eval_log() const { return last_exit_ns_ > 0 ? log_ : nullptr; }
  void EnvGap(int64_t arrival) {
    if (log_ != nullptr && last_exit_ns_ > 0) {
      log_->Add("env", arrival, last_exit_ns_, NowNs());
    }
  }
  void MarkExit() {
    if (log_ != nullptr && last_exit_ns_ > 0) last_exit_ns_ = NowNs();
  }

  TaskArrangementFramework* fw_;
  SpanLog* log_;
  bool setup_only_;
  int64_t last_exit_ns_ = 0;
  std::map<int64_t, DecisionContext> pending_;
};

/// One replay: setup (data generation, construction, history month) and,
/// unless `setup_only`, the evaluation months.
struct ReplayResult {
  double data_s = 0;
  double setup_s = 0;
  double eval_s = 0;
  double eval_cpu_s = 0;
  double total_s = 0;
  crowdrl::RunResult run;
  Samples rank_ms;
  Samples update_ms;
  int64_t invalid_rankings = 0;
  int64_t feedbacks = 0;
  int64_t learn_steps = 0;
  int64_t transitions = 0;
  int64_t replay_bytes = 0;
};

ReplayResult RunReplay(uint64_t seed, SpanLog* log, bool setup_only) {
  ReplayResult r;
  const int64_t t0 = NowNs();
  crowdrl::SyntheticConfig data_cfg;
  data_cfg.scale = kScale;
  data_cfg.eval_months = kEvalMonths;
  data_cfg.seed = kTraceSeed;
  const crowdrl::Dataset ds = crowdrl::SyntheticGenerator(data_cfg).Generate();
  if (!ds.Validate().ok()) throw std::runtime_error("invalid dataset");
  const int64_t t_data = NowNs();
  r.data_s = (t_data - t0) * 1e-9;

  crowdrl::ExperimentConfig exp_cfg;
  exp_cfg.harness.seed = seed;
  crowdrl::Experiment exp(&ds, exp_cfg);
  crowdrl::ReplayHarness harness(&ds, exp_cfg.harness);
  TaskArrangementFramework fw(
      exp.MakeFrameworkConfig(crowdrl::Objective::kBalanced), &harness,
      harness.worker_feature_dim(), harness.task_feature_dim());
  ReplayPolicy policy(&fw, log, setup_only);
  try {
    r.run = harness.Run(&policy);
  } catch (const SetupDone&) {
    r.setup_s = (policy.init_end_ns - t0) * 1e-9;
    return r;
  }
  const int64_t t_end = NowNs();
  policy.Finish(t_end);
  r.eval_cpu_s = ProcessCpuSeconds() - policy.init_end_cpu_s;
  r.setup_s = (policy.init_end_ns - t0) * 1e-9;
  r.eval_s = (t_end - policy.init_end_ns) * 1e-9;
  r.total_s = (t_end - t0) * 1e-9;
  r.rank_ms = std::move(policy.rank_ms);
  r.update_ms = std::move(policy.update_ms);
  r.invalid_rankings = policy.invalid_rankings;
  r.feedbacks = r.update_ms.count();
  r.learn_steps = policy.LearnSteps() - policy.learn_steps_at_init;
  r.transitions = fw.transitions_stored() - policy.stored_at_init;
  for (const crowdrl::DqnAgent* a : {fw.worker_agent(), fw.requester_agent()}) {
    if (a != nullptr) r.replay_bytes += static_cast<int64_t>(a->replay_bytes());
  }
  return r;
}

void CheckReplay(Report* report, const ReplayResult& r, const char* label) {
  report->Check(std::string("valid_rankings:") + label,
                r.invalid_rankings == 0,
                std::to_string(r.invalid_rankings) + " invalid of " +
                    std::to_string(r.rank_ms.count()));
  report->Check(std::string("every_arrival_fed_back:") + label,
                r.feedbacks == r.run.arrivals_evaluated &&
                    r.rank_ms.count() == r.run.arrivals_evaluated,
                std::to_string(r.feedbacks) + " feedbacks for " +
                    std::to_string(r.run.arrivals_evaluated) + " arrivals");
}

bool SameQuality(const ReplayResult& a, const ReplayResult& b) {
  return a.run.final_metrics.cr == b.run.final_metrics.cr &&
         a.run.final_metrics.qg == b.run.final_metrics.qg &&
         a.run.arrivals_evaluated == b.run.arrivals_evaluated;
}

std::string QualityText(const ReplayResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "cr=%.17g qg=%.17g",
                r.run.final_metrics.cr, r.run.final_metrics.qg);
  return buf;
}

void RunUntraced(const Options& opts, Report* report) {
  // Full replays until the evaluation phases cover --seconds as closely as
  // whole replays can (another replay only if more than half of one is
  // still missing), then setup-only repetitions until setup_s has
  // kMinSetups samples.
  std::vector<ReplayResult> runs;
  Samples setup_s;
  double measured_s = 0;
  while (runs.empty() || measured_s + runs.back().eval_s / 2 < opts.seconds) {
    const int k = static_cast<int>(runs.size());
    runs.push_back(RunReplay(ReplaySeed(opts.seed, k), nullptr, false));
    measured_s += runs.back().eval_s;
    setup_s.Add(runs.back().setup_s);
  }
  while (setup_s.count() < kMinSetups) {
    setup_s.Add(RunReplay(ReplaySeed(opts.seed, 0), nullptr, true).setup_s);
  }

  Samples rank_ms, update_ms;
  double cpu_s = 0, cr_sum = 0, qg_sum = 0;
  int64_t arrivals = 0;
  for (const ReplayResult& r : runs) {
    CheckReplay(report, r, "untraced");
    rank_ms.Append(r.rank_ms);
    update_ms.Append(r.update_ms);
    cpu_s += r.eval_cpu_s;
    cr_sum += r.run.final_metrics.cr;
    qg_sum += r.run.final_metrics.qg;
    arrivals += r.run.arrivals_evaluated;
  }
  report->Metric("setup_s", setup_s.Median(), "s");
  report->Metric("peak_rss_mb", PeakRssMib(), "MiB");
  report->Metric("rank_p50_ms", RequirePercentile(report, rank_ms, 50, "rank"), "ms");
  report->Metric("update_p50_ms", RequirePercentile(report, update_ms, 50, "update"),
                 "ms");
  report->Metric("cpu_ms_per_arrival", cpu_s * 1e3 / arrivals, "ms");
  report->Metric(kSloMetric,
                 static_cast<double>(rank_ms.CountAtMost(kSloLimitMs)) /
                     static_cast<double>(arrivals),
                 "share");
  report->Metric("qg_per_arrival", qg_sum / static_cast<double>(arrivals),
                 "gain/arrival");
  report->Count(arrivals, arrivals, 0);
  report->Info("replays", static_cast<double>(runs.size()));
  report->Info("eval.worker_cr", cr_sum / static_cast<double>(runs.size()));
  report->Info("eval.requester_qg", qg_sum / static_cast<double>(runs.size()));
  report->Info("update_p99_ms", update_ms.Percentile(99).value_or(-1));
}

}  // namespace

void RunReplayLearn(const Options& opts, Report* report) {
  if (!opts.trace) {
    RunUntraced(opts, report);
    return;
  }
  // Traced run: one untraced replay as the reference trajectory and the
  // overhead baseline, then the traced replay.
  const ReplayResult plain = RunReplay(ReplaySeed(opts.seed, 0), nullptr, false);
  SpanLog log(1 << 16);
  const ReplayResult traced = RunReplay(ReplaySeed(opts.seed, 0), &log, false);
  CheckReplay(report, plain, "untraced");
  CheckReplay(report, traced, "traced");
  report->Check("traced_reproduces_untraced", SameQuality(plain, traced),
                QualityText(traced) + " vs " + QualityText(plain));
  if (!WriteSpans(opts.trace_path, {&log})) {
    report->Check("write_spans", false, opts.trace_path);
  }

  std::map<std::string, SpanTotals> totals = TotalsByName({&log});
  auto total = [&](const char* name) -> const SpanTotals& {
    return totals[name];
  };
  const int64_t arrivals = traced.run.arrivals_evaluated;
  const double feedbacks = static_cast<double>(traced.feedbacks);
  // data + history make up the setup; env is the harness time between
  // policy calls.
  double stage_ms = traced.setup_s * 1e3 + total("env").total_ms;
  for (const char* stage : {"build", "score", "order", "mint", "apply"}) {
    stage_ms += total(stage).total_ms;
    report->Metric(std::string("core.") + stage + "_ms",
                   RequirePercentile(report, total(stage).duration_ms, 50, stage),
                   "ms");
  }
  const double wall_ms = traced.total_s * 1e3;
  report->Metric("data.generate_s", traced.data_s, "s");
  report->Metric("eval.history_s", traced.setup_s - traced.data_s, "s");
  report->Metric("eval.env_ms_per_arrival", total("env").total_ms / arrivals,
                 "ms");
  report->Metric("eval.worker_cr", traced.run.final_metrics.cr, "share");
  report->Metric("eval.requester_qg", traced.run.final_metrics.qg, "gain");
  report->Metric("rl.learn_steps_per_feedback", traced.learn_steps / feedbacks,
                 "count");
  report->Metric("rl.transitions_per_feedback", traced.transitions / feedbacks,
                 "count");
  report->Metric("rl.replay_bytes", static_cast<double>(traced.replay_bytes),
                 "bytes");
  ReportStageGap((wall_ms - stage_ms) / wall_ms, report);
  report->Metric("trace.overhead_share",
                 (traced.eval_s - plain.eval_s) / plain.eval_s, "share");
  ReportAbsentServeLayers(report);
  report->Count(arrivals, arrivals, 0);
}

}  // namespace perfbench
