#include "eval/runner.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>

#include "common/check.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace crowdrl {

namespace {

const char* ActionModeName(ActionMode mode) {
  return mode == ActionMode::kAssignOne ? "assign_one" : "rank_list";
}

/// Methods Experiment::RunMethod understands.
const std::vector<std::string>& KnownMethods() {
  static const std::vector<std::string> kMethods = {
      "random", "taskrec", "greedy_cs", "greedy_nn",
      "linucb", "ddqn",    "oracle"};
  return kMethods;
}

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void WriteScenario(JsonWriter* w, const Scenario& s) {
  w->BeginObject();
  w->KV("name", s.name);
  w->KV("description", s.description);
  if (s.mode) w->KV("mode", ActionModeName(*s.mode));
  if (s.feedback_delay_minutes) {
    w->KV("feedback_delay_minutes",
          static_cast<int64_t>(*s.feedback_delay_minutes));
  }
  if (s.scale_multiplier) w->KV("scale_multiplier", *s.scale_multiplier);
  if (s.arrival_surge) w->KV("arrival_surge", *s.arrival_surge);
  if (s.task_surge) w->KV("task_surge", *s.task_surge);
  w->EndObject();
}

}  // namespace

HarnessConfig Scenario::Overlay(HarnessConfig base) const {
  if (mode) base.mode = *mode;
  if (feedback_delay_minutes) {
    base.feedback_delay_minutes = *feedback_delay_minutes;
  }
  return base;
}

SyntheticConfig Scenario::Overlay(SyntheticConfig base) const {
  if (scale_multiplier) base.scale *= *scale_multiplier;
  if (arrival_surge) base.arrivals_per_month *= *arrival_surge;
  if (task_surge) base.tasks_per_month *= *task_surge;
  return base;
}

const std::vector<Scenario>& BuiltinScenarios() {
  static const std::vector<Scenario>* kScenarios = [] {
    auto* v = new std::vector<Scenario>;
    {
      Scenario s;
      s.name = "baseline";
      s.description = "paper main setting: ranked list, instant feedback";
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "assign_one";
      s.description = "platform assigns only the top-ranked task (CR/QG)";
      s.mode = ActionMode::kAssignOne;
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "delayed_2h";
      s.description =
          "Sec. IX future-work regime: completions settle two hours late";
      s.feedback_delay_minutes = 120;
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "delayed_1d";
      s.description = "completions settle a full day late (stale state)";
      s.feedback_delay_minutes = 24 * 60;
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "surge";
      s.description = "worker arrivals double while the task supply stays "
                      "calibrated (demand spike)";
      s.arrival_surge = 2.0;
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "quiet";
      s.description = "worker arrivals halve (sparse feedback regime)";
      s.arrival_surge = 0.5;
      v->push_back(s);
    }
    {
      Scenario s;
      s.name = "task_drought";
      s.description = "task supply halves while arrivals stay calibrated";
      s.task_surge = 0.5;
      v->push_back(s);
    }
    return v;
  }();
  return *kScenarios;
}

Result<Scenario> FindScenario(const std::string& name) {
  std::string known;
  for (const Scenario& s : BuiltinScenarios()) {
    if (s.name == name) return s;
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  return Status::NotFound("unknown scenario '" + name + "' (known: " + known +
                          ")");
}

void WriteSeedStats(JsonWriter* w, const char* key, const SeedStats& stats,
                    bool include_per_seed) {
  w->Key(key).BeginObject();
  w->KV("mean", stats.mean);
  w->KV("stddev", stats.stddev);
  w->KV("ci95", stats.ci95);
  if (include_per_seed) {
    w->Key("per_seed").BeginArray();
    for (double v : stats.per_seed) w->Double(v);
    w->EndArray();
  }
  w->EndObject();
}

SeedStats Summarize(const std::vector<double>& values) {
  SeedStats out;
  out.per_seed = values;
  const size_t n = values.size();
  if (n == 0) return out;
  double sum = 0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double sq = 0;
    for (double v : values) sq += (v - out.mean) * (v - out.mean);
    out.stddev = std::sqrt(sq / static_cast<double>(n - 1));
    out.ci95 = 1.96 * out.stddev / std::sqrt(static_cast<double>(n));
  }
  return out;
}

const CellResult* SweepResult::Find(const std::string& method,
                                    const std::string& scenario) const {
  for (const CellResult& c : cells) {
    if (c.method == method && c.scenario == scenario) return &c;
  }
  return nullptr;
}

std::string SweepResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "crowdrl.scenario_sweep.v1");
  w.KV("objective", ObjectiveName(objective));
  w.KV("base_seed", base_seed);
  w.KV("num_seeds", num_seeds);
  w.Key("methods").BeginArray();
  for (const std::string& m : methods) w.String(m);
  w.EndArray();
  w.Key("scenarios").BeginArray();
  for (const Scenario& s : scenarios) WriteScenario(&w, s);
  w.EndArray();
  w.Key("cells").BeginArray();
  for (const CellResult& c : cells) {
    w.BeginObject();
    w.KV("method", c.method);
    w.KV("scenario", c.scenario);
    w.Key("seeds").BeginArray();
    for (uint64_t s : c.seeds) w.UInt(s);
    w.EndArray();
    w.Key("metrics").BeginObject();
    WriteSeedStats(&w, "cr", c.cr);
    WriteSeedStats(&w, "kcr", c.kcr);
    WriteSeedStats(&w, "ndcg_cr", c.ndcg_cr);
    WriteSeedStats(&w, "qg", c.qg);
    WriteSeedStats(&w, "kqg", c.kqg);
    WriteSeedStats(&w, "ndcg_qg", c.ndcg_qg);
    WriteSeedStats(&w, "completions", c.completions);
    WriteSeedStats(&w, "arrivals_evaluated", c.arrivals);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status SweepResult::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f.is_open()) return Status::IoError("cannot open " + path);
  f << ToJson() << "\n";
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

ExperimentRunner::ExperimentRunner(const RunnerConfig& config)
    : config_(config) {
  CROWDRL_CHECK_MSG(config_.num_seeds > 0, "num_seeds must be positive");
  CROWDRL_CHECK_MSG(!config_.methods.empty(), "methods must not be empty");
  if (config_.scenarios.empty()) {
    config_.scenarios.push_back(*FindScenario("baseline"));
  }
}

uint64_t ExperimentRunner::DeriveSeed(uint64_t base, uint64_t index) {
  // splitmix64 over base-offset streams: well distributed even for small
  // consecutive (base, index) pairs, and cheap enough to call per run.
  uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ExperimentRunner::ForEach(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (config_.num_threads == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (config_.num_threads == 0) {
    ThreadPool::Global().ParallelFor(n, fn);
    return;
  }
  ThreadPool pool(config_.num_threads);
  pool.ParallelFor(n, fn);
}

namespace {
/// Stream offsets so dataset generation and run execution never share a
/// derived seed even when grid sizes collide.
constexpr uint64_t kDatasetStream = 0xDA7A5E7500000000ULL;
constexpr uint64_t kRunStream = 0x0000000000000000ULL;
}  // namespace

void ExperimentRunner::EnsureDatasets() {
  if (!datasets_.empty()) return;
  const RunnerConfig& cfg = config_;
  const size_t seeds = static_cast<size_t>(cfg.num_seeds);
  // One dataset per (scenario, seed), shared by every method (and every
  // experiment variant) so comparisons within a cell column are apples to
  // apples.
  datasets_.resize(cfg.scenarios.size() * seeds);
  ForEach(datasets_.size(), [&](size_t i) {
    const size_t s = i / seeds;
    SyntheticConfig sc = cfg.scenarios[s].Overlay(cfg.synthetic);
    sc.seed = DeriveSeed(cfg.base_seed, kDatasetStream + i);
    datasets_[i] = SyntheticGenerator(sc).Generate();
    CROWDRL_CHECK(datasets_[i].Validate().ok());
  });
}

SweepResult ExperimentRunner::Run() { return Run(config_.experiment); }

SweepResult ExperimentRunner::Run(const ExperimentConfig& experiment) {
  const RunnerConfig& cfg = config_;
  const size_t num_methods = cfg.methods.size();
  const size_t num_scenarios = cfg.scenarios.size();
  const size_t seeds = static_cast<size_t>(cfg.num_seeds);

  SweepResult out;
  out.objective = cfg.objective;
  out.base_seed = cfg.base_seed;
  out.num_seeds = cfg.num_seeds;
  out.methods = cfg.methods;
  out.scenarios = cfg.scenarios;
  out.threads_used = cfg.num_threads == 0 ? ThreadPool::Global().num_threads()
                                          : cfg.num_threads;

  Stopwatch sweep_sw;

  // Phase 1: (scenario × seed) datasets, generated once per runner.
  EnsureDatasets();

  // Phase 2: the full (method × scenario × seed) grid. Each run's seeds
  // derive from (base seed, scenario, seed index), not from the method:
  // every method of a column replays the same arrivals and simulated
  // reactions (common random numbers), so methods compare pairwise and a
  // method's numbers do not move when the method list is reordered. Each
  // run writes into its pre-assigned slot — results cannot depend on
  // thread count.
  const size_t total_runs = num_methods * num_scenarios * seeds;
  std::vector<RunResult> runs(total_runs);
  std::vector<uint64_t> run_seeds(total_runs);
  ForEach(total_runs, [&](size_t r) {
    const size_t m = r / (num_scenarios * seeds);
    const size_t s = (r / seeds) % num_scenarios;
    const size_t k = r % seeds;
    ExperimentConfig ec = experiment;
    ec.harness = cfg.scenarios[s].Overlay(ec.harness);
    const uint64_t run_seed =
        DeriveSeed(cfg.base_seed, kRunStream + s * seeds + k);
    ec.seed = run_seed;
    ec.harness.seed = DeriveSeed(run_seed, 1);
    run_seeds[r] = run_seed;
    Experiment exp(&datasets_[s * seeds + k], ec);
    runs[r] = exp.RunMethod(cfg.methods[m], cfg.objective).run;
  });

  // Phase 3: deterministic-order aggregation into per-cell seed stats.
  for (size_t m = 0; m < num_methods; ++m) {
    for (size_t s = 0; s < num_scenarios; ++s) {
      CellResult cell;
      cell.method = cfg.methods[m];
      cell.scenario = cfg.scenarios[s].name;
      std::vector<double> cr, kcr, ndcg_cr, qg, kqg, ndcg_qg, comp, arr;
      for (size_t k = 0; k < seeds; ++k) {
        const size_t r = (m * num_scenarios + s) * seeds + k;
        cell.seeds.push_back(run_seeds[r]);
        cell.runs.push_back(runs[r]);
        const MetricValues& v = runs[r].final_metrics;
        cr.push_back(v.cr);
        kcr.push_back(v.kcr);
        ndcg_cr.push_back(v.ndcg_cr);
        qg.push_back(v.qg);
        kqg.push_back(v.kqg);
        ndcg_qg.push_back(v.ndcg_qg);
        comp.push_back(static_cast<double>(runs[r].completions));
        arr.push_back(static_cast<double>(runs[r].arrivals_evaluated));
      }
      cell.cr = Summarize(cr);
      cell.kcr = Summarize(kcr);
      cell.ndcg_cr = Summarize(ndcg_cr);
      cell.qg = Summarize(qg);
      cell.kqg = Summarize(kqg);
      cell.ndcg_qg = Summarize(ndcg_qg);
      cell.completions = Summarize(comp);
      cell.arrivals = Summarize(arr);
      out.cells.push_back(std::move(cell));
    }
  }

  out.wall_seconds = sweep_sw.ElapsedSeconds();
  CROWDRL_LOG(kInfo) << "sweep: " << total_runs << " runs ("
                     << num_methods << " methods x " << num_scenarios
                     << " scenarios x " << seeds << " seeds) in "
                     << out.wall_seconds << "s on " << out.threads_used
                     << " threads";
  return out;
}

TraceStatsSweep ExperimentRunner::RunTraceStats(const Scenario& scenario) {
  const size_t seeds = static_cast<size_t>(config_.num_seeds);
  TraceStatsSweep out;
  out.scenario = scenario;

  // Reuse the grid's shared datasets when the scenario is part of it, so
  // fig6-style volume statistics describe exactly the traces the policy
  // sweeps replay.
  size_t grid_pos = config_.scenarios.size();
  for (size_t s = 0; s < config_.scenarios.size(); ++s) {
    if (config_.scenarios[s].name == scenario.name) {
      grid_pos = s;
      break;
    }
  }
  if (grid_pos < config_.scenarios.size()) EnsureDatasets();

  std::vector<std::vector<MonthlyStats>> monthly(seeds);
  std::vector<double> active(seeds);
  out.seeds.resize(seeds);
  ForEach(seeds, [&](size_t k) {
    const uint64_t stream = grid_pos < config_.scenarios.size()
                                ? grid_pos * seeds + k
                                : k;
    const uint64_t seed = DeriveSeed(config_.base_seed, kDatasetStream + stream);
    out.seeds[k] = seed;
    Dataset scratch;
    const Dataset* ds;
    if (grid_pos < config_.scenarios.size()) {
      ds = &datasets_[grid_pos * seeds + k];
    } else {
      SyntheticConfig sc = scenario.Overlay(config_.synthetic);
      sc.seed = seed;
      scratch = SyntheticGenerator(sc).Generate();
      CROWDRL_CHECK(scratch.Validate().ok());
      ds = &scratch;
    }
    monthly[k] = TraceStats::Monthly(*ds);
    active[k] = static_cast<double>(TraceStats::ActiveWorkers(*ds));
  });

  size_t months = monthly.empty() ? 0 : monthly[0].size();
  for (const auto& m : monthly) months = std::min(months, m.size());

  std::vector<double> tot_new(seeds, 0), tot_exp(seeds, 0),
      tot_arr(seeds, 0), avail_w(seeds, 0);
  for (size_t mo = 0; mo < months; ++mo) {
    TraceStatsSweep::MonthRow row;
    row.month = monthly[0][mo].month;
    std::vector<double> nt(seeds), et(seeds), wa(seeds), av(seeds);
    for (size_t k = 0; k < seeds; ++k) {
      const MonthlyStats& m = monthly[k][mo];
      nt[k] = static_cast<double>(m.new_tasks);
      et[k] = static_cast<double>(m.expired_tasks);
      wa[k] = static_cast<double>(m.worker_arrivals);
      av[k] = m.avg_available_tasks;
      tot_new[k] += nt[k];
      tot_exp[k] += et[k];
      tot_arr[k] += wa[k];
      avail_w[k] += m.avg_available_tasks *
                    static_cast<double>(m.worker_arrivals);
    }
    row.new_tasks = Summarize(nt);
    row.expired_tasks = Summarize(et);
    row.worker_arrivals = Summarize(wa);
    row.avg_available_tasks = Summarize(av);
    out.monthly.push_back(std::move(row));
  }

  std::vector<double> arr_per_month(seeds), avg_avail(seeds);
  for (size_t k = 0; k < seeds; ++k) {
    arr_per_month[k] =
        months > 0 ? tot_arr[k] / static_cast<double>(months) : 0.0;
    avg_avail[k] = tot_arr[k] > 0 ? avail_w[k] / tot_arr[k] : 0.0;
  }
  out.total_new_tasks = Summarize(tot_new);
  out.total_expired_tasks = Summarize(tot_exp);
  out.active_workers = Summarize(active);
  out.arrivals_per_month = Summarize(arr_per_month);
  out.avg_available_at_arrival = Summarize(avg_avail);
  return out;
}

std::string ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kWorkerBenefit:
      return "worker";
    case Objective::kRequesterBenefit:
      return "requester";
    case Objective::kBalanced:
      return "balanced";
  }
  return "worker";
}

Result<Objective> ParseObjective(const std::string& name) {
  if (name == "worker") return Objective::kWorkerBenefit;
  if (name == "requester") return Objective::kRequesterBenefit;
  if (name == "balanced") return Objective::kBalanced;
  return Status::InvalidArgument(
      "unknown objective '" + name + "' (worker|requester|balanced)");
}

Result<RunnerConfig> RunnerConfigFromFlags(const CliFlags& flags,
                                           RunnerConfig base) {
  RunnerConfig cfg = std::move(base);

  cfg.synthetic.scale = flags.GetDouble("scale", cfg.synthetic.scale);
  cfg.synthetic.eval_months = static_cast<int>(
      flags.GetInt("months", cfg.synthetic.eval_months));
  if (flags.GetBool("paper", false)) {
    cfg.synthetic.scale = 1.0;
    cfg.synthetic.eval_months = 12;
    cfg.experiment.UsePaperScale();
  }

  cfg.num_seeds = static_cast<int>(flags.GetInt(
      "seeds", cfg.num_seeds, "independent seeds per grid cell"));
  if (cfg.num_seeds <= 0) {
    return Status::InvalidArgument("--seeds must be positive");
  }
  cfg.base_seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(cfg.base_seed)));
  const int64_t threads =
      flags.GetInt("threads", static_cast<int64_t>(cfg.num_threads),
                   "0 = all cores, 1 = serial, n = dedicated pool");
  if (threads < 0 || threads > 4096) {
    return Status::InvalidArgument(
        "--threads must be in [0, 4096] (0 = all cores)");
  }
  cfg.num_threads = static_cast<size_t>(threads);

  if (flags.Has("objective")) {
    CROWDRL_ASSIGN_OR_RETURN(
        cfg.objective,
        ParseObjective(flags.GetString("objective", "worker",
                                       "worker | requester | balanced")));
  }

  if (flags.Has("methods")) {
    cfg.methods = SplitCommaList(flags.GetString(
        "methods", "",
        "comma list: random,taskrec,greedy_cs,greedy_nn,linucb,ddqn,oracle,"
        "sharded_<S>x<M>"));
    if (cfg.methods.empty()) {
      return Status::InvalidArgument("--methods must name at least one");
    }
  }
  for (const std::string& m : cfg.methods) {
    int shards = 0, sessions = 0;
    if (ParseShardedMethod(m, &shards, &sessions)) continue;
    if (std::find(KnownMethods().begin(), KnownMethods().end(), m) ==
        KnownMethods().end()) {
      std::string known;
      for (const std::string& k : KnownMethods()) {
        if (!known.empty()) known += ", ";
        known += k;
      }
      return Status::InvalidArgument("unknown method '" + m + "' (known: " +
                                     known + ", sharded_<S>x<M>)");
    }
    if (m == "taskrec" && cfg.objective != Objective::kWorkerBenefit) {
      return Status::InvalidArgument(
          "taskrec only supports --objective=worker");
    }
  }

  if (flags.Has("scenarios")) {
    cfg.scenarios.clear();
    const std::string list = flags.GetString(
        "scenarios", "baseline", "comma list of named scenario overlays");
    if (list == "all") {
      cfg.scenarios = BuiltinScenarios();
    } else {
      for (const std::string& name : SplitCommaList(list)) {
        CROWDRL_ASSIGN_OR_RETURN(Scenario s, FindScenario(name));
        cfg.scenarios.push_back(std::move(s));
      }
    }
  }
  if (cfg.scenarios.empty()) {
    cfg.scenarios.push_back(*FindScenario("baseline"));
  }
  return cfg;
}

}  // namespace crowdrl
