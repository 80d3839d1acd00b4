#ifndef CROWDRL_EVAL_RUNNER_H_
#define CROWDRL_EVAL_RUNNER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/status.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/experiment.h"

namespace crowdrl {

/// \brief A named overlay on the evaluation environment: the knobs that
/// define one scenario variant (action mode, feedback delay, trace volume,
/// arrival/task surges) on top of a base HarnessConfig/SyntheticConfig.
///
/// Unset fields inherit the base. Scenarios are how a sweep varies the
/// *regime* (cf. DATA-WA's availability windows, bandit-style exploration
/// under sparse feedback) while seeds vary the *draws* within a regime.
struct Scenario {
  std::string name;
  std::string description;

  // ---- replay overlays ----
  std::optional<ActionMode> mode;
  std::optional<SimTime> feedback_delay_minutes;

  // ---- trace overlays (multiplicative on the base SyntheticConfig) ----
  std::optional<double> scale_multiplier;  ///< global volume multiplier
  std::optional<double> arrival_surge;     ///< × arrivals_per_month
  std::optional<double> task_surge;        ///< × tasks_per_month

  /// Returns `base` with this scenario's replay overrides applied.
  HarnessConfig Overlay(HarnessConfig base) const;
  /// Returns `base` with this scenario's trace overrides applied.
  SyntheticConfig Overlay(SyntheticConfig base) const;
};

/// The scenario every sweep can reference by name. "baseline" is the
/// paper's main setting (rank list, instant feedback, calibrated volume).
const std::vector<Scenario>& BuiltinScenarios();
/// Looks a scenario up by name among BuiltinScenarios().
Result<Scenario> FindScenario(const std::string& name);

/// Full specification of one sweep: the (method × scenario × seed) grid
/// plus the shared base configuration.
struct RunnerConfig {
  ExperimentConfig experiment;  ///< base harness + DQN sizing knobs
  SyntheticConfig synthetic;    ///< base trace calibration
  Objective objective = Objective::kWorkerBenefit;

  std::vector<std::string> methods = {"random", "greedy_cs", "ddqn"};
  std::vector<Scenario> scenarios;  ///< empty → {"baseline"}
  int num_seeds = 5;
  uint64_t base_seed = 17;

  /// 0 → ThreadPool::Global() (all cores); 1 → strictly serial on the
  /// calling thread; n → a dedicated pool of n threads.
  size_t num_threads = 0;
};

/// Sample statistics over the seeds of one grid cell.
struct SeedStats {
  double mean = 0;
  double stddev = 0;  ///< sample stddev (n−1); 0 when n < 2
  double ci95 = 0;    ///< normal-approx half width: 1.96·σ/√n
  std::vector<double> per_seed;
};
/// Mean/stddev/CI over a vector of per-seed values.
SeedStats Summarize(const std::vector<double>& values);

class JsonWriter;  // common/json.h

/// Serializes one SeedStats as `"key": {mean, stddev, ci95[, per_seed]}`
/// into an open JSON object — the shared cell shape of every sweep
/// artifact (SweepResult::ToJson and the figure benches).
void WriteSeedStats(JsonWriter* w, const char* key, const SeedStats& stats,
                    bool include_per_seed = true);

/// One (method × scenario) cell aggregated over seeds.
struct CellResult {
  std::string method;    ///< method key (grid name, not display name)
  std::string scenario;  ///< scenario name
  std::vector<uint64_t> seeds;  ///< derived per-run seeds, in run order
  std::vector<RunResult> runs;  ///< per-seed raw results, in run order
  SeedStats cr, kcr, ndcg_cr, qg, kqg, ndcg_qg;
  SeedStats completions, arrivals;
};

/// Outcome of a full sweep. `ToJson()` is deterministic — byte-identical
/// for the same (grid, base seed) regardless of thread count — so the
/// emitted artifact doubles as a reproducibility check; wall-clock numbers
/// live outside the JSON for exactly that reason.
struct SweepResult {
  Objective objective = Objective::kWorkerBenefit;
  uint64_t base_seed = 0;
  int num_seeds = 0;
  std::vector<std::string> methods;
  std::vector<Scenario> scenarios;
  std::vector<CellResult> cells;  ///< method-major, scenario-minor order

  double wall_seconds = 0;   ///< measured sweep time (not serialized)
  size_t threads_used = 0;   ///< effective parallelism (not serialized)

  const CellResult* Find(const std::string& method,
                         const std::string& scenario) const;

  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;
};

/// Aggregated Fig.6-style trace statistics for one scenario over seeds.
struct TraceStatsSweep {
  Scenario scenario;
  std::vector<uint64_t> seeds;
  struct MonthRow {
    int month = 0;
    SeedStats new_tasks, expired_tasks, worker_arrivals, avg_available_tasks;
  };
  std::vector<MonthRow> monthly;
  SeedStats total_new_tasks, total_expired_tasks, active_workers;
  SeedStats arrivals_per_month, avg_available_at_arrival;
};

/// \brief Fans a (method × scenario × seed) grid out across a thread pool
/// and aggregates the per-cell statistics.
///
/// Determinism contract: datasets are generated per (scenario, seed) from
/// seeds derived from the base seed, every run's RNG streams (the
/// method's and the harness's) derive from (base seed, scenario, seed
/// index), and results land in pre-assigned slots — so aggregate output is
/// bit-identical at 1 thread and N threads. The method is not part of the
/// derivation: the methods of one (scenario, seed) see the same arrivals
/// and the same simulated reactions, and pair seed by seed. Nested
/// parallelism (the DQN batch updates inside each run also use
/// ThreadPool::Global()) is safe: re-entrant ParallelFor runs inline.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(const RunnerConfig& config);

  /// Executes the full grid and aggregates per-cell seed statistics.
  SweepResult Run();

  /// Same grid, but with `experiment` in place of the configured base
  /// experiment knobs (the trace grid is unchanged, so the per-(scenario,
  /// seed) datasets generated on first use are reused — e.g. fig9 sweeps
  /// worker_weight variants over identical traces without regenerating).
  SweepResult Run(const ExperimentConfig& experiment);

  /// Fig. 6 companion: generates the (scenario × seed) datasets and
  /// aggregates their monthly trace statistics (no policies involved).
  TraceStatsSweep RunTraceStats(const Scenario& scenario);

  /// splitmix64-derived seed for stream `index` of `base` — consecutive
  /// indices yield statistically independent streams.
  static uint64_t DeriveSeed(uint64_t base, uint64_t index);

  const RunnerConfig& config() const { return config_; }

 private:
  /// Runs fn(i) for i in [0, n) with the configured parallelism.
  void ForEach(size_t n, const std::function<void(size_t)>& fn);
  /// Generates the per-(scenario, seed) datasets on first use.
  void EnsureDatasets();

  RunnerConfig config_;
  std::vector<Dataset> datasets_;  ///< scenario-major, seed-minor
};

/// Applies the shared sweep flags (`--methods`, `--scenarios`, `--seeds`,
/// `--seed`, `--threads`, `--scale`, `--months`, `--objective`, `--paper`)
/// on top of `base`. Unknown scenario names fail with the list of valid
/// ones.
Result<RunnerConfig> RunnerConfigFromFlags(const CliFlags& flags,
                                           RunnerConfig base);

/// "worker" / "requester" / "balanced" ↔ Objective.
std::string ObjectiveName(Objective objective);
Result<Objective> ParseObjective(const std::string& name);

}  // namespace crowdrl

#endif  // CROWDRL_EVAL_RUNNER_H_
