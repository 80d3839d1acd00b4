#include "eval/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace crowdrl {
namespace {

/// Builds CliFlags from a list of argument strings.
CliFlags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(args);
  storage.insert(storage.begin(), "runner_test");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

/// A small grid that completes in well under a second per run.
RunnerConfig TinyConfig() {
  RunnerConfig cfg;
  cfg.synthetic.scale = 0.05;
  cfg.synthetic.eval_months = 2;
  cfg.methods = {"random", "greedy_cs"};
  cfg.scenarios = {*FindScenario("baseline"), *FindScenario("assign_one")};
  cfg.num_seeds = 3;
  cfg.base_seed = 11;
  return cfg;
}

TEST(RunnerSeedTest, DerivedStreamsAreDistinctAndStable) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    seen.insert(ExperimentRunner::DeriveSeed(17, i));
  }
  EXPECT_EQ(seen.size(), 1000u);
  // Stable across calls (the determinism contract depends on it).
  EXPECT_EQ(ExperimentRunner::DeriveSeed(17, 3),
            ExperimentRunner::DeriveSeed(17, 3));
  EXPECT_NE(ExperimentRunner::DeriveSeed(17, 3),
            ExperimentRunner::DeriveSeed(18, 3));
}

TEST(RunnerStatsTest, SummarizeMatchesHandComputation) {
  SeedStats s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // Sample stddev of {1,2,3,4} = sqrt(5/3).
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * s.stddev / 2.0, 1e-12);
  EXPECT_EQ(s.per_seed.size(), 4u);

  SeedStats single = Summarize({7.0});
  EXPECT_DOUBLE_EQ(single.mean, 7.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_DOUBLE_EQ(single.ci95, 0.0);
}

TEST(RunnerScenarioTest, OverlaysApplyOnlySetFields) {
  Scenario s = *FindScenario("delayed_2h");
  HarnessConfig h;
  h.mode = ActionMode::kRankList;
  HarnessConfig overlaid = s.Overlay(h);
  EXPECT_EQ(overlaid.feedback_delay_minutes, 120);
  EXPECT_EQ(overlaid.mode, ActionMode::kRankList);  // untouched

  Scenario surge = *FindScenario("surge");
  SyntheticConfig base;
  base.arrivals_per_month = 1000;
  base.tasks_per_month = 100;
  SyntheticConfig sc = surge.Overlay(base);
  EXPECT_DOUBLE_EQ(sc.arrivals_per_month, 2000);
  EXPECT_DOUBLE_EQ(sc.tasks_per_month, 100);
}

TEST(RunnerScenarioTest, UnknownScenarioListsKnownNames) {
  Result<Scenario> r = FindScenario("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("baseline"), std::string::npos);
}

TEST(RunnerFlagsTest, ParsesGridFlags) {
  Result<RunnerConfig> r = RunnerConfigFromFlags(
      MakeFlags({"--methods=random,linucb", "--scenarios=baseline,surge",
                 "--seeds=7", "--seed=123", "--threads=2",
                 "--objective=requester", "--scale=0.5", "--months=4"}),
      RunnerConfig());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RunnerConfig& cfg = *r;
  EXPECT_EQ(cfg.methods, (std::vector<std::string>{"random", "linucb"}));
  ASSERT_EQ(cfg.scenarios.size(), 2u);
  EXPECT_EQ(cfg.scenarios[1].name, "surge");
  EXPECT_EQ(cfg.num_seeds, 7);
  EXPECT_EQ(cfg.base_seed, 123u);
  EXPECT_EQ(cfg.num_threads, 2u);
  EXPECT_EQ(cfg.objective, Objective::kRequesterBenefit);
  EXPECT_DOUBLE_EQ(cfg.synthetic.scale, 0.5);
  EXPECT_EQ(cfg.synthetic.eval_months, 4);
}

TEST(RunnerFlagsTest, ScenariosAllExpandsBuiltins) {
  Result<RunnerConfig> r =
      RunnerConfigFromFlags(MakeFlags({"--scenarios=all"}), RunnerConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scenarios.size(), BuiltinScenarios().size());
}

TEST(RunnerFlagsTest, RejectsOutOfRangeThreads) {
  EXPECT_FALSE(RunnerConfigFromFlags(MakeFlags({"--threads=-1"}),
                                     RunnerConfig())
                   .ok());
  EXPECT_FALSE(RunnerConfigFromFlags(MakeFlags({"--threads=99999"}),
                                     RunnerConfig())
                   .ok());
  EXPECT_TRUE(RunnerConfigFromFlags(MakeFlags({"--threads=0"}),
                                    RunnerConfig())
                  .ok());
}

TEST(RunnerFlagsTest, RejectsUnknownMethodAndScenario) {
  EXPECT_FALSE(RunnerConfigFromFlags(MakeFlags({"--methods=sota"}),
                                     RunnerConfig())
                   .ok());
  EXPECT_FALSE(RunnerConfigFromFlags(MakeFlags({"--scenarios=sota"}),
                                     RunnerConfig())
                   .ok());
  // Taskrec is worker-benefit-only (paper Sec. VII-A3).
  EXPECT_FALSE(RunnerConfigFromFlags(
                   MakeFlags({"--methods=taskrec", "--objective=requester"}),
                   RunnerConfig())
                   .ok());
}

TEST(RunnerSweepTest, GridShapeAndSeedIsolation) {
  RunnerConfig cfg = TinyConfig();
  cfg.num_threads = 0;
  SweepResult sweep = ExperimentRunner(cfg).Run();
  ASSERT_EQ(sweep.cells.size(), 4u);  // 2 methods × 2 scenarios
  std::set<uint64_t> all_seeds;
  for (const CellResult& c : sweep.cells) {
    EXPECT_EQ(c.runs.size(), 3u);
    EXPECT_EQ(c.seeds.size(), 3u);
    EXPECT_EQ(c.cr.per_seed.size(), 3u);
    for (uint64_t s : c.seeds) all_seeds.insert(s);
    // Multi-seed error bars exist: arrivals vary across seeds because each
    // seed generates its own trace.
    EXPECT_GT(c.arrivals.mean, 0.0);
    EXPECT_GT(c.arrivals.stddev, 0.0);
  }
  // Every (scenario, seed) got an isolated stream, shared by its methods.
  EXPECT_EQ(all_seeds.size(), 6u);
  const CellResult* cell = sweep.Find("random", "assign_one");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->method, "random");
  EXPECT_EQ(sweep.Find("random", "nope"), nullptr);
}

TEST(RunnerSweepTest, JsonIsBitIdenticalAcrossThreadCounts) {
  // The acceptance bar of this subsystem: same (seed, grid) at 1 thread
  // and N threads must aggregate to byte-identical JSON.
  RunnerConfig serial = TinyConfig();
  serial.num_threads = 1;
  RunnerConfig parallel = TinyConfig();
  parallel.num_threads = 4;
  SweepResult a = ExperimentRunner(serial).Run();
  SweepResult b = ExperimentRunner(parallel).Run();
  EXPECT_EQ(a.threads_used, 1u);
  EXPECT_EQ(b.threads_used, 4u);
  const std::string ja = a.ToJson();
  const std::string jb = b.ToJson();
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
  // And the global pool (thread count = hardware) agrees too.
  RunnerConfig global = TinyConfig();
  global.num_threads = 0;
  EXPECT_EQ(ExperimentRunner(global).Run().ToJson(), ja);
}

TEST(RunnerSweepTest, DdqnJsonIsBitIdenticalAcrossThreadCounts) {
  // ddqn is the method whose execution path actually differs by thread
  // count: its inner LearnStep ParallelFor fans out on the Global pool
  // when the runner is serial but runs inline (re-entrancy detection)
  // when the runner occupies the pool — the invariance promise must hold
  // across that difference too.
  RunnerConfig cfg;
  cfg.synthetic.scale = 0.05;
  cfg.synthetic.eval_months = 1;
  cfg.methods = {"ddqn"};
  cfg.scenarios = {*FindScenario("baseline")};
  cfg.num_seeds = 2;
  cfg.base_seed = 29;
  cfg.experiment.hidden_dim = 16;
  cfg.experiment.num_heads = 2;
  cfg.experiment.batch_size = 8;
  cfg.experiment.learn_every = 8;

  RunnerConfig serial = cfg;
  serial.num_threads = 1;
  RunnerConfig global = cfg;
  global.num_threads = 0;
  const std::string ja = ExperimentRunner(serial).Run().ToJson();
  const std::string jb = ExperimentRunner(global).Run().ToJson();
  EXPECT_EQ(ja, jb);
}

/// The JSON of one cell, as a one-cell sweep.
std::string CellJson(const SweepResult& sweep, const CellResult& cell) {
  SweepResult one = sweep;
  one.methods = {cell.method};
  one.cells = {cell};
  return one.ToJson();
}

TEST(RunnerSweepTest, ReorderingMethodsLeavesEveryCellUnchanged) {
  RunnerConfig forward = TinyConfig();
  forward.methods = {"random", "greedy_cs", "linucb"};
  RunnerConfig backward = forward;
  backward.methods = {"linucb", "greedy_cs", "random"};
  const SweepResult a = ExperimentRunner(forward).Run();
  const SweepResult b = ExperimentRunner(backward).Run();
  ASSERT_EQ(a.cells.size(), 6u);
  for (const CellResult& cell : a.cells) {
    const CellResult* other = b.Find(cell.method, cell.scenario);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(CellJson(a, cell), CellJson(b, *other))
        << cell.method << " / " << cell.scenario;
  }
}

TEST(RunnerSweepTest, MethodsOfOneColumnShareSeedsAndArrivals) {
  // "random" twice: the same method in two rows of one column replays the
  // same arrivals under the same harness seed, so its cells are identical.
  RunnerConfig cfg = TinyConfig();
  cfg.methods = {"random", "greedy_cs", "random"};
  const SweepResult sweep = ExperimentRunner(cfg).Run();
  const size_t scenarios = cfg.scenarios.size();
  ASSERT_EQ(sweep.cells.size(), 3 * scenarios);
  for (size_t s = 0; s < scenarios; ++s) {
    const CellResult& first = sweep.cells[s];
    const CellResult& greedy = sweep.cells[scenarios + s];
    const CellResult& again = sweep.cells[2 * scenarios + s];
    EXPECT_EQ(greedy.seeds, first.seeds);
    ASSERT_EQ(greedy.runs.size(), first.runs.size());
    for (size_t k = 0; k < first.runs.size(); ++k) {
      EXPECT_EQ(greedy.runs[k].arrivals_evaluated,
                first.runs[k].arrivals_evaluated);
    }
    EXPECT_EQ(CellJson(sweep, again), CellJson(sweep, first));
  }
}

TEST(RunnerSweepTest, VariantRunReusesDatasetsAndChangesOutcome) {
  // Run(experiment) sweeps an experiment variant over the same traces:
  // grid shape and seeds are identical, and at least the DDQN-independent
  // cells (same method, same data, same harness seed) must match exactly.
  RunnerConfig cfg = TinyConfig();
  cfg.methods = {"random"};
  ExperimentRunner runner(cfg);
  SweepResult base = runner.Run();
  ExperimentConfig variant = cfg.experiment;
  variant.worker_weight = 0.75;  // irrelevant to "random"
  SweepResult reran = runner.Run(variant);
  EXPECT_EQ(base.ToJson(), reran.ToJson());
}

TEST(RunnerSweepTest, ScenarioOverlaysChangeOutcomes) {
  // assign_one only completes top-ranked tasks, so realized completions
  // must drop versus the rank-list baseline for the same method/seeds.
  RunnerConfig cfg = TinyConfig();
  cfg.methods = {"random"};
  SweepResult sweep = ExperimentRunner(cfg).Run();
  const CellResult* base = sweep.Find("random", "baseline");
  const CellResult* assign = sweep.Find("random", "assign_one");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(assign, nullptr);
  EXPECT_LT(assign->completions.mean, base->completions.mean);
}

TEST(RunnerSweepTest, JsonContainsSchemaAndCells) {
  RunnerConfig cfg = TinyConfig();
  cfg.methods = {"random"};
  cfg.scenarios = {*FindScenario("baseline")};
  cfg.num_seeds = 2;
  SweepResult sweep = ExperimentRunner(cfg).Run();
  const std::string json = sweep.ToJson();
  EXPECT_NE(json.find("\"schema\":\"crowdrl.scenario_sweep.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"method\":\"random\""), std::string::npos);
  EXPECT_NE(json.find("\"ci95\""), std::string::npos);
  EXPECT_NE(json.find("\"per_seed\""), std::string::npos);
  // Wall-clock (nondeterministic) must stay out of the artifact.
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(RunnerTraceStatsTest, AggregatesMonthlyVolumeOverSeeds) {
  RunnerConfig cfg = TinyConfig();
  cfg.num_seeds = 3;
  ExperimentRunner runner(cfg);
  TraceStatsSweep stats = runner.RunTraceStats(*FindScenario("baseline"));
  ASSERT_FALSE(stats.monthly.empty());
  EXPECT_EQ(stats.seeds.size(), 3u);
  EXPECT_GT(stats.total_new_tasks.mean, 0.0);
  EXPECT_GT(stats.arrivals_per_month.mean, 0.0);
  EXPECT_GT(stats.avg_available_at_arrival.mean, 0.0);

  // The surge scenario doubles arrivals but not the task supply.
  TraceStatsSweep surge = runner.RunTraceStats(*FindScenario("surge"));
  EXPECT_GT(surge.arrivals_per_month.mean,
            1.5 * stats.arrivals_per_month.mean);
  EXPECT_NEAR(surge.total_new_tasks.mean, stats.total_new_tasks.mean,
              0.35 * stats.total_new_tasks.mean);
}

}  // namespace
}  // namespace crowdrl
