#include "core/future_predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

namespace crowdrl {
namespace {

// Minimal EnvView over synthetic fixtures.
class FakeEnv : public EnvView {
 public:
  FakeEnv(FeatureBuilder* fb, std::vector<double> worker_quality)
      : fb_(fb), wq_(std::move(worker_quality)) {}
  const FeatureBuilder& features() const override { return *fb_; }
  double WorkerQuality(WorkerId w) const override { return wq_[w]; }
  double TaskQuality(TaskId) const override { return 0.5; }
  SimTime now() const override { return 0; }

 private:
  FeatureBuilder* fb_;
  std::vector<double> wq_;
};

struct Fixture {
  FeatureConfig fcfg;
  FeatureBuilder fb;
  std::vector<std::vector<float>> task_feats;
  Observation obs;

  Fixture(int num_tasks, SimTime now, std::vector<SimTime> deadlines)
      : fcfg([] {
          FeatureConfig c;
          c.num_categories = 3;
          c.num_domains = 2;
          c.award_buckets = 2;
          return c;
        }()),
        fb(fcfg, /*num_workers=*/4, /*num_tasks=*/16) {
    obs.time = now;
    obs.worker = 0;
    obs.worker_quality = 0.5;
    obs.worker_features.assign(fb.worker_dim(), 0.1f);
    task_feats.resize(num_tasks);
    for (int i = 0; i < num_tasks; ++i) {
      task_feats[i].assign(fb.task_dim(), 0.0f);
      task_feats[i][i % fb.task_dim()] = 1.0f;
      TaskSnapshot snap;
      snap.id = i;
      snap.deadline = deadlines[i];
      snap.features = &task_feats[i];
      snap.quality = 0.2;
      obs.tasks.push_back(snap);
    }
  }
};

TEST(ExpirySegmentsTest, NoDeadlinesInsideSupportIsOneSegment) {
  GapHistogram gaps(0, 60, 1, 0.5);
  gaps.Add(10);
  // Both tasks expire far beyond the support.
  auto segs = FutureStatePredictor::ExpirySegments({5000, 4000}, gaps, 8);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].first, 2u);
  EXPECT_NEAR(segs[0].second, 1.0, 1e-6);
}

TEST(ExpirySegmentsTest, DeadlineInsideSupportSplitsMass) {
  GapHistogram gaps(0, 99, 1, 0.0);
  for (int g = 0; g < 100; ++g) gaps.Add(g);  // uniform over [0,99]
  // One task expires at gap 50, one far out.
  auto segs = FutureStatePredictor::ExpirySegments({500, 50}, gaps, 8);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].first, 2u);  // both alive before 50
  EXPECT_NEAR(segs[0].second, 0.5, 0.02);
  EXPECT_EQ(segs[1].first, 1u);  // one alive after
  EXPECT_NEAR(segs[1].second, 0.5, 0.02);
}

TEST(ExpirySegmentsTest, AlreadyExpiredTasksNeverAppear) {
  GapHistogram gaps(1, 100, 1, 0.0);
  for (int g = 1; g <= 100; ++g) gaps.Add(g);
  // Deadlines at relative time 0 are dead for every future gap.
  auto segs = FutureStatePredictor::ExpirySegments({200, 0, 0}, gaps, 8);
  for (const auto& [n, p] : segs) {
    EXPECT_EQ(n, 1u);
    EXPECT_GT(p, 0.0f);
  }
}

TEST(ExpirySegmentsTest, MergesDownToCap) {
  GapHistogram gaps(1, 1000, 1, 0.0);
  for (int g = 1; g <= 1000; ++g) gaps.Add(g);
  std::vector<SimTime> deadlines;
  for (int i = 20; i >= 1; --i) deadlines.push_back(i * 40);  // 20 cuts
  auto segs = FutureStatePredictor::ExpirySegments(deadlines, gaps, 5);
  EXPECT_LE(segs.size(), 5u);
  double mass = 0;
  for (const auto& [n, p] : segs) mass += p;
  // Gaps beyond the last deadline (800) leave an empty pool: that 20% of
  // probability mass contributes no future term, by design.
  EXPECT_NEAR(mass, 0.8, 0.05);
  // valid_n decreases over segments.
  for (size_t i = 1; i < segs.size(); ++i) {
    EXPECT_LE(segs[i].first, segs[i - 1].first);
  }
}

TEST(ExpirySegmentsTest, AllTasksExpiredGivesNoSegments) {
  GapHistogram gaps(1, 100, 1, 0.0);
  gaps.Add(50);
  auto segs = FutureStatePredictor::ExpirySegments({1, 1}, gaps, 4);
  EXPECT_TRUE(segs.empty());
}

TEST(PredictorTest, SameWorkerSpecUsesUpdatedFeature) {
  Fixture fx(3, /*now=*/1000, {1000 + 20000, 1000 + 30000, 1000 + 40000});
  StateConfig scfg;
  StateTransformer st(scfg, fx.fb.worker_dim(), fx.fb.task_dim());
  FutureStatePredictor predictor(PredictorConfig{}, &st);

  ArrivalModel arrivals;
  arrivals.RecordArrival(0, 500);
  arrivals.RecordArrival(0, 500 + 1440);  // 1-day return habit

  std::vector<float> updated(fx.fb.worker_dim(), 0.7f);
  auto spec = predictor.PredictSameWorker(fx.obs, updated, 0.5, arrivals);
  ASSERT_EQ(spec.branches.size(), 1u);
  const auto& branch = spec.branches[0];
  // Deadlines beyond one week ⇒ single segment, all three tasks alive.
  ASSERT_FALSE(branch.segments.empty());
  EXPECT_EQ(branch.segments[0].first, 3u);
  // Worker part of every row is the *updated* feature.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(branch.base(r, 0), 0.7f);
  }
  EXPECT_NEAR(spec.TotalMass(), 1.0, 1e-5);
}

TEST(PredictorTest, SameWorkerSpecSplitsAtDeadlines) {
  // One task expires 2 days out — within φ's one-week support.
  Fixture fx(2, /*now=*/0, {2 * kMinutesPerDay, 30 * kMinutesPerDay});
  StateTransformer st(StateConfig{}, fx.fb.worker_dim(), fx.fb.task_dim());
  FutureStatePredictor predictor(PredictorConfig{}, &st);

  ArrivalModel arrivals;
  arrivals.RecordArrival(0, 0);
  for (int i = 1; i <= 20; ++i) {
    arrivals.RecordArrival(0, i * 1440);  // daily returns
  }

  std::vector<float> fw(fx.fb.worker_dim(), 0.3f);
  auto spec = predictor.PredictSameWorker(fx.obs, fw, 0.5, arrivals);
  ASSERT_EQ(spec.branches.size(), 1u);
  ASSERT_EQ(spec.branches[0].segments.size(), 2u);
  EXPECT_EQ(spec.branches[0].segments[0].first, 2u);
  EXPECT_EQ(spec.branches[0].segments[1].first, 1u);
  // Rows are ordered by deadline descending: row 0 = task 1 (later).
  EXPECT_EQ(spec.branches[0].base.rows(), 2u);
}

TEST(PredictorTest, NextWorkerExpectationBlendsSeenWorkers) {
  Fixture fx(2, /*now=*/10000, {10000 + 90000, 10000 + 80000});
  StateConfig scfg;
  scfg.include_quality = true;
  StateTransformer st(scfg, fx.fb.worker_dim(), fx.fb.task_dim());
  PredictorConfig pcfg;  // expectation mode
  FutureStatePredictor predictor(pcfg, &st);

  ArrivalModel arrivals;
  arrivals.RecordArrival(1, 9000);
  arrivals.RecordArrival(2, 9500);
  arrivals.RecordArrival(1, 9990);
  // Give workers distinct features.
  Task t1;
  t1.id = 0;
  t1.category = 0;
  t1.domain = 0;
  t1.award = 100;
  fx.fb.RecordCompletion(1, t1, 9000);
  Task t2 = t1;
  t2.id = 1;
  t2.category = 2;
  fx.fb.RecordCompletion(2, t2, 9500);

  FakeEnv env(&fx.fb, {0.5, 0.9, 0.1, 0.5});
  auto spec = predictor.PredictNextWorker(fx.obs, arrivals, env);
  ASSERT_EQ(spec.branches.size(), 1u);
  const auto& base = spec.branches[0].base;
  // The expected worker feature must mix category 0 (worker 1) and
  // category 2 (worker 2) mass.
  EXPECT_GT(base(0, 0), 0.0f);
  EXPECT_GT(base(0, 2), 0.0f);
  // Quality channel is the blended expected q_w, strictly inside (0.1,0.9).
  const size_t qcol = fx.fb.worker_dim() + fx.fb.task_dim();
  EXPECT_GT(base(0, qcol), 0.1f);
  EXPECT_LT(base(0, qcol), 0.9f);
}

TEST(PredictorTest, NextWorkerTopKProducesBranches) {
  Fixture fx(2, /*now=*/10000, {10000 + 90000, 10000 + 80000});
  StateConfig scfg;
  scfg.include_quality = true;
  StateTransformer st(scfg, fx.fb.worker_dim(), fx.fb.task_dim());
  PredictorConfig pcfg;
  pcfg.next_worker_top_k = 2;
  FutureStatePredictor predictor(pcfg, &st);

  ArrivalModel arrivals;
  // Two rounds so returning workers exist and p_new < 1.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      arrivals.RecordArrival(i, 8000 + round * 500 + i * 100);
    }
  }
  FakeEnv env(&fx.fb, {0.2, 0.5, 0.8, 0.5});
  auto spec = predictor.PredictNextWorker(fx.obs, arrivals, env);
  // 2 worker branches + 1 new-worker branch (p_new > 0 early on).
  EXPECT_GE(spec.branches.size(), 2u);
  EXPECT_LE(spec.branches.size(), 3u);
  EXPECT_LE(spec.TotalMass(), 1.0 + 1e-5);
  EXPECT_GT(spec.TotalMass(), 0.5);
}

// The MDP(r) next-worker expectation as three sweeps over the seen workers
// (a weight sweep through LastArrivalOf, a mean-feature sweep, then an
// expectation sweep rendering each weighted worker's feature again): the
// reference the one-pass PredictNextWorker must match bit for bit.
FutureStateSpec ThreeSweepPredictNextWorker(
    const PredictorConfig& config, const StateTransformer& transformer,
    const Observation& obs, const ArrivalModel& arrivals, const EnvView& env) {
  FutureStateSpec spec;
  if (obs.tasks.empty()) return spec;
  std::vector<int> order(obs.tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (obs.tasks[a].deadline != obs.tasks[b].deadline) {
      return obs.tasks[a].deadline > obs.tasks[b].deadline;
    }
    return a < b;
  });
  const size_t cap = transformer.config().max_tasks;
  if (cap > 0 && order.size() > cap) order.resize(cap);

  const GapHistogram& varphi = arrivals.any_gap();
  const SimTime next_time = obs.time + static_cast<SimTime>(varphi.Mean());
  std::vector<SimTime> rel;
  for (int idx : order) {
    rel.push_back(std::max<SimTime>(0, obs.tasks[idx].deadline - obs.time));
  }
  auto segments =
      FutureStatePredictor::ExpirySegments(rel, varphi, config.max_segments);
  if (segments.empty()) return spec;

  const auto& fb = env.features();
  const auto& seen = arrivals.seen_workers();
  const double p_new = arrivals.new_worker_rate();
  std::vector<double> weight(seen.size(), 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < seen.size(); ++i) {
    const SimTime last = arrivals.LastArrivalOf(seen[i]);
    if (last < 0) continue;
    const SimTime g = std::max<SimTime>(1, next_time - last);
    weight[i] = arrivals.SameWorkerReturnProb(g);
    weight_sum += weight[i];
  }

  const size_t dim = fb.worker_dim();
  std::vector<float> mean_feature(dim, 0.0f);
  double mean_quality = 0.5;
  if (!seen.empty()) {
    std::vector<float> buf;
    for (int w : seen) {
      fb.WorkerFeatureInto(w, next_time, &buf);
      for (size_t i = 0; i < dim; ++i) mean_feature[i] += buf[i];
    }
    const float inv = 1.0f / static_cast<float>(seen.size());
    for (auto& v : mean_feature) v *= inv;
    double q = 0;
    for (int w : seen) q += env.WorkerQuality(w);
    mean_quality = q / static_cast<double>(seen.size());
  }

  auto make_branch = [&](const std::vector<float>& fw, double qw,
                         double prob) {
    FutureStateSpec::Branch branch;
    branch.base = transformer.BuildWithWorker(fw, qw, obs, order).matrix;
    branch.segments = segments;
    for (auto& seg : branch.segments) {
      seg.second = static_cast<float>(seg.second * prob);
    }
    spec.branches.push_back(std::move(branch));
  };

  if (config.next_worker_top_k == 0 || seen.empty() || weight_sum <= 0) {
    std::vector<float> expected(dim, 0.0f);
    double expected_quality = 0.0;
    if (weight_sum > 0) {
      std::vector<float> buf;
      for (size_t i = 0; i < seen.size(); ++i) {
        if (weight[i] <= 0) continue;
        const float p = static_cast<float>(weight[i] / weight_sum);
        fb.WorkerFeatureInto(seen[i], next_time, &buf);
        for (size_t d = 0; d < dim; ++d) expected[d] += p * buf[d];
        expected_quality += p * env.WorkerQuality(seen[i]);
      }
    } else {
      expected = mean_feature;
      expected_quality = mean_quality;
    }
    for (size_t d = 0; d < dim; ++d) {
      expected[d] = static_cast<float>((1.0 - p_new) * expected[d] +
                                       p_new * mean_feature[d]);
    }
    expected_quality = (1.0 - p_new) * expected_quality + p_new * mean_quality;
    make_branch(expected, expected_quality, 1.0);
  } else {
    std::vector<size_t> cand(seen.size());
    std::iota(cand.begin(), cand.end(), 0);
    const size_t k = std::min(config.next_worker_top_k, cand.size());
    std::partial_sort(cand.begin(), cand.begin() + k, cand.end(),
                      [&](size_t a, size_t b) { return weight[a] > weight[b]; });
    double top_sum = 0;
    for (size_t i = 0; i < k; ++i) top_sum += weight[cand[i]];
    if (top_sum <= 0) {
      make_branch(mean_feature, mean_quality, 1.0);
      return spec;
    }
    for (size_t i = 0; i < k; ++i) {
      const int w = seen[cand[i]];
      const double prob = (1.0 - p_new) * weight[cand[i]] / top_sum;
      if (prob <= 0) continue;
      make_branch(fb.WorkerFeature(w, next_time), env.WorkerQuality(w), prob);
    }
    if (p_new > 0) make_branch(mean_feature, mean_quality, p_new);
  }
  return spec;
}

void ExpectBitIdentical(const FutureStateSpec& got, const FutureStateSpec& want,
                        const std::string& what) {
  ASSERT_EQ(got.branches.size(), want.branches.size()) << what;
  for (size_t b = 0; b < got.branches.size(); ++b) {
    const auto& g = got.branches[b];
    const auto& w = want.branches[b];
    ASSERT_EQ(g.base.rows(), w.base.rows()) << what << " branch " << b;
    ASSERT_EQ(g.base.cols(), w.base.cols()) << what << " branch " << b;
    EXPECT_EQ(std::memcmp(g.base.data(), w.base.data(),
                          g.base.size() * sizeof(float)),
              0)
        << what << " branch " << b << " base";
    ASSERT_EQ(g.segments.size(), w.segments.size()) << what << " branch " << b;
    for (size_t s = 0; s < g.segments.size(); ++s) {
      EXPECT_EQ(g.segments[s].first, w.segments[s].first)
          << what << " branch " << b << " segment " << s;
      EXPECT_EQ(std::memcmp(&g.segments[s].second, &w.segments[s].second,
                            sizeof(float)),
                0)
          << what << " branch " << b << " segment " << s << " prob";
    }
  }
}

// A population of `num_workers` with random histories and qualities, the
// first `num_seen` of which have arrived (most of them twice, so φ has
// samples and p_new < 1), and a 12-task pool whose deadlines straddle ϕ's
// one-hour support.
struct Population {
  FeatureConfig fcfg;
  FeatureBuilder fb;
  std::vector<double> quality;
  std::vector<std::vector<float>> task_feats;
  Observation obs;
  ArrivalModel arrivals;

  Population(int num_workers, int num_seen, SimTime first_arrival,
             SimTime now)
      : fb(fcfg, static_cast<size_t>(num_workers), /*num_tasks=*/64) {
    Rng rng(static_cast<uint64_t>(num_workers) * 31 + num_seen);
    for (int i = 0; i < 4 * num_workers; ++i) {
      Task t;
      t.id = static_cast<TaskId>(rng.UniformInt(64));
      t.category = static_cast<int>(rng.UniformInt(fcfg.num_categories));
      t.domain = static_cast<int>(rng.UniformInt(fcfg.num_domains));
      t.award = 10 + rng.UniformInt(500);
      fb.RecordCompletion(static_cast<WorkerId>(rng.UniformInt(num_workers)),
                          t, rng.UniformInt(first_arrival));
    }
    quality.resize(num_workers);
    for (auto& q : quality) q = rng.Uniform(0.1, 0.95);
    SimTime t = first_arrival;
    for (int round = 0; round < 2; ++round) {
      for (int w = 0; w < num_seen; ++w) {
        if (round == 1 && w % 3 == 0) continue;  // some come only once
        arrivals.RecordArrival(w, t);
        t += rng.UniformInt(1, 4);
      }
    }
    obs.time = now;
    obs.worker = 0;
    obs.worker_quality = 0.5;
    obs.worker_features.assign(fb.worker_dim(), 0.1f);
    task_feats.resize(12);
    for (int i = 0; i < 12; ++i) {
      task_feats[i].assign(fb.task_dim(), 0.0f);
      task_feats[i][(5 * i) % fb.task_dim()] = 1.0f;
      TaskSnapshot snap;
      snap.id = i;
      snap.deadline = now + 5 * i + rng.UniformInt(3);
      snap.features = &task_feats[i];
      snap.quality = rng.Uniform(0.2, 0.9);
      obs.tasks.push_back(snap);
    }
  }
};

TEST(PredictorTest, OnePassNextWorkerMatchesThreeSweepsBitForBit) {
  StateConfig scfg;
  scfg.include_quality = true;
  struct Case {
    int seen;
    SimTime first_arrival;
    const char* what;
  };
  // The last case arrives more than φ's one-week support before `now`:
  // every weight is 0, so both modes fall back to the mean worker.
  const SimTime now = 30 * kMinutesPerDay;
  for (const Case& c : {Case{0, now - 2000, "no seen workers"},
                        Case{1, now - 2000, "1 seen worker"},
                        Case{64, now - 2000, "64 seen workers"},
                        Case{3000, now - 20000, "3000 seen workers"},
                        Case{64, 1000, "weight_sum == 0"}}) {
    Population pop(std::max(c.seen, 1), c.seen, c.first_arrival, now);
    FakeEnv env(&pop.fb, pop.quality);
    StateTransformer st(scfg, pop.fb.worker_dim(), pop.fb.task_dim());
    for (size_t top_k : {size_t{0}, size_t{3}}) {
      PredictorConfig pcfg;
      pcfg.next_worker_top_k = top_k;
      FutureStatePredictor predictor(pcfg, &st);
      const auto got = predictor.PredictNextWorker(pop.obs, pop.arrivals, env);
      const auto want =
          ThreeSweepPredictNextWorker(pcfg, st, pop.obs, pop.arrivals, env);
      const std::string what =
          std::string(c.what) + ", top_k " + std::to_string(top_k);
      ASSERT_FALSE(want.empty()) << what;
      ExpectBitIdentical(got, want, what);
      // With weights to rank, top-k really enumerates: k returnees plus
      // the new-worker branch.
      if (c.seen >= 64 && c.first_arrival > 1000) {
        EXPECT_EQ(got.branches.size(), top_k == 0 ? 1u : top_k + 1) << what;
      }
    }
  }
}

TEST(PredictorTest, NewWorkerBranchIsThePlainMeanOfSeenWorkers) {
  // The paper's stand-in for a brand-new worker: "we use the average
  // feature of old workers to represent the feature of new workers".
  Fixture fx(2, /*now=*/10000, {10000 + 90000, 10000 + 80000});
  Task t1;
  t1.id = 0;
  t1.category = 0;
  t1.domain = 0;
  t1.award = 50;
  fx.fb.RecordCompletion(0, t1, 9000);
  Task t2 = t1;
  t2.id = 1;
  t2.category = 2;
  fx.fb.RecordCompletion(1, t2, 9000);
  StateTransformer st(StateConfig{}, fx.fb.worker_dim(), fx.fb.task_dim());
  FakeEnv env(&fx.fb, {0.5, 0.5, 0.5, 0.5});

  PredictorConfig pcfg;
  pcfg.next_worker_top_k = 1;
  FutureStatePredictor predictor(pcfg, &st);
  ArrivalModel arrivals;
  arrivals.RecordArrival(0, 9000);
  arrivals.RecordArrival(1, 9500);
  arrivals.RecordArrival(0, 9990);
  ASSERT_GT(arrivals.new_worker_rate(), 0.0);
  const auto spec = predictor.PredictNextWorker(fx.obs, arrivals, env);
  // One top-1 returnee branch, then the new-worker branch.
  ASSERT_EQ(spec.branches.size(), 2u);
  const SimTime next_time =
      fx.obs.time + static_cast<SimTime>(arrivals.any_gap().Mean());
  const auto f0 = fx.fb.WorkerFeature(0, next_time);
  const auto f1 = fx.fb.WorkerFeature(1, next_time);
  const Matrix& base = spec.branches[1].base;
  for (size_t r = 0; r < base.rows(); ++r) {
    for (size_t d = 0; d < fx.fb.worker_dim(); ++d) {
      EXPECT_FLOAT_EQ(base(r, d), (f0[d] + f1[d]) / 2) << "row " << r;
    }
  }
  EXPECT_GT(base(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(base(0, 0), base(0, 2));

  // No worker seen yet: the stand-in is the zero ("no history") feature.
  PredictorConfig expectation;
  FutureStatePredictor fresh(expectation, &st);
  const auto empty = fresh.PredictNextWorker(fx.obs, ArrivalModel{}, env);
  ASSERT_EQ(empty.branches.size(), 1u);
  for (size_t d = 0; d < fx.fb.worker_dim(); ++d) {
    EXPECT_EQ(empty.branches[0].base(0, d), 0.0f);
  }
}

TEST(PredictorTest, EmptyPoolYieldsEmptySpec) {
  Fixture fx(0, 0, {});
  StateTransformer st(StateConfig{}, fx.fb.worker_dim(), fx.fb.task_dim());
  FutureStatePredictor predictor(PredictorConfig{}, &st);
  ArrivalModel arrivals;
  arrivals.RecordArrival(0, 0);
  std::vector<float> fw(fx.fb.worker_dim(), 0.0f);
  auto spec = predictor.PredictSameWorker(fx.obs, fw, 0.5, arrivals);
  EXPECT_TRUE(spec.empty());
}

}  // namespace
}  // namespace crowdrl
