#include "core/future_predictor.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace crowdrl {

FutureStatePredictor::FutureStatePredictor(const PredictorConfig& config,
                                           const StateTransformer* transformer)
    : config_(config), transformer_(transformer) {
  CROWDRL_CHECK(transformer != nullptr);
  CROWDRL_CHECK(config.max_segments >= 1);
}

std::vector<std::pair<size_t, float>> FutureStatePredictor::ExpirySegments(
    const std::vector<SimTime>& sorted_rel_deadlines, const GapHistogram& gaps,
    size_t max_segments) {
  const SimTime lo = gaps.min_gap();
  const SimTime hi = gaps.max_gap();
  const size_t n = sorted_rel_deadlines.size();
  for (size_t i = 1; i < n; ++i) {
    CROWDRL_DCHECK(sorted_rel_deadlines[i - 1] >= sorted_rel_deadlines[i]);
  }

  // Breakpoints: distinct deadlines strictly inside the gap support.
  std::vector<SimTime> cuts;
  for (SimTime d : sorted_rel_deadlines) {
    if (d > lo && d < hi) cuts.push_back(d);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Number of tasks still alive at future gap g: #(d_j > g). Deadlines are
  // sorted descending, so this is a lower_bound on the reversed order.
  auto alive_at = [&](SimTime g) -> size_t {
    size_t count = 0;
    // Linear scan is fine: n is bounded by maxT and this runs once per
    // segment boundary.
    for (SimTime d : sorted_rel_deadlines) {
      if (d > g) {
        ++count;
      } else {
        break;
      }
    }
    return count;
  };

  std::vector<std::pair<size_t, float>> segments;
  SimTime seg_lo = lo;
  for (size_t c = 0; c <= cuts.size(); ++c) {
    const SimTime seg_hi = c < cuts.size() ? cuts[c] : hi + 1;
    const size_t valid_n = alive_at(seg_lo);
    // Half-open [seg_lo, seg_hi) via the telescoping CDF: the segment
    // masses of a partition sum to exactly the distribution's total.
    const double mass = gaps.MassBefore(seg_hi) - gaps.MassBefore(seg_lo);
    if (valid_n > 0 && mass > 0) {
      segments.emplace_back(valid_n, static_cast<float>(mass));
    }
    seg_lo = seg_hi;
  }

  // Merge lowest-mass neighbours until within the cap; the merged segment
  // inherits the pool of whichever side carried more probability.
  while (segments.size() > max_segments) {
    size_t best = 0;
    double best_mass = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
      const double m = segments[i].second + segments[i + 1].second;
      if (m < best_mass) {
        best_mass = m;
        best = i;
      }
    }
    const auto& a = segments[best];
    const auto& b = segments[best + 1];
    const size_t keep_n = a.second >= b.second ? a.first : b.first;
    segments[best] = {keep_n, a.second + b.second};
    segments.erase(segments.begin() + best + 1);
  }
  return segments;
}

std::vector<int> FutureStatePredictor::DeadlineDescendingOrder(
    const Observation& obs) const {
  std::vector<int> order(obs.tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (obs.tasks[a].deadline != obs.tasks[b].deadline) {
      return obs.tasks[a].deadline > obs.tasks[b].deadline;
    }
    return a < b;
  });
  const size_t cap = transformer_->config().max_tasks;
  if (cap > 0 && order.size() > cap) order.resize(cap);
  return order;
}

FutureStateSpec FutureStatePredictor::PredictSameWorker(
    const Observation& obs, const std::vector<float>& updated_worker_features,
    double worker_quality, const ArrivalModel& arrivals,
    const std::vector<double>* quality_override) const {
  FutureStateSpec spec;
  if (obs.tasks.empty()) return spec;
  const auto order = DeadlineDescendingOrder(obs);

  std::vector<SimTime> rel;
  rel.reserve(order.size());
  for (int idx : order) {
    rel.push_back(std::max<SimTime>(0, obs.tasks[idx].deadline - obs.time));
  }
  auto segments = ExpirySegments(rel, arrivals.same_worker_gap(),
                                 config_.max_segments);
  if (segments.empty()) return spec;

  FutureStateSpec::Branch branch;
  branch.base = transformer_
                    ->BuildWithWorker(updated_worker_features, worker_quality,
                                      obs, order, quality_override)
                    .matrix;
  branch.segments = std::move(segments);
  spec.branches.push_back(std::move(branch));
  return spec;
}

FutureStateSpec FutureStatePredictor::PredictNextWorker(
    const Observation& obs, const ArrivalModel& arrivals, const EnvView& env,
    const std::vector<double>* quality_override) const {
  FutureStateSpec spec;
  if (obs.tasks.empty()) return spec;
  const auto order = DeadlineDescendingOrder(obs);

  // Expected next-arrival time under ϕ.
  const GapHistogram& varphi = arrivals.any_gap();
  const double mean_gap = varphi.Mean();
  const SimTime next_time = obs.time + static_cast<SimTime>(mean_gap);

  std::vector<SimTime> rel;
  rel.reserve(order.size());
  for (int idx : order) {
    rel.push_back(std::max<SimTime>(0, obs.tasks[idx].deadline - obs.time));
  }
  auto segments =
      ExpirySegments(rel, varphi, config_.max_segments);
  if (segments.empty()) return spec;

  const auto& fb = env.features();
  const auto& seen = arrivals.seen_workers();
  const auto& seen_last = arrivals.seen_last_arrivals();
  const double p_new = arrivals.new_worker_rate();

  // Return-probability weight per previously seen worker: φ(g_w) with
  // g_w = next_time − last arrival of w.
  std::vector<double> weight(seen.size(), 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < seen.size(); ++i) {
    const SimTime last = seen_last[i];
    if (last < 0) continue;
    const SimTime g = std::max<SimTime>(1, next_time - last);
    weight[i] = arrivals.SameWorkerReturnProb(g);
    weight_sum += weight[i];
  }
  const bool expectation =
      config_.next_worker_top_k == 0 || seen.empty() || weight_sum <= 0;

  // One sweep renders each seen worker's feature and reads its quality
  // once, for both the mean over *old* workers (the paper's stand-in for a
  // new worker) and, in expectation mode, Σ Pr(w)·f_w. Every accumulator
  // sums in seen order in fixed float/double types; the predictor test
  // pins the result bit for bit against a three-sweep reference.
  const size_t dim = fb.worker_dim();
  std::vector<float> mean_feature(dim, 0.0f);
  double mean_quality = 0.5;
  std::vector<float> expected(dim, 0.0f);
  double expected_quality = 0.0;
  if (!seen.empty()) {
    const bool weighted = expectation && weight_sum > 0;
    double quality_sum = 0;
    std::vector<float> buf;
    for (size_t i = 0; i < seen.size(); ++i) {
      fb.WorkerFeatureInto(seen[i], next_time, &buf);
      const double q = env.WorkerQuality(seen[i]);
      quality_sum += q;
      for (size_t d = 0; d < dim; ++d) mean_feature[d] += buf[d];
      if (weighted && weight[i] > 0) {
        const float p = static_cast<float>(weight[i] / weight_sum);
        for (size_t d = 0; d < dim; ++d) expected[d] += p * buf[d];
        expected_quality += p * q;
      }
    }
    const float inv = 1.0f / static_cast<float>(seen.size());
    for (auto& v : mean_feature) v *= inv;
    mean_quality = quality_sum / static_cast<double>(seen.size());
  }

  auto make_branch = [&](const std::vector<float>& fw, double qw,
                         double prob) {
    FutureStateSpec::Branch branch;
    branch.base =
        transformer_->BuildWithWorker(fw, qw, obs, order, quality_override)
            .matrix;
    branch.segments = segments;
    for (auto& seg : branch.segments) {
      seg.second = static_cast<float>(seg.second * prob);
    }
    spec.branches.push_back(std::move(branch));
  };

  if (expectation) {
    // Expectation speed-up (Sec. V-D): one branch with
    // f̄ = (1−p_new)·Σ Pr(w)·f_w + p_new·mean_old.
    if (weight_sum <= 0) {
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
    // Exact enumeration over the top-k most likely returnees ("set a
    // threshold to disregard workers with low coming probability"), plus a
    // new-worker branch.
    std::vector<size_t> cand(seen.size());
    std::iota(cand.begin(), cand.end(), 0);
    const size_t k = std::min(config_.next_worker_top_k, cand.size());
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

}  // namespace crowdrl
