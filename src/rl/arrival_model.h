#ifndef CROWDRL_RL_ARRIVAL_MODEL_H_
#define CROWDRL_RL_ARRIVAL_MODEL_H_

#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace crowdrl {

/// \brief Binned empirical distribution over time gaps, used for both φ and ϕ.
///
/// Initialized from history and updated iteratively with every new sample,
/// exactly as Sec. IV-D prescribes ("φ(g) is initialized by the history and
/// iteratively updated when we have a new sample"). Laplace smoothing keeps
/// unobserved gaps from having exactly zero probability. Probability queries
/// are normalized over the support; gaps outside [min_gap, max_gap] are
/// counted (for `truncated_fraction`) but carry no mass, matching the
/// paper's truncation of φ at one week and ϕ at one hour.
class GapHistogram {
 public:
  /// `bin_width` trades resolution against the cost of expectation sweeps.
  GapHistogram(SimTime min_gap, SimTime max_gap, SimTime bin_width,
               double laplace = 0.5);

  /// Records an observed gap (out-of-support gaps only bump the truncation
  /// counter).
  void Add(SimTime gap, double weight = 1.0);

  /// P(gap falls in the bin containing `g`), normalized over the support.
  double Prob(SimTime g) const;

  /// P(lo <= gap <= hi), clipped to the support. Bin-granular: both
  /// endpoints are widened to their containing bins, so adjacent queries
  /// sharing a bin overlap. Use MassBefore for telescoping partitions.
  double MassBetween(SimTime lo, SimTime hi) const;

  /// P(gap < g) with linear interpolation inside the bin containing `g`.
  /// Exact telescoping: Σ over a partition {[g_i, g_{i+1})} of
  /// MassBefore(g_{i+1}) − MassBefore(g_i) is exactly the total mass —
  /// this is what the expiry segmentation uses so probabilities never
  /// double-count a bin.
  double MassBefore(SimTime g) const;

  /// Mean gap under the (normalized) distribution, in minutes.
  double Mean() const;

  /// Samples a gap (bin midpoint jittered uniformly within the bin).
  SimTime SampleGap(Rng* rng) const;

  /// Fraction of observed samples that fell outside the support.
  double truncated_fraction() const;

  SimTime min_gap() const { return min_gap_; }
  SimTime max_gap() const { return max_gap_; }
  SimTime bin_width() const { return bin_width_; }
  size_t num_bins() const { return counts_.size(); }
  double sample_count() const { return in_support_; }
  /// Raw (smoothed) count of the bin containing g — for tests/plots.
  double BinCount(SimTime g) const;

  /// Binary (de)serialization — part of framework checkpointing.
  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  size_t BinOf(SimTime g) const;
  void RebuildCdf();

  SimTime min_gap_, max_gap_, bin_width_;
  double laplace_;
  std::vector<double> counts_;
  double in_support_ = 0;
  double out_of_support_ = 0;
  // CDF, maintained eagerly by Add/Load so that every const query is a
  // pure read — concurrent readers (the arrangement service's actor
  // threads predict future states under a shared lock) need no hidden
  // cache rebuilds.
  std::vector<double> cdf_;
};

/// Tuning knobs for the arrival statistics.
struct ArrivalModelConfig {
  SimTime same_worker_bin = 10;  ///< φ bin width (minutes)
  SimTime any_gap_bin = 1;       ///< ϕ bin width (minutes)
  /// Exponential decay window (in arrivals) for the new-worker rate p_new.
  double new_rate_window = 2000;
};

/// \brief The "Worker Arrivals' Statistic" box of Fig. 2.
///
/// Maintains, online:
///  * φ(g): same-worker return-gap distribution over [1, 10080] min;
///  * ϕ(g): any-worker inter-arrival distribution over [0, 60] min;
///  * p_new: the (decayed) rate at which arrivals come from unseen workers;
///  * each worker's time of last arrival (for Pr(w_{i+1} = w) ∝ φ(g_w)).
class ArrivalModel {
 public:
  explicit ArrivalModel(const ArrivalModelConfig& config = {});

  /// Feeds one arrival. Must be called in nondecreasing time order.
  void RecordArrival(int worker_id, SimTime now);

  const GapHistogram& same_worker_gap() const { return phi_; }
  const GapHistogram& any_gap() const { return varphi_; }

  /// Decayed estimate of P(next arrival is a brand-new worker).
  double new_worker_rate() const;

  /// φ(g): probability the same worker returns after gap g.
  double SameWorkerReturnProb(SimTime gap) const { return phi_.Prob(gap); }

  /// Last arrival time of `worker_id`, or -1 if never seen.
  SimTime LastArrivalOf(int worker_id) const;

  /// All workers seen so far (insertion order).
  const std::vector<int>& seen_workers() const { return seen_order_; }

  /// Last arrival time of each seen worker, index-aligned with
  /// `seen_workers()`: the flat array the next-worker expectation sweeps
  /// instead of one hash lookup per worker.
  const std::vector<SimTime>& seen_last_arrivals() const {
    return seen_last_;
  }

  int64_t num_arrivals() const { return num_arrivals_; }
  SimTime last_arrival_time() const { return last_arrival_time_; }

  /// Binary (de)serialization of the full statistic state (φ, ϕ, p_new
  /// accumulators and per-worker last arrivals) — lets a restarted
  /// arrangement service resume with its learned arrival rhythms intact.
  Status Save(std::ostream* os) const;
  Status Load(std::istream* is);

 private:
  ArrivalModelConfig config_;
  GapHistogram phi_;
  GapHistogram varphi_;
  std::unordered_map<int, size_t> seen_index_;  // worker -> seen_order_ index
  std::vector<int> seen_order_;
  std::vector<SimTime> seen_last_;  // aligned with seen_order_
  SimTime last_arrival_time_ = -1;
  double decayed_new_ = 0;
  double decayed_total_ = 0;
  int64_t num_arrivals_ = 0;
};

}  // namespace crowdrl

#endif  // CROWDRL_RL_ARRIVAL_MODEL_H_
