#include "rl/arrival_model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/check.h"

namespace crowdrl {

GapHistogram::GapHistogram(SimTime min_gap, SimTime max_gap, SimTime bin_width,
                           double laplace)
    : min_gap_(min_gap),
      max_gap_(max_gap),
      bin_width_(bin_width),
      laplace_(laplace) {
  CROWDRL_CHECK(max_gap > min_gap && bin_width > 0);
  const size_t bins =
      static_cast<size_t>((max_gap - min_gap + bin_width) / bin_width);
  counts_.assign(bins, 0.0);
  RebuildCdf();
}

size_t GapHistogram::BinOf(SimTime g) const {
  CROWDRL_DCHECK(g >= min_gap_ && g <= max_gap_);
  size_t bin = static_cast<size_t>((g - min_gap_) / bin_width_);
  return std::min(bin, counts_.size() - 1);
}

void GapHistogram::Add(SimTime gap, double weight) {
  if (gap < min_gap_ || gap > max_gap_) {
    out_of_support_ += weight;
    return;
  }
  counts_[BinOf(gap)] += weight;
  in_support_ += weight;
  // Keep the CDF eagerly consistent: const queries stay pure reads, which
  // is what lets concurrent predictor threads share the histogram under a
  // reader lock. The full prefix-sum rebuild (not an incremental suffix
  // add) keeps the float rounding identical to a checkpoint-restored
  // histogram, preserving the restore-bit-determinism contract.
  RebuildCdf();
}

void GapHistogram::RebuildCdf() {
  cdf_.resize(counts_.size());
  double acc = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i] + laplace_;
    cdf_[i] = acc;
  }
}

double GapHistogram::Prob(SimTime g) const {
  if (g < min_gap_ || g > max_gap_) return 0.0;
  const double total = cdf_.back();
  if (total <= 0) return 0.0;
  return (counts_[BinOf(g)] + laplace_) / total;
}

double GapHistogram::BinCount(SimTime g) const {
  if (g < min_gap_ || g > max_gap_) return 0.0;
  return counts_[BinOf(g)] + laplace_;
}

double GapHistogram::MassBetween(SimTime lo, SimTime hi) const {
  lo = std::max(lo, min_gap_);
  hi = std::min(hi, max_gap_);
  if (hi < lo) return 0.0;
  const double total = cdf_.back();
  if (total <= 0) return 0.0;
  const size_t blo = BinOf(lo);
  const size_t bhi = BinOf(hi);
  const double below = blo == 0 ? 0.0 : cdf_[blo - 1];
  return (cdf_[bhi] - below) / total;
}

double GapHistogram::MassBefore(SimTime g) const {
  if (g <= min_gap_) return 0.0;
  if (g > max_gap_) return 1.0;
  const double total = cdf_.back();
  if (total <= 0) return 0.0;
  const size_t bin = BinOf(g);
  const double below = bin == 0 ? 0.0 : cdf_[bin - 1];
  const SimTime bin_lo = min_gap_ + static_cast<SimTime>(bin) * bin_width_;
  const double frac =
      static_cast<double>(g - bin_lo) / static_cast<double>(bin_width_);
  return (below + frac * (counts_[bin] + laplace_)) / total;
}

double GapHistogram::Mean() const {
  const double total = cdf_.back();
  if (total <= 0) {
    return static_cast<double>(min_gap_ + max_gap_) / 2.0;
  }
  double acc = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double mid =
        static_cast<double>(min_gap_) +
        (static_cast<double>(i) + 0.5) * static_cast<double>(bin_width_);
    acc += (counts_[i] + laplace_) * mid;
  }
  return acc / total;
}

SimTime GapHistogram::SampleGap(Rng* rng) const {
  const double total = cdf_.back();
  if (total <= 0) {
    return rng->UniformInt(min_gap_, max_gap_);
  }
  const double target = rng->Uniform() * total;
  const size_t bin =
      std::lower_bound(cdf_.begin(), cdf_.end(), target) - cdf_.begin();
  const SimTime lo = min_gap_ + static_cast<SimTime>(bin) * bin_width_;
  const SimTime hi = std::min<SimTime>(lo + bin_width_ - 1, max_gap_);
  return rng->UniformInt(lo, hi);
}

double GapHistogram::truncated_fraction() const {
  const double total = in_support_ + out_of_support_;
  return total <= 0 ? 0.0 : out_of_support_ / total;
}

namespace {
template <typename T>
void WritePod(std::ostream* os, const T& v) {
  os->write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
bool ReadPod(std::istream* is, T* v) {
  is->read(reinterpret_cast<char*>(v), sizeof(T));
  return is->good();
}
}  // namespace

Status GapHistogram::Save(std::ostream* os) const {
  WritePod(os, min_gap_);
  WritePod(os, max_gap_);
  WritePod(os, bin_width_);
  WritePod(os, laplace_);
  WritePod(os, in_support_);
  WritePod(os, out_of_support_);
  const uint64_t n = counts_.size();
  WritePod(os, n);
  os->write(reinterpret_cast<const char*>(counts_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  if (!os->good()) return Status::IoError("gap histogram write failed");
  return Status::OK();
}

Status GapHistogram::Load(std::istream* is) {
  // Read and check into locals: a rejected record leaves the histogram as
  // it was.
  SimTime min_gap = 0, max_gap = 0, bin_width = 0;
  double laplace = 0, in_support = 0, out_of_support = 0;
  uint64_t n = 0;
  if (!ReadPod(is, &min_gap) || !ReadPod(is, &max_gap) ||
      !ReadPod(is, &bin_width) || !ReadPod(is, &laplace) ||
      !ReadPod(is, &in_support) || !ReadPod(is, &out_of_support) ||
      !ReadPod(is, &n)) {
    return Status::IoError("gap histogram header read failed");
  }
  if (max_gap <= min_gap || bin_width <= 0 || n > (1u << 24)) {
    return Status::IoError("gap histogram header implausible");
  }
  // The header fixes the bin count (as the constructor derives it); a
  // record that disagrees would map gaps to the wrong bins, or, with no
  // bins at all, leave every query reading an empty CDF.
  const uint64_t span =
      static_cast<uint64_t>(max_gap) - static_cast<uint64_t>(min_gap);
  if (n != span / static_cast<uint64_t>(bin_width) + 1) {
    return Status::IoError("gap histogram bin count disagrees with header");
  }
  std::vector<double> counts(n);
  is->read(reinterpret_cast<char*>(counts.data()),
           static_cast<std::streamsize>(n * sizeof(double)));
  if (!is->good()) return Status::IoError("gap histogram payload failed");
  auto is_count = [](double c) { return std::isfinite(c) && c >= 0; };
  if (!is_count(laplace) || !is_count(in_support) ||
      !is_count(out_of_support) ||
      !std::all_of(counts.begin(), counts.end(), is_count)) {
    return Status::IoError("gap histogram has a negative or non-finite count");
  }
  min_gap_ = min_gap;
  max_gap_ = max_gap;
  bin_width_ = bin_width;
  laplace_ = laplace;
  in_support_ = in_support;
  out_of_support_ = out_of_support;
  counts_ = std::move(counts);
  RebuildCdf();
  return Status::OK();
}

ArrivalModel::ArrivalModel(const ArrivalModelConfig& config)
    : config_(config),
      phi_(1, kMaxSameWorkerGap, config.same_worker_bin),
      varphi_(0, kMaxAnyWorkerGap, config.any_gap_bin) {}

void ArrivalModel::RecordArrival(int worker_id, SimTime now) {
  CROWDRL_CHECK_MSG(now >= last_arrival_time_,
                    "arrivals must be fed in time order");
  if (last_arrival_time_ >= 0) {
    varphi_.Add(now - last_arrival_time_);
  }
  const double decay = 1.0 - 1.0 / config_.new_rate_window;
  decayed_new_ *= decay;
  decayed_total_ = decayed_total_ * decay + 1.0;

  const auto [it, is_new] =
      seen_index_.try_emplace(worker_id, seen_order_.size());
  if (is_new) {
    decayed_new_ += 1.0;
    seen_order_.push_back(worker_id);
    seen_last_.push_back(now);
  } else {
    SimTime& last = seen_last_[it->second];
    phi_.Add(now - last);
    last = now;
  }
  last_arrival_time_ = now;
  ++num_arrivals_;
}

double ArrivalModel::new_worker_rate() const {
  if (decayed_total_ <= 0) return 1.0;
  return std::clamp(decayed_new_ / decayed_total_, 0.0, 1.0);
}

SimTime ArrivalModel::LastArrivalOf(int worker_id) const {
  auto it = seen_index_.find(worker_id);
  return it == seen_index_.end() ? -1 : seen_last_[it->second];
}

Status ArrivalModel::Save(std::ostream* os) const {
  CROWDRL_RETURN_NOT_OK(phi_.Save(os));
  CROWDRL_RETURN_NOT_OK(varphi_.Save(os));
  os->write(reinterpret_cast<const char*>(&last_arrival_time_),
            sizeof(last_arrival_time_));
  os->write(reinterpret_cast<const char*>(&decayed_new_),
            sizeof(decayed_new_));
  os->write(reinterpret_cast<const char*>(&decayed_total_),
            sizeof(decayed_total_));
  os->write(reinterpret_cast<const char*>(&num_arrivals_),
            sizeof(num_arrivals_));
  const uint64_t n = seen_order_.size();
  os->write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (size_t i = 0; i < seen_order_.size(); ++i) {
    const int64_t id = seen_order_[i];
    const SimTime last = seen_last_[i];
    os->write(reinterpret_cast<const char*>(&id), sizeof(id));
    os->write(reinterpret_cast<const char*>(&last), sizeof(last));
  }
  if (!os->good()) return Status::IoError("arrival model write failed");
  return Status::OK();
}

Status ArrivalModel::Load(std::istream* is) {
  CROWDRL_RETURN_NOT_OK(phi_.Load(is));
  CROWDRL_RETURN_NOT_OK(varphi_.Load(is));
  SimTime last_arrival_time = 0;
  double decayed_new = 0;
  double decayed_total = 0;
  int64_t num_arrivals = 0;
  uint64_t n = 0;
  is->read(reinterpret_cast<char*>(&last_arrival_time),
           sizeof(last_arrival_time));
  is->read(reinterpret_cast<char*>(&decayed_new), sizeof(decayed_new));
  is->read(reinterpret_cast<char*>(&decayed_total), sizeof(decayed_total));
  is->read(reinterpret_cast<char*>(&num_arrivals), sizeof(num_arrivals));
  is->read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is->good() || n > (1u << 28)) {
    return Status::IoError("arrival model header read failed");
  }
  // new_worker_rate() is decayed_new / decayed_total clamped to [0, 1];
  // std::clamp passes a NaN through, so a non-finite, negative or
  // inverted pair would make every next-worker state non-finite.
  if (!std::isfinite(decayed_new) || !std::isfinite(decayed_total) ||
      decayed_new < 0 || decayed_total < 0 || decayed_new > decayed_total) {
    return Status::IoError("arrival model has an invalid new-worker decay");
  }
  if (num_arrivals < 0) {
    return Status::IoError("arrival model has a negative arrival count");
  }
  std::unordered_map<int, size_t> seen_index;
  std::vector<int> seen_order;
  std::vector<SimTime> seen_last;
  // No reserve(n): n is not yet backed by bytes, and a corrupt count up to
  // 2^28 would allocate gigabytes before the first entry read fails.
  for (uint64_t i = 0; i < n; ++i) {
    int64_t id = 0;
    SimTime last = 0;
    is->read(reinterpret_cast<char*>(&id), sizeof(id));
    is->read(reinterpret_cast<char*>(&last), sizeof(last));
    if (!is->good()) return Status::IoError("arrival model entry failed");
    // A worker listed twice would be counted twice by the next-worker
    // expectation.
    if (!seen_index.try_emplace(static_cast<int>(id), seen_order.size())
             .second) {
      return Status::IoError("arrival model lists worker " +
                             std::to_string(id) + " twice");
    }
    seen_order.push_back(static_cast<int>(id));
    seen_last.push_back(last);
  }
  // RecordArrival keeps the last arrival equal to the latest seen worker's
  // (-1 before the first), and aborts on an arrival earlier than it: a
  // record that disagrees would crash the next RecordArrival.
  const SimTime latest =
      seen_last.empty() ? -1
                        : *std::max_element(seen_last.begin(), seen_last.end());
  if (last_arrival_time != latest) {
    return Status::IoError("arrival model's last arrival disagrees with its "
                           "workers'");
  }
  last_arrival_time_ = last_arrival_time;
  decayed_new_ = decayed_new;
  decayed_total_ = decayed_total;
  num_arrivals_ = num_arrivals;
  seen_index_ = std::move(seen_index);
  seen_order_ = std::move(seen_order);
  seen_last_ = std::move(seen_last);
  return Status::OK();
}

}  // namespace crowdrl
