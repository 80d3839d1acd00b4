// Measurement support shared by the benchmark workloads: a percentile
// helper that refuses thin tails, host CPU accounting from /proc/stat, an
// open-loop arrival generator that times from the due instant, in-memory
// trace spans, and the result report the workload process prints.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
int64_t NowNs();
/// CPU time consumed by the whole process (all threads), in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// \brief A set of samples with percentiles that state their own support.
///
/// A percentile is the nearest-rank order statistic. It is refused (empty
/// result) unless at least kMinBeyond samples lie strictly beyond it, so a
/// reported p99 always rests on at least 1000 samples and a p50 on 20.
class Samples {
 public:
  static constexpr int64_t kMinBeyond = 10;

  void Add(double x) { values_.push_back(x); }
  void Reserve(size_t n) { values_.reserve(n); }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  /// Samples at or below `limit`.
  int64_t CountAtMost(double limit) const;
  /// How many samples lie beyond the nearest-rank p-th percentile.
  static int64_t BeyondCount(double p, int64_t n);
  /// The p-th percentile (0 < p < 100), or nullopt when fewer than
  /// kMinBeyond samples lie beyond it.
  std::optional<double> Percentile(double p) const;
  void Append(const Samples& other);
  /// Middle value (mean of the two middle values for an even count) of a
  /// few repetitions, e.g. setup times; 0 when empty. Unlike Percentile it
  /// does not demand a tail, because it summarizes whole repetitions.
  double Median() const;

 private:
  std::vector<double> values_;
};

/// Aggregate CPU tick counters of the first ("cpu ") line of /proc/stat.
struct CpuTicks {
  uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  uint64_t idle = 0;   ///< idle + iowait
  uint64_t steal = 0;  ///< time the hypervisor ran something else
  uint64_t total() const { return busy + idle + steal; }
};

/// Parses the text of /proc/stat; nullopt when the "cpu " line is missing
/// or malformed.
std::optional<CpuTicks> ParseProcStat(const std::string& text);
/// Reads /proc/stat now (zeros when unreadable).
CpuTicks ReadCpuTicks();

/// Host shares over an interval: stolen and busy ticks over all ticks.
struct HostShares {
  double steal_share = 0;
  double cpu_busy_share = 0;
};
HostShares SharesBetween(const CpuTicks& before, const CpuTicks& after);

/// \brief Open-loop arrival schedule: arrival i is due at
/// start + i / rate, whatever happened to earlier arrivals.
///
/// `threads` generator threads take arrivals in due order from a shared
/// counter, sleep until each one is due and call `fn(i, due_ns, thread)`,
/// which records its own latencies. A slow call delays the arrivals behind
/// it, and timing from `due_ns` charges them that wait instead of hiding it
/// (no coordinated omission).
struct OpenLoopResult {
  Samples late_ms;  ///< start of each call minus its due instant
  double wall_s = 0;
};
OpenLoopResult RunOpenLoop(
    double rate_per_s, int64_t arrivals, int threads,
    const std::function<void(int64_t index, int64_t due_ns, int thread)>& fn);

/// One timed interval of the traced run. Spans of one arrival share its
/// index; `parent` is the index of the enclosing span in the same log
/// (-1 for a root).
struct Span {
  const char* name = "";
  int64_t arrival = -1;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans recorded by one thread, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }
  int32_t Begin(const char* name, int64_t arrival, int32_t parent);
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }
  /// Records an already measured interval.
  void Add(const char* name, int64_t arrival, int64_t start_ns,
           int64_t end_ns, int32_t parent = -1);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t arrival,
             int32_t parent = -1)
      : log_(log), id_(log ? log->Begin(name, arrival, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Per-name totals over a set of logs: count, summed duration and summed
/// self time (duration minus the part covered by child spans).
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  Samples duration_ms;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs);
/// Writes every span as one JSON object per line. Returns false on IO
/// failure.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// \brief What the workload process reports: metrics with units, the
/// correctness checks it ran, and its arrival accounting.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a check; a failed check is also printed to stderr at once.
  bool Check(const std::string& name, bool ok, const std::string& detail);
  void Info(const std::string& name, double value);
  void Count(int64_t attempted, int64_t succeeded, int64_t failed) {
    attempted_ += attempted;
    succeeded_ += succeeded;
    failed_ += failed;
  }
  bool all_ok() const;
  /// One JSON object: {"correct", "attempted", "succeeded", "failed",
  /// "metrics", "checks", "info"}.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<CheckEntry> checks_;
  std::vector<std::pair<std::string, double>> info_;
  int64_t attempted_ = 0;
  int64_t succeeded_ = 0;
  int64_t failed_ = 0;
};

/// The p-th percentile of `s`. When the helper refuses it, records a failed
/// check named after `what` and returns 0.
double RequirePercentile(Report* report, const Samples& s, double p,
                         const std::string& what);

/// True when `ranking` is a permutation of 0..n-1.
bool IsPermutation(const std::vector<int>& ranking, size_t n);

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's files (spans, the uds socket); relative paths
  /// keep the socket path short.
  std::string work_dir = ".";
  std::string trace_path;  ///< where spans are written in a traced run
};

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
