#include "support.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---- Samples ----

int64_t Samples::CountAtMost(double limit) const {
  return std::count_if(values_.begin(), values_.end(),
                       [limit](double v) { return v <= limit; });
}

int64_t Samples::BeyondCount(double p, int64_t n) {
  // Nearest rank: the ceil(p/100 * n)-th smallest sample. The epsilon keeps
  // exact products such as 99/100 * 1000 from rounding up a rank.
  const int64_t rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::max<int64_t>(rank, 1);
}

std::optional<double> Samples::Percentile(double p) const {
  const int64_t n = count();
  if (n == 0 || p <= 0 || p >= 100 || BeyondCount(p, n) < kMinBeyond) {
    return std::nullopt;
  }
  const size_t idx = static_cast<size_t>(n - 1 - BeyondCount(p, n));
  std::vector<double> sorted(values_);
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

double Samples::Median() const {
  if (values_.empty()) return 0;
  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

// ---- /proc/stat ----

std::optional<CpuTicks> ParseProcStat(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    uint64_t v[8];
    for (uint64_t& x : v) {
      if (!(fields >> x)) return std::nullopt;
    }
    CpuTicks t;
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
    t.idle = v[3] + v[4];
    t.steal = v[7];
    return t;
  }
  return std::nullopt;
}

CpuTicks ReadCpuTicks() {
  std::ifstream f("/proc/stat");
  std::stringstream buf;
  buf << f.rdbuf();
  return ParseProcStat(buf.str()).value_or(CpuTicks{});
}

HostShares SharesBetween(const CpuTicks& before, const CpuTicks& after) {
  HostShares s;
  const double total = static_cast<double>(after.total() - before.total());
  if (total <= 0) return s;
  s.steal_share = static_cast<double>(after.steal - before.steal) / total;
  s.cpu_busy_share = static_cast<double>(after.busy - before.busy) / total;
  return s;
}

// ---- open loop ----

OpenLoopResult RunOpenLoop(
    double rate_per_s, int64_t arrivals, int threads,
    const std::function<void(int64_t, int64_t, int)>& fn) {
  OpenLoopResult result;
  std::vector<Samples> late(threads);
  std::atomic<int64_t> next{0};
  const int64_t start_ns = NowNs();
  const double gap_ns = 1e9 / rate_per_s;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      late[t].Reserve(static_cast<size_t>(arrivals / threads + 1));
      while (true) {
        const int64_t i = next.fetch_add(1);
        if (i >= arrivals) break;
        const int64_t due_ns =
            start_ns + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
        const int64_t now = NowNs();
        if (now < due_ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
        }
        late[t].Add((NowNs() - due_ns) * 1e-6);
        fn(i, due_ns, t);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  result.wall_s = (NowNs() - start_ns) * 1e-9;
  for (const Samples& s : late) result.late_ms.Append(s);
  return result;
}

// ---- spans ----

int32_t SpanLog::Begin(const char* name, int64_t arrival, int32_t parent) {
  Span s;
  s.name = name;
  s.arrival = arrival;
  s.parent = parent;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Add(const char* name, int64_t arrival, int64_t start_ns,
                  int64_t end_ns, int32_t parent) {
  Span s;
  s.name = name;
  s.arrival = arrival;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double ms = (spans[i].end_ns - spans[i].start_ns) * 1e-6;
      SpanTotals& t = by_name[spans[i].name];
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ns[i] * 1e-6;
      t.duration_ms.Add(ms);
    }
  }
  return by_name;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t l = 0; l < logs.size(); ++l) {
    for (const Span& s : logs[l]->spans()) {
      std::fprintf(f,
                   "{\"log\":%zu,\"name\":\"%s\",\"arrival\":%lld,"
                   "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   l, s.name, static_cast<long long>(s.arrival), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---- report ----

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  Check("finite:" + name, std::isfinite(value), "metric must be finite");
}

bool Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(),
                 detail.c_str());
  }
  return ok;
}

void Report::Info(const std::string& name, double value) {
  info_.emplace_back(name, value);
}

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckEntry& c) { return c.ok; });
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\":";
  out += all_ok() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"succeeded\":" + std::to_string(succeeded_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ",";
    out += JsonString(metrics_[i].name) + ":{\"value\":" +
           JsonNumber(metrics_[i].value) +
           ",\"unit\":" + JsonString(metrics_[i].unit) + "}";
  }
  out += "},\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i) out += ",";
    out += "{\"name\":" + JsonString(checks_[i].name) +
           ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
           ",\"detail\":" + JsonString(checks_[i].detail) + "}";
  }
  out += "],\"info\":{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i) out += ",";
    out += JsonString(info_[i].first) + ":" + JsonNumber(info_[i].second);
  }
  return out + "}}";
}

double RequirePercentile(Report* report, const Samples& s, double p,
                         const std::string& what) {
  const std::optional<double> v = s.Percentile(p);
  report->Check("percentile:" + what, v.has_value(),
                std::to_string(s.count()) + " samples");
  return v.value_or(0);
}

bool IsPermutation(const std::vector<int>& ranking, size_t n) {
  if (ranking.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (int r : ranking) {
    if (r < 0 || static_cast<size_t>(r) >= n || seen[r]) return false;
    seen[r] = 1;
  }
  return true;
}

}  // namespace perfbench
