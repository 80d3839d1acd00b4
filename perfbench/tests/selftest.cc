// The benchmark's own tests: the open-loop timer charges a stall to the
// arrivals queued behind it, the percentile helper refuses thin tails, the
// /proc/stat parser computes the expected shares, and span self time
// subtracts children. Exits non-zero on the first failure.
//
//   python3 perfbench/run.py --selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream f(std::string(PERFBENCH_FIXTURE_DIR) + "/" + name);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void TestOpenLoopChargesStallToQueuedArrivals() {
  // 200 arrivals/s, one generator thread; arrival 10 stalls for 100 ms.
  constexpr double kRate = 200;
  constexpr int64_t kArrivals = 40;
  constexpr int64_t kStall = 10;
  std::vector<double> from_due(kArrivals), from_send(kArrivals);
  const OpenLoopResult r =
      RunOpenLoop(kRate, kArrivals, 1, [&](int64_t i, int64_t due_ns, int) {
        const int64_t send = NowNs();
        if (i == kStall) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        from_due[i] = (NowNs() - due_ns) * 1e-6;
        from_send[i] = (NowNs() - send) * 1e-6;
      });
  Expect(from_due[kStall] >= 100, "the stalled arrival pays its stall");
  // Arrival 11 was due 5 ms after the stall began, so it waited >= 95 ms;
  // arrival 15 was due 25 ms after, so it waited >= 75 ms.
  Expect(from_due[kStall + 1] >= 95, "the next arrival is charged the wait");
  Expect(from_due[kStall + 5] >= 75, "arrivals further back are charged too");
  Expect(from_send[kStall + 1] < 20,
         "timing from the send would have hidden the wait");
  Expect(r.late_ms.count() == kArrivals, "lateness is recorded per arrival");
  Expect(r.late_ms.Percentile(50).has_value() &&
             r.late_ms.Percentile(50).value() > 0,
         "the generator ran late behind the stall");
  Expect(r.wall_s >= 0.19, "the schedule spans arrivals / rate");
}

void TestPercentileRefusesThinTails() {
  Samples s;
  for (int i = 1; i <= 19; ++i) s.Add(i);
  Expect(s.count() == 19, "count reports the sample count");
  Expect(Samples::BeyondCount(50, 19) == 9, "19 samples leave 9 beyond p50");
  Expect(!s.Percentile(50).has_value(), "p50 of 19 samples is refused");
  s.Add(20);
  Expect(s.Percentile(50).has_value() && s.Percentile(50).value() == 10,
         "p50 of 1..20 is the 10th sample");

  Samples big;
  for (int i = 1; i <= 999; ++i) big.Add(1000 - i);  // unsorted input
  Expect(!big.Percentile(99).has_value(), "p99 of 999 samples is refused");
  big.Add(1000);
  Expect(big.Percentile(99).has_value() && big.Percentile(99).value() == 990,
         "p99 of 1..1000 is the 990th sample");
  Expect(Samples::BeyondCount(99, 1000) == 10,
         "1000 samples leave exactly 10 beyond p99");
  Expect(!big.Percentile(99.9).has_value(), "p99.9 of 1000 is refused");
  Expect(!Samples().Percentile(50).has_value(), "empty set refuses");

  Samples reps;
  for (double v : {3.0, 1.0, 2.0}) reps.Add(v);
  Expect(reps.Median() == 2.0, "repetition median of three");
}

void TestProcStatShares() {
  const auto before = ParseProcStat(ReadFixture("proc_stat_before.txt"));
  const auto after = ParseProcStat(ReadFixture("proc_stat_after.txt"));
  Expect(before.has_value() && after.has_value(), "fixtures parse");
  if (!before || !after) return;
  // Deltas of the aggregate line: user 600, system 100, idle 1000,
  // iowait 20, irq 10, softirq 30, steal 240, guest 500 (already in user).
  // busy = 600 + 100 + 10 + 30 = 740, total = 740 + 1020 + 240 = 2000.
  const HostShares h = SharesBetween(*before, *after);
  Expect(std::fabs(h.steal_share - 0.12) < 1e-12, "steal share 240/2000");
  Expect(std::fabs(h.cpu_busy_share - 0.37) < 1e-12, "busy share 740/2000");
  Expect(!ParseProcStat("cpu0 1 2 3 4 5 6 7 8\n").has_value(),
         "per-CPU lines alone do not parse");
  Expect(!ParseProcStat("cpu  1 2 3\n").has_value(),
         "a truncated aggregate line does not parse");
  const HostShares same = SharesBetween(*before, *before);
  Expect(same.steal_share == 0 && same.cpu_busy_share == 0,
         "an empty interval gives zero shares");
}

void TestSpanSelfTime() {
  // A 10 ms parent with children at 2..6 ms and 7..8 ms: 5 ms of self time.
  SpanLog log;
  log.Add("parent", 7, 0, 10'000'000);
  log.Add("kid", 7, 2'000'000, 6'000'000, /*parent=*/0);
  log.Add("kid", 7, 7'000'000, 8'000'000, /*parent=*/0);
  log.Add("other", 8, 0, 1'000'000);
  const std::map<std::string, SpanTotals> totals = TotalsByName({&log});
  Expect(totals.size() == 3, "spans group by name");
  Expect(std::fabs(totals.at("parent").self_ms - 5.0) < 1e-9,
         "self time is duration minus children");
  Expect(totals.at("kid").count == 2 &&
             std::fabs(totals.at("kid").total_ms - 5.0) < 1e-9,
         "children total their durations");
  Expect(std::fabs(totals.at("other").self_ms - 1.0) < 1e-9,
         "a childless span is all self time");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOpenLoopChargesStallToQueuedArrivals();
  perfbench::TestPercentileRefusesThinTails();
  perfbench::TestProcStatShares();
  perfbench::TestSpanSelfTime();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
