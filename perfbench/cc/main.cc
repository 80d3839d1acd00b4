// The benchmark's workload process: runs one workload and prints its report
// as the last line of standard output.
//
//   perfbench_workload --workload <replay_learn|serve_inproc|serve_uds>
//       --seed <n> --seconds <s> --trace <0|1> [--work_dir <dir>]
//
// run.py builds this binary and starts one process per run, so each
// workload's peak RSS is its own.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

void ReportHost(const CpuTicks& before, Report* report, bool as_metrics) {
  const HostShares host = SharesBetween(before, ReadCpuTicks());
  if (as_metrics) {
    report->Metric("host.steal_share", host.steal_share, "share");
    report->Metric("host.cpu_busy_share", host.cpu_busy_share, "share");
  } else {
    report->Info("host.steal_share", host.steal_share);
    report->Info("host.cpu_busy_share", host.cpu_busy_share);
  }
}

void ReportStageGap(double gap_share, Report* report) {
  report->Metric("trace.stage_gap_share", gap_share, "share");
  report->Check("stages_cover_wall_time",
                std::fabs(gap_share) <= kStageGapTolerance,
                "uncovered share " + std::to_string(gap_share));
}

void ReportAbsentServeLayers(Report* report) {
  for (const char* name :
       {"serve.rank_call_p50_ms", "serve.rank_call_p99_ms",
        "serve.feedback_call_ms", "serve.batcher_p50_ms",
        "serve.record_arrival_ms", "net.rank_rtt_p50_ms",
        "net.rank_rtt_p99_ms", "net.feedback_rtt_ms", "net.overhead_ms",
        "gen.late_p50_ms", "gen.late_p99_ms", "gen.rank_p99_ms",
        "gen.env_ms_per_arrival"}) {
    report->Metric(name, 0, "ms");
  }
  for (const char* name :
       {"serve.mean_batch_size", "serve.learner_lag_events",
        "serve.publishes_per_1k_events", "net.frames_per_arrival",
        "gen.rank_samples"}) {
    report->Metric(name, 0, "count");
  }
  report->Metric("serve.batch_fill", 0, "share");
  report->Metric("serve.nets_shared_share", 0, "share");
  report->Metric("net.bytes_per_arrival", 0, "bytes");
  report->Metric("gen.inputs_s", 0, "s");
  report->Metric("gen.warmup_s", 0, "s");
}

void ReportAbsentReplayLayers(Report* report) {
  report->Metric("data.generate_s", 0, "s");
  report->Metric("eval.history_s", 0, "s");
  report->Metric("eval.env_ms_per_arrival", 0, "ms");
  report->Metric("eval.worker_cr", 0, "share");
  report->Metric("eval.requester_qg", 0, "gain");
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload <replay_learn|"
               "serve_inproc|serve_uds> --seed <n> --seconds <s> "
               "--trace <0|1> [--work_dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--work_dir") {
      opts.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.seconds <= 0) return Usage();
  opts.trace_path = opts.work_dir + "/" + opts.workload + "-seed" +
                    std::to_string(opts.seed) + ".spans.jsonl";

  Report report;
  const CpuTicks host_before = ReadCpuTicks();
  try {
    if (opts.workload == "replay_learn") {
      RunReplayLearn(opts, &report);
    } else if (opts.workload == "serve_inproc") {
      RunServe(opts, /*over_uds=*/false, &report);
    } else if (opts.workload == "serve_uds") {
      RunServe(opts, /*over_uds=*/true, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  ReportHost(host_before, &report, opts.trace);
  std::printf("%s\n", report.ToJson().c_str());
  return report.all_ok() ? 0 : 1;
}
