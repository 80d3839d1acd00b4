// The benchmark's workloads. Each runs in its own process, fills `report`
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) plus its correctness checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "support.h"

namespace perfbench {

/// Rank latency limit of slo_met_share, in milliseconds.
constexpr double kSloLimitMs = 5.0;
constexpr const char* kSloMetric = "slo_5ms_met_share";

void RunReplayLearn(const Options& opts, Report* report);
/// `over_uds` selects serve_uds (LearnerDaemon + ActorClients) instead of
/// serve_inproc (Sessions of the in-process service).
void RunServe(const Options& opts, bool over_uds, Report* report);

/// The traced stages must cover the measured wall time to within this
/// share (trace.stage_gap_share).
constexpr double kStageGapTolerance = 0.02;
/// Reports trace.stage_gap_share and checks it against the tolerance.
void ReportStageGap(double gap_share, Report* report);

/// Per-layer metrics of layers a workload does not run, reported as 0:
/// serve, net and generator layers on replay_learn; data and eval (the
/// paper-replay layers) on the serve workloads.
void ReportAbsentServeLayers(Report* report);
void ReportAbsentReplayLayers(Report* report);

/// Host CPU diagnostics over [before, now], reported beside every run.
void ReportHost(const CpuTicks& before, Report* report, bool as_metrics);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
