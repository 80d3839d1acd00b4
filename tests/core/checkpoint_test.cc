// Persistence: the arrival statistics and the full framework checkpoint
// must round-trip losslessly — an arrangement service that restarts should
// not forget its learned rhythms or value functions.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/harness.h"

namespace crowdrl {
namespace {

TEST(ArrivalModelPersistenceTest, RoundTripPreservesStatistics) {
  ArrivalModel model;
  Rng rng(4);
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.UniformInt(1, 40);
    model.RecordArrival(static_cast<int>(rng.UniformInt(30)), t);
  }
  std::stringstream ss;
  ASSERT_TRUE(model.Save(&ss).ok());

  ArrivalModel restored;
  ASSERT_TRUE(restored.Load(&ss).ok());
  EXPECT_EQ(restored.num_arrivals(), model.num_arrivals());
  EXPECT_EQ(restored.last_arrival_time(), model.last_arrival_time());
  EXPECT_DOUBLE_EQ(restored.new_worker_rate(), model.new_worker_rate());
  EXPECT_EQ(restored.seen_workers(), model.seen_workers());
  for (SimTime g : {5, 100, 1440, 5000}) {
    EXPECT_DOUBLE_EQ(restored.SameWorkerReturnProb(g),
                     model.SameWorkerReturnProb(g));
  }
  for (int w : model.seen_workers()) {
    EXPECT_EQ(restored.LastArrivalOf(w), model.LastArrivalOf(w));
  }
  // Both continue identically after more arrivals.
  model.RecordArrival(3, t + 100);
  restored.RecordArrival(3, t + 100);
  EXPECT_DOUBLE_EQ(restored.any_gap().Prob(30), model.any_gap().Prob(30));
}

TEST(ArrivalModelPersistenceTest, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "definitely not a checkpoint";
  ArrivalModel model;
  EXPECT_FALSE(model.Load(&ss).ok());
}

class FrameworkCheckpointTest : public ::testing::Test {
 protected:
  static Dataset MakeDataset() {
    SyntheticConfig cfg;
    cfg.scale = 0.06;
    cfg.eval_months = 2;
    cfg.seed = 91;
    return SyntheticGenerator(cfg).Generate();
  }

  static ExperimentConfig MakeConfig() {
    ExperimentConfig cfg;
    cfg.hidden_dim = 16;
    cfg.num_heads = 2;
    cfg.batch_size = 8;
    cfg.learn_every = 4;
    cfg.seed = 13;
    return cfg;
  }
};

TEST_F(FrameworkCheckpointTest, SaveLoadRoundTripsTrainedState) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_test.bin";

  // Train a framework over the trace, checkpoint it.
  ReplayHarness harness(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework trained(fc, &harness,
                                   harness.worker_feature_dim(),
                                   harness.task_feature_dim());
  harness.Run(&trained);
  ASSERT_TRUE(trained.SaveState(path).ok());

  // Restore into a freshly-initialized framework; combined scores on a
  // probe observation must match exactly.
  ReplayHarness probe_env(&ds, MakeConfig().harness);
  TaskArrangementFramework restored(fc, &probe_env,
                                    probe_env.worker_feature_dim(),
                                    probe_env.task_feature_dim());
  ASSERT_TRUE(restored.LoadState(path).ok());

  // Build a probe observation from the trained harness's world.
  Observation obs;
  obs.time = ds.InitEndTime() + 100;
  obs.worker = 0;
  obs.worker_quality = 0.5;
  obs.worker_features.assign(probe_env.worker_feature_dim(), 0.1f);
  std::vector<std::vector<float>> feats;
  feats.reserve(4);
  for (int i = 0; i < 4; ++i) {
    feats.push_back(std::vector<float>(probe_env.task_feature_dim(), 0.0f));
    feats.back()[i % probe_env.task_feature_dim()] = 1.0f;
  }
  for (int i = 0; i < 4; ++i) {
    TaskSnapshot snap;
    snap.id = i;
    snap.deadline = obs.time + 10000;
    snap.features = &feats[i];
    snap.quality = 0.2;
    obs.tasks.push_back(snap);
  }
  auto q_trained = trained.CombinedScores(obs);
  auto q_restored = restored.CombinedScores(obs);
  ASSERT_EQ(q_trained.size(), q_restored.size());
  for (size_t i = 0; i < q_trained.size(); ++i) {
    EXPECT_DOUBLE_EQ(q_trained[i], q_restored[i]);
  }
  // Arrival statistics restored too.
  EXPECT_EQ(restored.arrival_model().num_arrivals(),
            trained.arrival_model().num_arrivals());
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, LoadRejectsObjectiveMismatch) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_mismatch.bin";
  ReplayHarness env(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());

  FrameworkConfig worker_only =
      exp.MakeFrameworkConfig(Objective::kWorkerBenefit);
  TaskArrangementFramework a(worker_only, &env, env.worker_feature_dim(),
                             env.task_feature_dim());
  ASSERT_TRUE(a.SaveState(path).ok());

  FrameworkConfig balanced = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework b(balanced, &env, env.worker_feature_dim(),
                             env.task_feature_dim());
  EXPECT_FALSE(b.LoadState(path).ok());
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, LoadRejectsMissingFile) {
  Dataset ds = MakeDataset();
  ReplayHarness env(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kWorkerBenefit);
  TaskArrangementFramework fw(fc, &env, env.worker_feature_dim(),
                              env.task_feature_dim());
  EXPECT_FALSE(fw.LoadState("/nonexistent/ckpt.bin").ok());
}

/// Q values of a fixed probe state under one agent's online net.
std::vector<double> ProbeQ(const DqnAgent& agent) {
  Rng rng(5);
  const Matrix probe =
      Matrix::Uniform(6, agent.online().config().input_dim, &rng);
  return agent.Scores(probe, 6);
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A checkpoint whose body was edited, with its header's length and
/// checksum rewritten to match: the body's own checks must then judge it.
std::string Resealed(std::string bytes) {
  constexpr size_t kHeader = TaskArrangementFramework::kCheckpointHeaderBytes;
  const uint64_t total = bytes.size();
  const uint64_t checksum = TaskArrangementFramework::CheckpointChecksum(
      bytes.data() + kHeader, bytes.size() - kHeader);
  std::memcpy(&bytes[8], &total, sizeof(total));
  std::memcpy(&bytes[16], &checksum, sizeof(checksum));
  return bytes;
}

size_t SavedSize(const SetQNetwork& net) {
  std::stringstream ss;
  EXPECT_TRUE(net.Save(&ss).ok());
  return ss.str().size();
}

TEST_F(FrameworkCheckpointTest, CorruptCheckpointLeavesTheFrameworkUntouched) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_corrupt.bin";
  ReplayHarness harness(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework trained(fc, &harness, harness.worker_feature_dim(),
                                   harness.task_feature_dim());
  harness.Run(&trained);
  ASSERT_TRUE(trained.SaveState(path).ok());
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }

  ReplayHarness env(&ds, MakeConfig().harness);
  TaskArrangementFramework fw(fc, &env, env.worker_feature_dim(),
                              env.task_feature_dim());
  const DqnAgent& worker = *fw.worker_agent();
  const DqnAgent& requester = *fw.requester_agent();
  const std::vector<double> worker_q = ProbeQ(worker);
  const std::vector<double> requester_q = ProbeQ(requester);
  const uint64_t worker_version = worker.online_version();
  const uint64_t requester_version = requester.online_version();
  const int64_t arrivals = fw.arrival_model().num_arrivals();
  const auto expect_untouched = [&](const std::string& what) {
    EXPECT_EQ(ProbeQ(worker), worker_q) << what;
    EXPECT_EQ(ProbeQ(requester), requester_q) << what;
    EXPECT_EQ(worker.online_version(), worker_version) << what;
    EXPECT_EQ(requester.online_version(), requester_version) << what;
    EXPECT_EQ(fw.arrival_model().num_arrivals(), arrivals) << what;
  };

  // Layout: header (magic, version, length, checksum) + net flags (2) +
  // worker net + requester net + arrival model.
  const size_t worker_begin =
      TaskArrangementFramework::kCheckpointHeaderBytes + 2;
  const size_t requester_begin =
      worker_begin + SavedSize(trained.worker_agent()->online());
  const size_t arrivals_begin =
      requester_begin + SavedSize(trained.requester_agent()->online());
  ASSERT_LT(arrivals_begin, bytes.size());
  // A file cut short fails the header's length check. Resealed to its cut
  // length, the body parser must find the body itself cut short (a cut
  // inside the header cannot be resealed).
  for (size_t cut : {size_t{3}, worker_begin, worker_begin + 60,
                     requester_begin - 1, requester_begin,
                     requester_begin + 100, arrivals_begin,
                     bytes.size() - 1}) {
    WriteBytes(path, bytes.substr(0, cut));
    Status st = fw.LoadState(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << "cut at " << cut;
    expect_untouched("cut at " + std::to_string(cut));
    if (cut < TaskArrangementFramework::kCheckpointHeaderBytes) continue;
    WriteBytes(path, Resealed(bytes.substr(0, cut)));
    st = fw.LoadState(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError)
        << "resealed cut at " << cut << ": " << st.ToString();
    expect_untouched("resealed cut at " + std::to_string(cut));
  }

  // Extra bytes after a complete checkpoint: one junk byte, or a second
  // checkpoint appended. The header's length check rejects each as it is;
  // resealed, each parses as a whole body plus a tail, and the body
  // parser's trailing-bytes check must reject the file.
  for (const auto& [what, tail] :
       {std::pair<std::string, std::string>{"+1 byte", std::string(1, '\0')},
        std::pair<std::string, std::string>{"+ a second checkpoint",
                                            bytes}}) {
    WriteBytes(path, bytes + tail);
    Status st = fw.LoadState(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << what;
    expect_untouched(what);
    WriteBytes(path, Resealed(bytes + tail));
    st = fw.LoadState(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError)
        << "resealed " << what << ": " << st.ToString();
    EXPECT_NE(st.message().find("trailing bytes"), std::string::npos)
        << "resealed " << what << ": " << st.ToString();
    expect_untouched("resealed " + what);
  }

  // One NaN weight in the requester net (past its 40-byte config header
  // and the 16-byte shape header of rFF1's weights), under a header that
  // matches it: the worker net before it is intact, but nothing may be
  // installed.
  std::string patched = bytes;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(&patched[requester_begin + 40 + 16 + 4 * 3], &nan, sizeof(nan));
  WriteBytes(path, patched);
  EXPECT_EQ(fw.LoadState(path).code(), StatusCode::kIoError) << "checksum";
  expect_untouched("NaN weight, stale checksum");
  patched = Resealed(patched);
  WriteBytes(path, patched);
  const Status st = fw.LoadState(path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  expect_untouched("NaN weight");

  // The intact checkpoint still loads, and moves all three.
  WriteBytes(path, bytes);
  ASSERT_TRUE(fw.LoadState(path).ok());
  EXPECT_NE(ProbeQ(worker), worker_q);
  EXPECT_NE(ProbeQ(requester), requester_q);
  EXPECT_GT(worker.online_version(), worker_version);
  EXPECT_EQ(fw.arrival_model().num_arrivals(),
            trained.arrival_model().num_arrivals());
  std::remove(path.c_str());
}

TEST_F(FrameworkCheckpointTest, FuzzedCheckpointsNeverLoad) {
  // Every prefix of a real checkpoint (about 40 KB), and single-bit flips
  // (every bit of the header, then one bit of every 7th body byte, the
  // bit cycling with the offset), must fail with a typed Status and leave
  // the framework as it was.
  Dataset ds = MakeDataset();
  ReplayHarness harness(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework trained(fc, &harness, harness.worker_feature_dim(),
                                   harness.task_feature_dim());
  harness.Run(&trained);
  std::string bytes;
  ASSERT_TRUE(trained.SaveStateBytes(&bytes).ok());
  const std::string path = "/tmp/crowdrl_framework_ckpt_fuzz.bin";
  ASSERT_TRUE(trained.SaveState(path).ok());
  {
    std::ifstream f(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(f), {}), bytes);
  }
  std::remove(path.c_str());

  ReplayHarness env(&ds, MakeConfig().harness);
  TaskArrangementFramework fw(fc, &env, env.worker_feature_dim(),
                              env.task_feature_dim());
  const std::vector<double> worker_q = ProbeQ(*fw.worker_agent());
  const std::vector<double> requester_q = ProbeQ(*fw.requester_agent());
  const auto versions = [&fw] {
    return std::make_pair(fw.worker_agent()->online_version(),
                          fw.requester_agent()->online_version());
  };
  const auto before = versions();
  const int64_t arrivals = fw.arrival_model().num_arrivals();
  const auto expect_refused = [&](std::string_view corrupt,
                                  const std::string& what) {
    const Status st = fw.LoadStateBytes(corrupt);
    ASSERT_FALSE(st.ok()) << what;
    ASSERT_TRUE(st.code() == StatusCode::kIoError ||
                st.code() == StatusCode::kFailedPrecondition)
        << what << ": " << st.ToString();
    ASSERT_EQ(versions(), before) << what;
    ASSERT_EQ(fw.arrival_model().num_arrivals(), arrivals) << what;
  };

  for (size_t n = 0; n < bytes.size(); ++n) {
    expect_refused(std::string_view(bytes).substr(0, n),
                   "prefix of " + std::to_string(n) + " bytes");
  }
  constexpr size_t kHeader = TaskArrangementFramework::kCheckpointHeaderBytes;
  std::string flipped = bytes;
  for (size_t i = 0; i < bytes.size(); i += i < kHeader ? 1 : 7) {
    for (int bit = 0; bit < 8; ++bit) {
      if (i >= kHeader && bit != static_cast<int>(i % 8)) continue;
      flipped[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      expect_refused(flipped, "bit " + std::to_string(bit) + " of byte " +
                                  std::to_string(i));
      flipped[i] = bytes[i];
    }
  }
  EXPECT_EQ(ProbeQ(*fw.worker_agent()), worker_q);
  EXPECT_EQ(ProbeQ(*fw.requester_agent()), requester_q);

  ASSERT_TRUE(fw.LoadStateBytes(bytes).ok());
  EXPECT_EQ(fw.arrival_model().num_arrivals(),
            trained.arrival_model().num_arrivals());
}

TEST_F(FrameworkCheckpointTest, CorruptArrivalRecordLeavesTheFrameworkUntouched) {
  Dataset ds = MakeDataset();
  const std::string path = "/tmp/crowdrl_framework_ckpt_arrivals.bin";
  ReplayHarness env(&ds, MakeConfig().harness);
  Experiment exp(&ds, MakeConfig());
  FrameworkConfig fc = exp.MakeFrameworkConfig(Objective::kBalanced);
  TaskArrangementFramework fw(fc, &env, env.worker_feature_dim(),
                              env.task_feature_dim());
  ASSERT_TRUE(fw.SaveState(path).ok());
  std::string nets;
  {
    std::ifstream f(path, std::ios::binary);
    nets.assign(std::istreambuf_iterator<char>(f), {});
  }
  // Swap the (empty) arrival record for one with seen workers.
  std::stringstream empty_arrivals;
  ASSERT_TRUE(fw.arrival_model().Save(&empty_arrivals).ok());
  ASSERT_GT(nets.size(), empty_arrivals.str().size());
  nets.resize(nets.size() - empty_arrivals.str().size());
  ArrivalModel model(fc.arrival);
  for (int i = 0; i < 40; ++i) model.RecordArrival(i % 7, 100 + 30 * i);
  std::stringstream arrivals;
  ASSERT_TRUE(model.Save(&arrivals).ok());
  const std::string record = arrivals.str();

  const std::vector<double> worker_q = ProbeQ(*fw.worker_agent());
  const double new_worker_rate = fw.arrival_model().new_worker_rate();
  const auto expect_untouched = [&](const std::string& what) {
    EXPECT_EQ(ProbeQ(*fw.worker_agent()), worker_q) << what;
    EXPECT_EQ(fw.arrival_model().num_arrivals(), 0) << what;
    EXPECT_TRUE(fw.arrival_model().seen_workers().empty()) << what;
    EXPECT_EQ(fw.arrival_model().new_worker_rate(), new_worker_rate) << what;
  };
  // Record layout: φ, then ϕ (each a 48-byte header, a uint64 bin count
  // and the counts), 4 scalars and a uint64 entry count, then one
  // (int64 id, SimTime last) entry per seen worker.
  const size_t header = 3 * sizeof(SimTime) + 3 * sizeof(double);
  const size_t phi_n = header;
  const size_t phi_counts = phi_n + sizeof(uint64_t);
  const size_t varphi_begin =
      phi_counts + model.same_worker_gap().num_bins() * sizeof(double);
  const size_t varphi_n = varphi_begin + header;
  const size_t entries = varphi_n + sizeof(uint64_t) +
                         model.any_gap().num_bins() * sizeof(double) +
                         4 * 8 + sizeof(uint64_t);
  ASSERT_EQ(entries + 7 * 16, record.size());
  int64_t first_id = 0;
  std::memcpy(&first_id, &record[entries], sizeof(first_id));
  // The 4 scalars: last arrival time, decayed new-worker count, decayed
  // total count, arrival count.
  const size_t last_arrival = entries - 5 * 8;
  const size_t decayed_new = entries - 4 * 8;
  const size_t decayed_total = entries - 3 * 8;
  const size_t num_arrivals = entries - 2 * 8;
  double total = 0;
  std::memcpy(&total, &record[decayed_total], sizeof(total));
  ASSERT_GT(total, 0.0);

  struct Corruption {
    size_t offset;
    std::string bytes;
    const char* what;
  };
  auto raw = [](auto v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const Corruption& c :
       {Corruption{phi_n, raw(uint64_t{0}), "phi with no bins"},
        Corruption{varphi_n, raw(uint64_t{5}), "varphi with 5 bins"},
        Corruption{phi_counts + 8, raw(-3.0), "negative phi count"},
        Corruption{phi_counts,
                   raw(std::numeric_limits<double>::infinity()),
                   "infinite phi count"},
        Corruption{record.size() - 16, raw(first_id),
                   "a worker listed twice"},
        Corruption{decayed_total,
                   raw(std::numeric_limits<double>::quiet_NaN()),
                   "NaN decayed total"},
        Corruption{decayed_new,
                   raw(std::numeric_limits<double>::infinity()),
                   "infinite decayed new"},
        Corruption{decayed_new, raw(-1.0), "negative decayed new"},
        Corruption{decayed_total, raw(-1.0), "negative decayed total"},
        Corruption{decayed_new, raw(total + 1.0),
                   "decayed new above decayed total"},
        Corruption{num_arrivals, raw(int64_t{-1}),
                   "negative arrival count"},
        Corruption{last_arrival, raw(std::numeric_limits<int64_t>::max()),
                   "last arrival after every worker's"},
        Corruption{last_arrival, raw(int64_t{-1}),
                   "no last arrival with workers seen"},
        Corruption{last_arrival, raw(int64_t{100}),
                   "last arrival before the latest worker's"}}) {
    std::string patched = record;
    patched.replace(c.offset, c.bytes.size(), c.bytes);
    WriteBytes(path, Resealed(nets + patched));
    const Status st = fw.LoadState(path);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << c.what;
    expect_untouched(c.what);
  }

  WriteBytes(path, Resealed(nets + record));
  ASSERT_TRUE(fw.LoadState(path).ok());
  EXPECT_EQ(fw.arrival_model().num_arrivals(), 40);
  EXPECT_EQ(fw.arrival_model().seen_workers().size(), 7u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crowdrl
