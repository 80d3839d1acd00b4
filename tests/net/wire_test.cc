// Wire-codec hardening: every message type round-trips bit-exactly, and
// malformed input — truncated, oversized, bad-magic, bad-version, trailing
// garbage, hostile counts, random fuzz — is rejected with a *typed* error
// and never crashes (the suite runs under ASan/UBSan in CI).
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/shm_ring.h"
#include "nn/set_qnetwork.h"

namespace crowdrl {
namespace net {
namespace {

Observation MakeObservation(std::vector<std::vector<float>>* feature_store) {
  Observation obs;
  obs.time = 86400;
  obs.arrival_index = 42;
  obs.worker = 7;
  obs.worker_quality = 0.625;
  obs.worker_features = {0.25f, -1.5f, 3.0f};
  feature_store->push_back({1.0f, 0.0f, 0.5f, -0.125f});
  feature_store->push_back({});
  for (int i = 0; i < 2; ++i) {
    TaskSnapshot task;
    task.id = 100 + i;
    task.category = i;
    task.domain = 5 - i;
    task.award = 1.75 + i;
    task.deadline = 90000 + i;
    task.quality = 0.5 - 0.125 * i;
    task.features = &(*feature_store)[i];
    obs.tasks.push_back(task);
  }
  return obs;
}

void ExpectObservationsEqual(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.arrival_index, b.arrival_index);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.worker_quality, b.worker_quality);
  EXPECT_EQ(a.worker_features, b.worker_features);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].id, b.tasks[i].id);
    EXPECT_EQ(a.tasks[i].category, b.tasks[i].category);
    EXPECT_EQ(a.tasks[i].domain, b.tasks[i].domain);
    EXPECT_EQ(a.tasks[i].award, b.tasks[i].award);
    EXPECT_EQ(a.tasks[i].deadline, b.tasks[i].deadline);
    EXPECT_EQ(a.tasks[i].quality, b.tasks[i].quality);
    ASSERT_NE(b.tasks[i].features, nullptr);
    EXPECT_EQ(*a.tasks[i].features, *b.tasks[i].features);
  }
}

Transition MakeTransition(float salt) {
  Transition t;
  t.state = Matrix(3, 2);
  for (size_t i = 0; i < t.state.size(); ++i) {
    t.state.data()[i] = salt + static_cast<float>(i);
  }
  t.valid_n = 2;
  t.action_row = 1;
  t.target = 0.75 + salt;
  return t;
}

void ExpectTransitionsEqual(const Transition& a, const Transition& b) {
  ASSERT_EQ(a.state.rows(), b.state.rows());
  ASSERT_EQ(a.state.cols(), b.state.cols());
  EXPECT_EQ(Matrix::MaxAbsDiff(a.state, b.state), 0.0f);
  EXPECT_EQ(a.valid_n, b.valid_n);
  EXPECT_EQ(a.action_row, b.action_row);
  EXPECT_EQ(a.target, b.target);
}

TEST(WireTest, FrameHeaderIsPackedContract) {
  EXPECT_EQ(sizeof(FrameHeader), 16u);
  FrameHeader header;
  header.type = static_cast<uint16_t>(MsgType::kRankRequest);
  EXPECT_EQ(CheckHeader(header), WireFault::kNone);
}

TEST(WireTest, CheckHeaderRejectsEachFaultDistinctly) {
  FrameHeader good;
  good.type = static_cast<uint16_t>(MsgType::kStatsRequest);
  ASSERT_EQ(CheckHeader(good), WireFault::kNone);

  FrameHeader bad_magic = good;
  bad_magic.magic = 0xDEADBEEF;
  EXPECT_EQ(CheckHeader(bad_magic), WireFault::kBadMagic);

  FrameHeader bad_version = good;
  bad_version.version = kWireVersion + 1;
  EXPECT_EQ(CheckHeader(bad_version), WireFault::kBadVersion);

  FrameHeader bad_type = good;
  bad_type.type = 0x7777;
  EXPECT_EQ(CheckHeader(bad_type), WireFault::kBadType);

  FrameHeader oversized = good;
  oversized.body_len = kMaxFrameBody + 1;
  EXPECT_EQ(CheckHeader(oversized), WireFault::kOversized);
}

TEST(WireTest, FaultStatusCarriesTypedCodes) {
  EXPECT_TRUE(FaultStatus(WireFault::kNone, "x").ok());
  EXPECT_EQ(FaultStatus(WireFault::kBadMagic, "x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultStatus(WireFault::kBadVersion, "x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FaultStatus(WireFault::kTruncated, "x").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(FaultStatus(WireFault::kOversized, "x").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(FaultStatus(WireFault::kMalformed, "x").code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, RankRequestRoundTrips) {
  std::vector<std::vector<float>> store;
  const Observation obs = MakeObservation(&store);
  std::string body;
  AppendRankRequest(obs, /*record_arrival=*/true, &body);

  DecodedRankRequest decoded;
  ASSERT_TRUE(ParseRankRequest(body.data(), body.size(), &decoded).ok());
  EXPECT_TRUE(decoded.record_arrival);
  ExpectObservationsEqual(obs, decoded.obs);

  // The decoded observation owns its feature payloads: moving the decoded
  // request must keep TaskSnapshot::features pointers valid (deque-backed).
  DecodedRankRequest moved = std::move(decoded);
  ExpectObservationsEqual(obs, moved.obs);
}

TEST(WireTest, RankResponseRoundTripsAndValidatesPermutationRange) {
  std::string body;
  AppendRankResponse(9, 4, /*degraded=*/true, {2, 0, 1, 3}, &body);
  DecodedRankResponse decoded;
  ASSERT_TRUE(ParseRankResponse(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded.arrival_index, 9);
  EXPECT_EQ(decoded.snapshot_version, 4u);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.ranking, (std::vector<int>{2, 0, 1, 3}));

  // An out-of-range rank index is rejected as malformed, not accepted.
  std::string bad;
  AppendRankResponse(9, 4, false, {0, 17}, &bad);
  DecodedRankResponse rejected;
  const Status st = ParseRankResponse(bad.data(), bad.size(), &rejected);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, ServerMintedFeedbackRoundTrips) {
  crowdrl::Feedback feedback;
  feedback.completed_pos = 1;
  feedback.completed_index = 3;
  feedback.quality_gain = 0.375;
  std::string body;
  AppendFeedback(11, 5, feedback, &body);
  DecodedFeedback decoded;
  ASSERT_TRUE(ParseFeedback(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded.arrival_index, 11);
  EXPECT_EQ(decoded.worker, 5);
  EXPECT_EQ(decoded.mode, FeedbackMode::kServerMinted);
  EXPECT_EQ(decoded.feedback.completed_pos, 1);
  EXPECT_EQ(decoded.feedback.completed_index, 3);
  EXPECT_EQ(decoded.feedback.quality_gain, 0.375);
  EXPECT_TRUE(decoded.blocks.empty());
}

TEST(WireTest, ClientTransitionsFeedbackRoundTrips) {
  crowdrl::Feedback feedback;
  feedback.completed_pos = 0;
  feedback.completed_index = 2;
  feedback.quality_gain = 1.5;
  TransitionBlocks blocks;
  blocks.worker.push_back(MakeTransition(0.5f));
  blocks.worker.push_back(MakeTransition(2.0f));
  blocks.requester.push_back(MakeTransition(-1.25f));
  std::string body;
  AppendFeedbackTransitions(21, 3, feedback, blocks, &body);

  DecodedFeedback decoded;
  ASSERT_TRUE(ParseFeedback(body.data(), body.size(), &decoded).ok());
  EXPECT_EQ(decoded.mode, FeedbackMode::kClientTransitions);
  ASSERT_EQ(decoded.blocks.worker.size(), 2u);
  ASSERT_EQ(decoded.blocks.requester.size(), 1u);
  ExpectTransitionsEqual(blocks.worker[0], decoded.blocks.worker[0]);
  ExpectTransitionsEqual(blocks.worker[1], decoded.blocks.worker[1]);
  ExpectTransitionsEqual(blocks.requester[0], decoded.blocks.requester[0]);
}

TEST(WireTest, ClientTransitionIsStateValidNActionRowTarget) {
  // v3 layout: rows, cols, the state's floats, valid_n, action_row, target.
  TransitionBlocks blocks;
  blocks.worker.push_back(MakeTransition(0.0f));
  std::string body;
  AppendFeedbackTransitions(1, 1, crowdrl::Feedback{}, blocks, &body);
  const size_t transition_bytes = 2 * sizeof(uint32_t) +
                                  3 * 2 * sizeof(float) + sizeof(uint32_t) +
                                  sizeof(int32_t) + sizeof(double);
  EXPECT_EQ(body.size(), sizeof(FeedbackRequestHead) + transition_bytes);
}

TEST(WireTest, ClientTransitionActionRowMustBeAValidRow) {
  // The learner regresses Q at the action row: -1 (no action) and any row at
  // or past valid_n (padding, or outside the state) are malformed.
  for (const int action_row : {-1, 2, 3, 1000}) {
    TransitionBlocks blocks;
    blocks.requester.push_back(MakeTransition(0.0f));  // 3 rows, valid_n 2
    blocks.requester.back().action_row = action_row;
    std::string body;
    AppendFeedbackTransitions(1, 1, crowdrl::Feedback{}, blocks, &body);
    DecodedFeedback decoded;
    const Status st = ParseFeedback(body.data(), body.size(), &decoded);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << action_row;
    EXPECT_EQ(st.message(), FaultStatus(WireFault::kMalformed,
                                        "feedback-request").message())
        << action_row;
  }
}

TEST(WireTest, ServerMintedFeedbackWithTransitionCountsIsMalformed) {
  crowdrl::Feedback feedback;
  std::string body;
  AppendFeedback(1, 1, feedback, &body);
  FeedbackRequestHead head;
  std::memcpy(&head, body.data(), sizeof(head));
  head.num_worker_transitions = 1;  // inconsistent with kServerMinted
  std::memcpy(&body[0], &head, sizeof(head));
  DecodedFeedback decoded;
  EXPECT_EQ(ParseFeedback(body.data(), body.size(), &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, FeedbackResponseAndSnapshotRequestRoundTrip) {
  std::string body;
  AppendFeedbackResponse(33, true, 12, &body);
  FeedbackResponseHead resp;
  ASSERT_TRUE(ParseFeedbackResponse(body.data(), body.size(), &resp).ok());
  EXPECT_EQ(resp.arrival_index, 33);
  EXPECT_EQ(resp.accepted, 1);
  EXPECT_EQ(resp.events_submitted, 12);

  body.clear();
  AppendSnapshotRequest(2, 77, &body);
  SnapshotRequestHead req;
  ASSERT_TRUE(ParseSnapshotRequest(body.data(), body.size(), &req).ok());
  EXPECT_EQ(req.shard, 2u);
  EXPECT_EQ(req.have_version, 77u);
}

TEST(WireTest, SnapshotRoundTripsNetworksBitExactly) {
  Rng rng(99);
  SetQNetworkConfig net_cfg;
  net_cfg.input_dim = 6;
  net_cfg.hidden_dim = 8;
  net_cfg.num_heads = 2;
  PolicySnapshot snapshot;
  snapshot.version = 5;
  snapshot.worker.online = std::make_shared<SetQNetwork>(net_cfg, &rng);
  snapshot.worker.target = std::make_shared<SetQNetwork>(net_cfg, &rng);
  // requester pair absent: the kWorkerBenefit objective's shape.

  std::string body;
  ASSERT_TRUE(AppendSnapshotResponse(snapshot, /*have_version=*/0, &body).ok());
  DecodedSnapshot decoded;
  ASSERT_TRUE(ParseSnapshotResponse(body.data(), body.size(), &decoded).ok());
  EXPECT_TRUE(decoded.changed);
  EXPECT_EQ(decoded.version, 5u);
  ASSERT_NE(decoded.snapshot, nullptr);
  ASSERT_NE(decoded.snapshot->worker.online, nullptr);
  ASSERT_NE(decoded.snapshot->worker.target, nullptr);
  EXPECT_EQ(decoded.snapshot->requester.online, nullptr);

  // Bit-exact replica: re-serializing the decoded snapshot reproduces the
  // original bytes.
  std::string body2;
  ASSERT_TRUE(
      AppendSnapshotResponse(*decoded.snapshot, /*have_version=*/0, &body2)
          .ok());
  EXPECT_EQ(body, body2);

  // Version-gated fetch: an up-to-date replica costs a header, no payload.
  std::string unchanged;
  ASSERT_TRUE(AppendSnapshotResponse(snapshot, /*have_version=*/5, &unchanged)
                  .ok());
  EXPECT_EQ(unchanged.size(), sizeof(SnapshotResponseHead));
  DecodedSnapshot cached;
  ASSERT_TRUE(
      ParseSnapshotResponse(unchanged.data(), unchanged.size(), &cached).ok());
  EXPECT_FALSE(cached.changed);
  EXPECT_EQ(cached.snapshot, nullptr);
}

TEST(WireTest, StatsRoundTripIncludesTransportCounters) {
  // Field k gets the value k + 1, so every field is distinct and nonzero.
  ServiceStats stats;
  int fields = 0;
  ServiceStats::ForEachField(
      [&](const char*, auto field) { stats.*field = ++fields; });

  std::string body;
  AppendStats(stats, &body);
  // The v3 stats body, pinned: 32 fields of 8 bytes, field k at offset 8k,
  // and ForEachField walks the fields in declaration order.
  ASSERT_EQ(fields, 32);
  ASSERT_EQ(body.size(), 256u);
  const auto* base = reinterpret_cast<const char*>(&stats);
  size_t offset = 0;
  ServiceStats::ForEachField([&](const char* name, auto field) {
    auto at_offset = stats.*field;
    static_assert(sizeof(at_offset) == 8, "every stats field is 8 bytes");
    std::memcpy(&at_offset, body.data() + offset, sizeof(at_offset));
    EXPECT_EQ(at_offset, stats.*field) << name;
    EXPECT_EQ(reinterpret_cast<const char*>(&(stats.*field)) - base,
              static_cast<std::ptrdiff_t>(offset))
        << name << " is not declared in ForEachField order";
    offset += 8;
  });
  // Anchors from the v3 layout: a field inserted or moved before one of
  // them changes the wire and fails here.
  const auto int64_at = [&](size_t at) {
    int64_t v = 0;
    std::memcpy(&v, body.data() + at, sizeof(v));
    return v;
  };
  EXPECT_EQ(int64_at(0), stats.requests);
  EXPECT_EQ(int64_at(64), stats.blocks_refused);
  EXPECT_EQ(int64_at(88), static_cast<int64_t>(stats.snapshot_version));
  EXPECT_EQ(int64_at(112), stats.rank_count);
  EXPECT_EQ(int64_at(160), stats.transport_connections);
  EXPECT_EQ(int64_at(216), stats.transport_remote_transitions);
  EXPECT_EQ(int64_at(248), stats.transport_ring_wait_syscalls);

  ServiceStats decoded;
  ASSERT_TRUE(ParseStats(body.data(), body.size(), &decoded).ok());
  ServiceStats::ForEachField([&](const char* name, auto field) {
    EXPECT_EQ(decoded.*field, stats.*field) << name;
  });
}

TEST(WireTest, ErrorFrameRoundTripsStatus) {
  std::string body;
  AppendError(Status::InvalidArgument("bad ranking"), &body);
  const Status decoded = ParseError(body.data(), body.size());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.message(), "remote: bad ranking");

  // A hostile code outside the enum and an OK code both decode to a real
  // error (an error frame can never mean success).
  ErrorHead head;
  std::memcpy(&head, body.data(), sizeof(head));
  head.code = 0x7FFF;
  std::memcpy(&body[0], &head, sizeof(head));
  EXPECT_EQ(ParseError(body.data(), body.size()).code(),
            StatusCode::kInternal);
  head.code = static_cast<uint16_t>(StatusCode::kOk);
  std::memcpy(&body[0], &head, sizeof(head));
  EXPECT_FALSE(ParseError(body.data(), body.size()).ok());
}

// Every strict prefix of every valid body must be rejected cleanly — the
// systematic truncation sweep the hardening satellite asks for.
void ExpectAllPrefixesRejected(const std::string& body,
                               const std::function<Status(const void*, size_t)>&
                                   parse) {
  for (size_t len = 0; len < body.size(); ++len) {
    const Status st = parse(body.data(), len);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " accepted";
  }
  // ...and one trailing byte makes it malformed, not silently ignored.
  std::string padded = body + '\0';
  EXPECT_FALSE(parse(padded.data(), padded.size()).ok());
}

TEST(WireTest, TruncatedAndPaddedBodiesAreRejectedForEveryMessageType) {
  std::vector<std::vector<float>> store;
  const Observation obs = MakeObservation(&store);
  std::string body;

  AppendRankRequest(obs, true, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    DecodedRankRequest out;
    return ParseRankRequest(d, n, &out);
  });

  body.clear();
  AppendRankResponse(1, 2, false, {1, 0}, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    DecodedRankResponse out;
    return ParseRankResponse(d, n, &out);
  });

  body.clear();
  TransitionBlocks blocks;
  blocks.worker.push_back(MakeTransition(1.0f));
  AppendFeedbackTransitions(1, 1, crowdrl::Feedback{}, blocks, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    DecodedFeedback out;
    return ParseFeedback(d, n, &out);
  });

  body.clear();
  AppendFeedbackResponse(1, true, 1, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    FeedbackResponseHead out;
    return ParseFeedbackResponse(d, n, &out);
  });

  body.clear();
  AppendSnapshotRequest(0, 0, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    SnapshotRequestHead out;
    return ParseSnapshotRequest(d, n, &out);
  });

  body.clear();
  Rng rng(3);
  SetQNetworkConfig net_cfg;
  net_cfg.input_dim = 4;
  net_cfg.hidden_dim = 4;
  net_cfg.num_heads = 1;
  PolicySnapshot snapshot;
  snapshot.version = 1;
  snapshot.worker.online = std::make_shared<SetQNetwork>(net_cfg, &rng);
  ASSERT_TRUE(AppendSnapshotResponse(snapshot, 0, &body).ok());
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    DecodedSnapshot out;
    return ParseSnapshotResponse(d, n, &out);
  });

  body.clear();
  AppendStats(ServiceStats{}, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    ServiceStats out;
    return ParseStats(d, n, &out);
  });

  body.clear();
  AppendShmSetupRequest(kDefaultShmRingCapacity, &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    ShmSetupRequestHead out;
    return ParseShmSetupRequest(d, n, &out);
  });

  body.clear();
  AppendShmSetupResponse(kDefaultShmRingCapacity,
                         ShmSegmentBytes(kDefaultShmRingCapacity), &body);
  ExpectAllPrefixesRejected(body, [](const void* d, size_t n) {
    ShmSetupResponseHead out;
    return ParseShmSetupResponse(d, n, &out);
  });

  body.clear();
  AppendError(Status::IoError("x"), &body);
  for (size_t len = 0; len < body.size(); ++len) {
    // ParseError returns the *carried* status on success, so "rejected"
    // here means the typed wire fault, identifiable by its message prefix.
    const Status st = ParseError(body.data(), len);
    EXPECT_EQ(st.message().rfind("wire ", 0), 0u)
        << "prefix of length " << len << " decoded as a remote status";
  }
}

TEST(WireTest, HostileCountsAreRejectedBeforeAllocation) {
  // A rank request head claiming 4 billion tasks in a 30-byte body must be
  // rejected by the bound check, not by an allocation failure.
  RankRequestHead head;
  head.num_tasks = 0xFFFFFFFFu;
  std::string body(reinterpret_cast<const char*>(&head), sizeof(head));
  DecodedRankRequest decoded;
  EXPECT_EQ(ParseRankRequest(body.data(), body.size(), &decoded).code(),
            StatusCode::kOutOfRange);

  head = RankRequestHead{};
  head.num_worker_features = kMaxFeatureDim + 1;
  std::memcpy(&body[0], &head, sizeof(head));
  EXPECT_EQ(ParseRankRequest(body.data(), body.size(), &decoded).code(),
            StatusCode::kOutOfRange);

  FeedbackRequestHead fb_head;
  fb_head.mode = static_cast<uint8_t>(FeedbackMode::kClientTransitions);
  fb_head.num_worker_transitions = kMaxTransitionsPerBlock + 1;
  std::string fb_body(reinterpret_cast<const char*>(&fb_head),
                      sizeof(fb_head));
  DecodedFeedback fb;
  EXPECT_EQ(ParseFeedback(fb_body.data(), fb_body.size(), &fb).code(),
            StatusCode::kOutOfRange);

  fb_head.num_worker_transitions = 0;
  fb_head.mode = 200;  // unknown FeedbackMode
  std::memcpy(&fb_body[0], &fb_head, sizeof(fb_head));
  EXPECT_EQ(ParseFeedback(fb_body.data(), fb_body.size(), &fb).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, HostileShmGeometriesAreMalformedNotMapped) {
  // Every hostile geometry dies at the parser — before any ftruncate or
  // mmap could act on it.
  const uint64_t hostile_caps[] = {
      0,
      kMinShmRingCapacity - 1,
      kMinShmRingCapacity + 1,     // not a power of two
      kDefaultShmRingCapacity | 3,  // not a power of two
      kMaxShmRingCapacity * 2,
      ~uint64_t{0},
  };
  for (const uint64_t cap : hostile_caps) {
    ShmSetupRequestHead req{};
    req.ring_capacity = cap;
    ShmSetupRequestHead out;
    EXPECT_EQ(ParseShmSetupRequest(&req, sizeof(req), &out).code(),
              StatusCode::kInvalidArgument)
        << "capacity " << cap << " accepted";

    ShmSetupResponseHead resp{};
    resp.ring_capacity = cap;
    resp.segment_bytes = ShmSegmentBytes(kDefaultShmRingCapacity);
    ShmSetupResponseHead rout;
    EXPECT_EQ(ParseShmSetupResponse(&resp, sizeof(resp), &rout).code(),
              StatusCode::kInvalidArgument)
        << "response capacity " << cap << " accepted";
  }

  // A response whose segment size disagrees with its own capacity is a
  // lying peer, not a mapping instruction.
  ShmSetupResponseHead resp{};
  resp.ring_capacity = kDefaultShmRingCapacity;
  resp.segment_bytes = ShmSegmentBytes(kDefaultShmRingCapacity) + 4096;
  ShmSetupResponseHead out;
  EXPECT_EQ(ParseShmSetupResponse(&resp, sizeof(resp), &out).code(),
            StatusCode::kInvalidArgument);

  // The valid geometry round-trips through both heads.
  std::string body;
  AppendShmSetupRequest(kDefaultShmRingCapacity, &body);
  ShmSetupRequestHead req_out;
  ASSERT_TRUE(
      ParseShmSetupRequest(body.data(), body.size(), &req_out).ok());
  EXPECT_EQ(req_out.ring_capacity, kDefaultShmRingCapacity);
}

// Randomized frame fuzzer: arbitrary bytes and bit-flipped valid bodies
// through every parser. The assertion is survival with a clean Status —
// under ASan/UBSan this is a memory-safety proof over ~10^4 hostile inputs.
TEST(WireTest, FuzzerNeverCrashesAnyParser) {
  Rng rng(20260808);
  std::vector<std::vector<float>> store;
  const Observation obs = MakeObservation(&store);
  TransitionBlocks blocks;
  blocks.worker.push_back(MakeTransition(1.0f));

  std::vector<std::string> seeds;
  seeds.emplace_back();
  AppendRankRequest(obs, true, &seeds.back());
  seeds.emplace_back();
  AppendRankResponse(1, 1, false, {0, 1, 2}, &seeds.back());
  seeds.emplace_back();
  AppendFeedback(1, 1, crowdrl::Feedback{}, &seeds.back());
  seeds.emplace_back();
  AppendFeedbackTransitions(1, 1, crowdrl::Feedback{}, blocks, &seeds.back());
  seeds.emplace_back();
  AppendStats(ServiceStats{}, &seeds.back());
  seeds.emplace_back();
  AppendError(Status::Internal("seed"), &seeds.back());
  seeds.emplace_back();
  AppendShmSetupRequest(kDefaultShmRingCapacity, &seeds.back());
  seeds.emplace_back();
  AppendShmSetupResponse(kDefaultShmRingCapacity,
                         ShmSegmentBytes(kDefaultShmRingCapacity),
                         &seeds.back());

  const auto parse_all = [](const std::string& bytes) {
    const void* d = bytes.data();
    const size_t n = bytes.size();
    {
      DecodedRankRequest out;
      (void)ParseRankRequest(d, n, &out);
    }
    {
      DecodedRankResponse out;
      (void)ParseRankResponse(d, n, &out);
    }
    {
      DecodedFeedback out;
      (void)ParseFeedback(d, n, &out);
    }
    {
      FeedbackResponseHead out;
      (void)ParseFeedbackResponse(d, n, &out);
    }
    {
      SnapshotRequestHead out;
      (void)ParseSnapshotRequest(d, n, &out);
    }
    {
      DecodedSnapshot out;
      (void)ParseSnapshotResponse(d, n, &out);
    }
    {
      ServiceStats out;
      (void)ParseStats(d, n, &out);
    }
    {
      ShmSetupRequestHead out;
      (void)ParseShmSetupRequest(d, n, &out);
    }
    {
      ShmSetupResponseHead out;
      (void)ParseShmSetupResponse(d, n, &out);
    }
    (void)ParseError(d, n);
    if (n >= sizeof(FrameHeader)) {
      FrameHeader header;
      std::memcpy(&header, d, sizeof(header));
      (void)CheckHeader(header);
    }
  };

  for (int iter = 0; iter < 1500; ++iter) {
    std::string bytes;
    if (iter % 2 == 0) {
      // Pure noise of random length.
      const size_t len = rng.UniformInt(0, 512);
      bytes.resize(len);
      for (size_t i = 0; i < len; ++i) {
        bytes[i] = static_cast<char>(rng.UniformInt(0, 255));
      }
    } else {
      // A valid body with random mutations: flipped bytes, then a random
      // truncation or extension — the corruption a broken peer produces.
      bytes = seeds[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int>(seeds.size()) - 1))];
      const int flips = rng.UniformInt(1, 8);
      for (int f = 0; f < flips && !bytes.empty(); ++f) {
        const size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
      }
      const int reshape = rng.UniformInt(0, 2);
      if (reshape == 1 && !bytes.empty()) {
        bytes.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(bytes.size()) - 1)));
      } else if (reshape == 2) {
        bytes.append(static_cast<size_t>(rng.UniformInt(1, 16)), '\xEE');
      }
    }
    parse_all(bytes);
  }
}

}  // namespace
}  // namespace net
}  // namespace crowdrl
