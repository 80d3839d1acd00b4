#ifndef CROWDRL_NET_WIRE_H_
#define CROWDRL_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/framework.h"
#include "core/policy.h"
#include "serve/shard.h"
#include "serve/snapshot.h"

/// \file
/// \brief The packed binary wire protocol of the multi-process serving
/// transport (learner daemon ⇄ socket actor clients).
///
/// Every message is one *frame*: a fixed-size packed `FrameHeader`
/// (versioned magic, message type, body length, request sequence) followed
/// by `body_len` bytes of payload. Payloads are packed fixed-size structs
/// plus explicitly length-prefixed variable sections (feature vectors,
/// task pools, rankings, network blobs). All encoding and decoding goes
/// through `memcpy` — no pointer-cast type punning, so the codec is clean
/// under UBSan and alignment-safe on every target.
///
/// Byte order is host order: the transport is UNIX-domain sockets on one
/// machine (the shard boundary promoted to a *process* boundary). A
/// cross-machine TCP transport would pin little-endian here and bump
/// `kWireVersion`; the versioned magic exists exactly so that change is a
/// handshake failure instead of silent corruption.
///
/// Decode is defensive by contract: every length and count is bounds-
/// checked against the remaining payload and the kMax* limits below before
/// any allocation, and malformed input is rejected with a *typed* fault
/// (`WireFault`, carried as a `Status`) — truncated, oversized, bad-magic
/// and bad-version frames each map to a distinct, testable error. The
/// randomized fuzzer in tests/net/wire_test.cc drives arbitrary bytes
/// through every parser.

namespace crowdrl {
namespace net {

/// "CRLW" — stamped on every frame so a stray client speaking another
/// protocol is rejected on the first header.
inline constexpr uint32_t kWireMagic = 0x434C5257u;
/// v2: shm setup messages (kShmSetupRequest/Response) and the ring/stall
/// counters appended to the stats body — a layout change, so v1 peers fail
/// the header check instead of mis-decoding stats.
/// v3: a client transition ends at its target (no reward, no future spec),
/// its action row must be a valid row, and the stats body adds blocks_refused.
inline constexpr uint16_t kWireVersion = 3;

/// Upper bound on one frame's body. Generous enough for a serialized
/// policy snapshot; anything larger is a corrupt or hostile header.
inline constexpr uint32_t kMaxFrameBody = 64u << 20;

// Structural sanity bounds, checked before any decode-side allocation.
inline constexpr uint32_t kMaxTasksPerObservation = 4096;
inline constexpr uint32_t kMaxFeatureDim = 1u << 16;
inline constexpr uint32_t kMaxRanks = kMaxTasksPerObservation;
inline constexpr uint32_t kMaxTransitionsPerBlock = 1u << 16;
inline constexpr uint32_t kMaxMatrixDim = 1u << 20;
inline constexpr uint32_t kMaxErrorMessage = 4096;

/// Message types. Requests are odd, their responses even (request + 1).
enum class MsgType : uint16_t {
  kRankRequest = 1,
  kRankResponse = 2,
  kFeedbackRequest = 3,
  kFeedbackResponse = 4,
  kSnapshotRequest = 5,
  kSnapshotResponse = 6,
  kStatsRequest = 7,
  kStatsResponse = 8,
  kShutdownRequest = 9,
  kShutdownResponse = 10,
  /// Transport upgrade: the client asks the daemon to move this
  /// connection onto a shared-memory ring pair; the response frame
  /// carries the segment fd via SCM_RIGHTS on the bootstrap socket.
  kShmSetupRequest = 11,
  kShmSetupResponse = 12,
  kError = 0xEE,
};

/// Typed decode faults — the satellite contract: malformed input is
/// rejected with a machine-checkable category, never a crash.
enum class WireFault {
  kNone = 0,
  kBadMagic,    ///< header magic != kWireMagic
  kBadVersion,  ///< protocol version mismatch
  kBadType,     ///< unknown MsgType
  kOversized,   ///< body_len > kMaxFrameBody (or a count > its kMax bound)
  kTruncated,   ///< payload shorter than its declared structure
  kMalformed,   ///< internally inconsistent payload (bad count/index/blob)
};

/// Canonical Status for a fault: kNone → OK, kBadMagic/kBadType/kMalformed
/// → InvalidArgument, kBadVersion → FailedPrecondition, kOversized /
/// kTruncated → OutOfRange. The fault name is embedded in the message.
Status FaultStatus(WireFault fault, const char* context);

/// The fixed preamble of every frame. Packed: 16 bytes on the wire.
struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t type = 0;      ///< MsgType
  uint32_t seq = 0;       ///< request sequence, echoed by the response
  uint32_t body_len = 0;  ///< payload bytes following this header
} __attribute__((packed));
static_assert(sizeof(FrameHeader) == 16, "wire contract");

/// Structural validation of a received header (magic, version, known
/// type, body bound). Returns the typed fault; kNone means serveable.
WireFault CheckHeader(const FrameHeader& header);

// ---------------------------------------------------------------------------
// Packed payload heads. Variable-length sections follow each head in the
// order documented per message; counts live in the head so decoders can
// bounds-check before allocating.
// ---------------------------------------------------------------------------

/// kRankRequest: head, then `num_worker_features` floats, then `num_tasks`
/// repetitions of (WireTaskHead + its `num_features` floats).
struct RankRequestHead {
  int64_t arrival_index = 0;
  int64_t time = 0;
  int32_t worker = -1;
  double worker_quality = 0.0;
  uint8_t record_arrival = 0;  ///< also feed the arrival statistic
  uint32_t num_worker_features = 0;
  uint32_t num_tasks = 0;
} __attribute__((packed));

struct WireTaskHead {
  int32_t id = -1;
  int32_t category = 0;
  int32_t domain = 0;
  double award = 0.0;
  int64_t deadline = 0;
  double quality = 0.0;
  uint32_t num_features = 0;
} __attribute__((packed));

/// kRankResponse: head, then `num_ranks` int32 task indices (best first).
struct RankResponseHead {
  int64_t arrival_index = 0;
  uint64_t snapshot_version = 0;
  uint8_t degraded = 0;  ///< shed / post-shutdown fallback answer
  uint32_t num_ranks = 0;
} __attribute__((packed));

/// Feedback delivery modes (see FeedbackRequestHead::mode).
enum class FeedbackMode : uint8_t {
  /// The daemon minted the transitions: it kept the decision context from
  /// the Rank exchange in its per-connection pending map, so the body is
  /// just this head.
  kServerMinted = 0,
  /// The actor scored locally against its snapshot replica and ships the
  /// minted transitions upstream: the head is followed by
  /// `num_worker_transitions + num_requester_transitions` encoded
  /// transitions (worker block first).
  kClientTransitions = 1,
};

struct FeedbackRequestHead {
  int64_t arrival_index = 0;
  int32_t worker = -1;  ///< shard routing for client-minted transitions
  int32_t completed_pos = -1;
  int32_t completed_index = -1;
  double quality_gain = 0.0;
  uint8_t mode = 0;  ///< FeedbackMode
  uint32_t num_worker_transitions = 0;
  uint32_t num_requester_transitions = 0;
} __attribute__((packed));

struct FeedbackResponseHead {
  int64_t arrival_index = 0;
  uint8_t accepted = 0;  ///< pending entry found / blocks enqueued
  int64_t events_submitted = 0;  ///< connection-session event counter
} __attribute__((packed));

/// kSnapshotRequest: `have_version` enables delta fetches — when the
/// shard's published version still equals it, the response carries
/// `changed = 0` and no payload (the replica is already current).
struct SnapshotRequestHead {
  uint32_t shard = 0;
  uint64_t have_version = 0;
} __attribute__((packed));

/// kSnapshotResponse: head; when `changed`, four length-prefixed network
/// blobs follow (worker online, worker target, requester online, requester
/// target; a `uint64 len` of 0 marks an absent net).
struct SnapshotResponseHead {
  uint64_t version = 0;
  uint8_t changed = 0;
} __attribute__((packed));

/// kShmSetupRequest: the requested per-direction ring capacity in bytes
/// (power of two within the shm_ring.h bounds; the daemon validates).
struct ShmSetupRequestHead {
  uint64_t ring_capacity = 0;
} __attribute__((packed));

/// kShmSetupResponse: the accepted geometry; the segment fd rides the
/// same frame as SCM_RIGHTS ancillary data (socket.h RecvFrameWithFd).
struct ShmSetupResponseHead {
  uint64_t ring_capacity = 0;
  uint64_t segment_bytes = 0;
} __attribute__((packed));

/// kError body: head + `msg_len` bytes of human-readable context.
struct ErrorHead {
  uint16_t code = 0;  ///< StatusCode of the failure
  uint32_t msg_len = 0;
} __attribute__((packed));

// ---------------------------------------------------------------------------
// Encoders — append one message *body* (no frame header) to `out`.
// ---------------------------------------------------------------------------

void AppendRankRequest(const Observation& obs, bool record_arrival,
                       std::string* out);
void AppendRankResponse(int64_t arrival_index, uint64_t snapshot_version,
                        bool degraded, const std::vector<int>& ranking,
                        std::string* out);
void AppendFeedback(int64_t arrival_index, WorkerId worker,
                    const Feedback& feedback, std::string* out);
void AppendFeedbackTransitions(int64_t arrival_index, WorkerId worker,
                               const Feedback& feedback,
                               const TransitionBlocks& blocks,
                               std::string* out);
void AppendFeedbackResponse(int64_t arrival_index, bool accepted,
                            int64_t events_submitted, std::string* out);
void AppendSnapshotRequest(uint32_t shard, uint64_t have_version,
                           std::string* out);
/// Serializes `snapshot` unless its version equals `have_version`, in
/// which case an unchanged marker (no payload) is emitted.
Status AppendSnapshotResponse(const PolicySnapshot& snapshot,
                              uint64_t have_version, std::string* out);
void AppendShmSetupRequest(uint64_t ring_capacity, std::string* out);
void AppendShmSetupResponse(uint64_t ring_capacity, uint64_t segment_bytes,
                            std::string* out);
/// kStatsResponse body: every ServiceStats field in ForEachField order, 8
/// bytes each, host byte order.
void AppendStats(const ServiceStats& stats, std::string* out);
void AppendError(const Status& status, std::string* out);

// ---------------------------------------------------------------------------
// Decoders — parse one message body. All return a typed-fault Status and
// never read past [data, data + len).
// ---------------------------------------------------------------------------

/// A decoded rank request owning the feature payloads its Observation
/// points into (TaskSnapshot::features are non-owning pointers by design).
/// Move-only: the deque keeps element addresses stable across moves.
struct DecodedRankRequest {
  Observation obs;
  bool record_arrival = false;

  DecodedRankRequest() = default;
  DecodedRankRequest(DecodedRankRequest&&) = default;
  DecodedRankRequest& operator=(DecodedRankRequest&&) = default;
  DecodedRankRequest(const DecodedRankRequest&) = delete;
  DecodedRankRequest& operator=(const DecodedRankRequest&) = delete;

 private:
  friend Status ParseRankRequest(const void*, size_t, DecodedRankRequest*);
  std::deque<std::vector<float>> task_features_;
};

Status ParseRankRequest(const void* data, size_t len,
                        DecodedRankRequest* out);

struct DecodedRankResponse {
  int64_t arrival_index = 0;
  uint64_t snapshot_version = 0;
  bool degraded = false;
  std::vector<int> ranking;
};
Status ParseRankResponse(const void* data, size_t len,
                         DecodedRankResponse* out);

struct DecodedFeedback {
  int64_t arrival_index = 0;
  WorkerId worker = kInvalidWorker;
  FeedbackMode mode = FeedbackMode::kServerMinted;
  Feedback feedback;
  TransitionBlocks blocks;  ///< kClientTransitions only
};
Status ParseFeedback(const void* data, size_t len, DecodedFeedback* out);

Status ParseFeedbackResponse(const void* data, size_t len,
                             FeedbackResponseHead* out);
Status ParseSnapshotRequest(const void* data, size_t len,
                            SnapshotRequestHead* out);

struct DecodedSnapshot {
  uint64_t version = 0;
  bool changed = false;
  /// Deserialized replica; null when !changed.
  std::shared_ptr<const PolicySnapshot> snapshot;
};
Status ParseSnapshotResponse(const void* data, size_t len,
                             DecodedSnapshot* out);

/// Validates the requested capacity against the shm_ring.h bounds
/// (power-of-two range) — a hostile capacity is a kMalformed fault, not a
/// giant ftruncate.
Status ParseShmSetupRequest(const void* data, size_t len,
                            ShmSetupRequestHead* out);
Status ParseShmSetupResponse(const void* data, size_t len,
                             ShmSetupResponseHead* out);

Status ParseStats(const void* data, size_t len, ServiceStats* out);

/// Reconstructs the Status carried by a kError frame.
Status ParseError(const void* data, size_t len);

}  // namespace net
}  // namespace crowdrl

#endif  // CROWDRL_NET_WIRE_H_
