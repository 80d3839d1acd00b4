#include "net/wire.h"

#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "net/shm_ring.h"
#include "nn/set_qnetwork.h"

namespace crowdrl {
namespace net {
namespace {

/// Appends raw bytes / packed PODs to a std::string body.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void Bytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void Pod(const T& value) {
    Bytes(&value, sizeof(T));
  }
  void Floats(const std::vector<float>& v) {
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(float));
  }

 private:
  std::string* out_;
};

/// Bounds-checked cursor over a message body. Every read is a memcpy and
/// fails (sticky) instead of running past the end.
class Reader {
 public:
  Reader(const void* data, size_t len)
      : p_(static_cast<const unsigned char*>(data)), remaining_(len) {}

  size_t remaining() const { return remaining_; }
  bool truncated() const { return truncated_; }

  bool Bytes(void* out, size_t n) {
    if (truncated_ || n > remaining_) {
      truncated_ = true;
      return false;
    }
    std::memcpy(out, p_, n);
    p_ += n;
    remaining_ -= n;
    return true;
  }
  template <typename T>
  bool Pod(T* out) {
    return Bytes(out, sizeof(T));
  }
  bool Floats(std::vector<float>* out, size_t count) {
    if (truncated_ || count * sizeof(float) > remaining_) {
      truncated_ = true;
      return false;
    }
    out->resize(count);
    return count == 0 || Bytes(out->data(), count * sizeof(float));
  }
  /// Reads a length-prefixed (uint64) byte blob into `out`.
  bool Blob(std::string* out) {
    uint64_t len = 0;
    if (!Pod(&len)) return false;
    if (len > remaining_) {
      truncated_ = true;
      return false;
    }
    out->resize(static_cast<size_t>(len));
    return len == 0 || Bytes(&(*out)[0], static_cast<size_t>(len));
  }

 private:
  const unsigned char* p_;
  size_t remaining_;
  bool truncated_ = false;
};

const char* FaultName(WireFault fault) {
  switch (fault) {
    case WireFault::kNone: return "none";
    case WireFault::kBadMagic: return "bad-magic";
    case WireFault::kBadVersion: return "bad-version";
    case WireFault::kBadType: return "bad-type";
    case WireFault::kOversized: return "oversized";
    case WireFault::kTruncated: return "truncated";
    case WireFault::kMalformed: return "malformed";
  }
  return "unknown";
}

Status Fault(WireFault fault, const char* context) {
  return FaultStatus(fault, context);
}

/// Strict tail check: a well-formed body is consumed exactly.
Status Finish(const Reader& reader, const char* context) {
  if (reader.truncated()) return Fault(WireFault::kTruncated, context);
  if (reader.remaining() != 0) return Fault(WireFault::kMalformed, context);
  return Status::OK();
}

// ---- transition payloads (FeedbackMode::kClientTransitions) ----

void AppendMatrix(const Matrix& m, Writer* w) {
  w->Pod(static_cast<uint32_t>(m.rows()));
  w->Pod(static_cast<uint32_t>(m.cols()));
  if (m.size() > 0) w->Bytes(m.data(), m.size() * sizeof(float));
}

bool ParseMatrix(Reader* r, Matrix* out) {
  uint32_t rows = 0, cols = 0;
  if (!r->Pod(&rows) || !r->Pod(&cols)) return false;
  if (rows > kMaxMatrixDim || cols > kMaxMatrixDim) return false;
  const uint64_t bytes = uint64_t{rows} * cols * sizeof(float);
  if (bytes > r->remaining()) return false;
  *out = Matrix(rows, cols);
  return bytes == 0 || r->Bytes(out->data(), static_cast<size_t>(bytes));
}

void AppendTransition(const Transition& t, Writer* w) {
  CROWDRL_CHECK(t.state != nullptr);
  AppendMatrix(*t.state, w);
  w->Pod(static_cast<uint32_t>(t.valid_n));
  w->Pod(static_cast<int32_t>(t.action_row));
  w->Pod(t.target);
}

bool ParseTransition(Reader* r, Transition* out) {
  // Each parsed transition owns its state: the frame carries one per
  // transition.
  auto state = std::make_shared<Matrix>();
  if (!ParseMatrix(r, state.get())) return false;
  out->state = std::move(state);
  uint32_t valid_n = 0;
  int32_t action_row = -1;
  if (!r->Pod(&valid_n) || !r->Pod(&action_row) || !r->Pod(&out->target)) {
    return false;
  }
  // The learner regresses Q at the acted-on row, which must be a real
  // (non-padding) task row of the state.
  if (valid_n > out->state->rows()) return false;
  if (action_row < 0 || static_cast<uint32_t>(action_row) >= valid_n) {
    return false;
  }
  out->valid_n = valid_n;
  out->action_row = action_row;
  return true;
}

}  // namespace

Status FaultStatus(WireFault fault, const char* context) {
  const std::string msg =
      std::string("wire ") + FaultName(fault) + " (" + context + ")";
  switch (fault) {
    case WireFault::kNone:
      return Status::OK();
    case WireFault::kBadVersion:
      return Status::FailedPrecondition(msg);
    case WireFault::kOversized:
    case WireFault::kTruncated:
      return Status::OutOfRange(msg);
    case WireFault::kBadMagic:
    case WireFault::kBadType:
    case WireFault::kMalformed:
      return Status::InvalidArgument(msg);
  }
  return Status::Internal(msg);
}

WireFault CheckHeader(const FrameHeader& header) {
  if (header.magic != kWireMagic) return WireFault::kBadMagic;
  if (header.version != kWireVersion) return WireFault::kBadVersion;
  if (header.body_len > kMaxFrameBody) return WireFault::kOversized;
  switch (static_cast<MsgType>(header.type)) {
    case MsgType::kRankRequest:
    case MsgType::kRankResponse:
    case MsgType::kFeedbackRequest:
    case MsgType::kFeedbackResponse:
    case MsgType::kSnapshotRequest:
    case MsgType::kSnapshotResponse:
    case MsgType::kStatsRequest:
    case MsgType::kStatsResponse:
    case MsgType::kShutdownRequest:
    case MsgType::kShutdownResponse:
    case MsgType::kShmSetupRequest:
    case MsgType::kShmSetupResponse:
    case MsgType::kError:
      return WireFault::kNone;
  }
  return WireFault::kBadType;
}

// ---- rank ----

void AppendRankRequest(const Observation& obs, bool record_arrival,
                       std::string* out) {
  Writer w(out);
  RankRequestHead head;
  head.arrival_index = obs.arrival_index;
  head.time = obs.time;
  head.worker = obs.worker;
  head.worker_quality = obs.worker_quality;
  head.record_arrival = record_arrival ? 1 : 0;
  head.num_worker_features = static_cast<uint32_t>(obs.worker_features.size());
  head.num_tasks = static_cast<uint32_t>(obs.tasks.size());
  w.Pod(head);
  w.Floats(obs.worker_features);
  static const std::vector<float> kNoFeatures;
  for (const TaskSnapshot& task : obs.tasks) {
    const std::vector<float>& features =
        task.features != nullptr ? *task.features : kNoFeatures;
    WireTaskHead th;
    th.id = task.id;
    th.category = task.category;
    th.domain = task.domain;
    th.award = task.award;
    th.deadline = task.deadline;
    th.quality = task.quality;
    th.num_features = static_cast<uint32_t>(features.size());
    w.Pod(th);
    w.Floats(features);
  }
}

Status ParseRankRequest(const void* data, size_t len,
                        DecodedRankRequest* out) {
  static constexpr char kCtx[] = "rank-request";
  Reader r(data, len);
  RankRequestHead head;
  if (!r.Pod(&head)) return Fault(WireFault::kTruncated, kCtx);
  if (head.num_tasks > kMaxTasksPerObservation ||
      head.num_worker_features > kMaxFeatureDim) {
    return Fault(WireFault::kOversized, kCtx);
  }
  out->obs = Observation{};
  out->task_features_.clear();
  out->obs.arrival_index = head.arrival_index;
  out->obs.time = head.time;
  out->obs.worker = head.worker;
  out->obs.worker_quality = head.worker_quality;
  out->record_arrival = head.record_arrival != 0;
  if (!r.Floats(&out->obs.worker_features, head.num_worker_features)) {
    return Fault(WireFault::kTruncated, kCtx);
  }
  out->obs.tasks.resize(head.num_tasks);
  for (TaskSnapshot& task : out->obs.tasks) {
    WireTaskHead th;
    if (!r.Pod(&th)) return Fault(WireFault::kTruncated, kCtx);
    if (th.num_features > kMaxFeatureDim) {
      return Fault(WireFault::kOversized, kCtx);
    }
    task.id = th.id;
    task.category = th.category;
    task.domain = th.domain;
    task.award = th.award;
    task.deadline = th.deadline;
    task.quality = th.quality;
    out->task_features_.emplace_back();
    if (!r.Floats(&out->task_features_.back(), th.num_features)) {
      return Fault(WireFault::kTruncated, kCtx);
    }
    task.features = &out->task_features_.back();
  }
  return Finish(r, kCtx);
}

void AppendRankResponse(int64_t arrival_index, uint64_t snapshot_version,
                        bool degraded, const std::vector<int>& ranking,
                        std::string* out) {
  Writer w(out);
  RankResponseHead head;
  head.arrival_index = arrival_index;
  head.snapshot_version = snapshot_version;
  head.degraded = degraded ? 1 : 0;
  head.num_ranks = static_cast<uint32_t>(ranking.size());
  w.Pod(head);
  for (int rank : ranking) w.Pod(static_cast<int32_t>(rank));
}

Status ParseRankResponse(const void* data, size_t len,
                         DecodedRankResponse* out) {
  static constexpr char kCtx[] = "rank-response";
  Reader r(data, len);
  RankResponseHead head;
  if (!r.Pod(&head)) return Fault(WireFault::kTruncated, kCtx);
  if (head.num_ranks > kMaxRanks) return Fault(WireFault::kOversized, kCtx);
  out->arrival_index = head.arrival_index;
  out->snapshot_version = head.snapshot_version;
  out->degraded = head.degraded != 0;
  out->ranking.resize(head.num_ranks);
  for (int& rank : out->ranking) {
    int32_t v = 0;
    if (!r.Pod(&v)) return Fault(WireFault::kTruncated, kCtx);
    if (v < 0 || static_cast<uint32_t>(v) >= head.num_ranks) {
      return Fault(WireFault::kMalformed, kCtx);
    }
    rank = v;
  }
  return Finish(r, kCtx);
}

// ---- feedback ----

namespace {
void AppendFeedbackHead(int64_t arrival_index, WorkerId worker,
                        const Feedback& feedback, FeedbackMode mode,
                        const TransitionBlocks* blocks, std::string* out) {
  Writer w(out);
  FeedbackRequestHead head;
  head.arrival_index = arrival_index;
  head.worker = worker;
  head.completed_pos = feedback.completed_pos;
  head.completed_index = feedback.completed_index;
  head.quality_gain = feedback.quality_gain;
  head.mode = static_cast<uint8_t>(mode);
  if (blocks != nullptr) {
    head.num_worker_transitions = static_cast<uint32_t>(blocks->worker.size());
    head.num_requester_transitions =
        static_cast<uint32_t>(blocks->requester.size());
  }
  w.Pod(head);
  if (blocks != nullptr) {
    for (const Transition& t : blocks->worker) AppendTransition(t, &w);
    for (const Transition& t : blocks->requester) AppendTransition(t, &w);
  }
}
}  // namespace

void AppendFeedback(int64_t arrival_index, WorkerId worker,
                    const Feedback& feedback, std::string* out) {
  AppendFeedbackHead(arrival_index, worker, feedback,
                     FeedbackMode::kServerMinted, nullptr, out);
}

void AppendFeedbackTransitions(int64_t arrival_index, WorkerId worker,
                               const Feedback& feedback,
                               const TransitionBlocks& blocks,
                               std::string* out) {
  AppendFeedbackHead(arrival_index, worker, feedback,
                     FeedbackMode::kClientTransitions, &blocks, out);
}

Status ParseFeedback(const void* data, size_t len, DecodedFeedback* out) {
  static constexpr char kCtx[] = "feedback-request";
  Reader r(data, len);
  FeedbackRequestHead head;
  if (!r.Pod(&head)) return Fault(WireFault::kTruncated, kCtx);
  if (head.mode > static_cast<uint8_t>(FeedbackMode::kClientTransitions)) {
    return Fault(WireFault::kMalformed, kCtx);
  }
  if (head.num_worker_transitions > kMaxTransitionsPerBlock ||
      head.num_requester_transitions > kMaxTransitionsPerBlock) {
    return Fault(WireFault::kOversized, kCtx);
  }
  out->arrival_index = head.arrival_index;
  out->worker = head.worker;
  out->mode = static_cast<FeedbackMode>(head.mode);
  out->feedback.completed_pos = head.completed_pos;
  out->feedback.completed_index = head.completed_index;
  out->feedback.quality_gain = head.quality_gain;
  out->blocks = TransitionBlocks{};
  if (out->mode == FeedbackMode::kServerMinted) {
    if (head.num_worker_transitions != 0 ||
        head.num_requester_transitions != 0) {
      return Fault(WireFault::kMalformed, kCtx);
    }
    return Finish(r, kCtx);
  }
  out->blocks.worker.resize(head.num_worker_transitions);
  out->blocks.requester.resize(head.num_requester_transitions);
  for (Transition& t : out->blocks.worker) {
    if (!ParseTransition(&r, &t)) {
      return Fault(r.truncated() ? WireFault::kTruncated : WireFault::kMalformed,
                   kCtx);
    }
  }
  for (Transition& t : out->blocks.requester) {
    if (!ParseTransition(&r, &t)) {
      return Fault(r.truncated() ? WireFault::kTruncated : WireFault::kMalformed,
                   kCtx);
    }
  }
  return Finish(r, kCtx);
}

void AppendFeedbackResponse(int64_t arrival_index, bool accepted,
                            int64_t events_submitted, std::string* out) {
  Writer w(out);
  FeedbackResponseHead head;
  head.arrival_index = arrival_index;
  head.accepted = accepted ? 1 : 0;
  head.events_submitted = events_submitted;
  w.Pod(head);
}

Status ParseFeedbackResponse(const void* data, size_t len,
                             FeedbackResponseHead* out) {
  static constexpr char kCtx[] = "feedback-response";
  Reader r(data, len);
  if (!r.Pod(out)) return Fault(WireFault::kTruncated, kCtx);
  return Finish(r, kCtx);
}

// ---- snapshot ----

void AppendSnapshotRequest(uint32_t shard, uint64_t have_version,
                           std::string* out) {
  Writer w(out);
  SnapshotRequestHead head;
  head.shard = shard;
  head.have_version = have_version;
  w.Pod(head);
}

Status ParseSnapshotRequest(const void* data, size_t len,
                            SnapshotRequestHead* out) {
  static constexpr char kCtx[] = "snapshot-request";
  Reader r(data, len);
  if (!r.Pod(out)) return Fault(WireFault::kTruncated, kCtx);
  return Finish(r, kCtx);
}

namespace {
Status AppendNetBlob(const SetQNetwork* net, Writer* w) {
  if (net == nullptr) {
    w->Pod(uint64_t{0});
    return Status::OK();
  }
  std::ostringstream os;
  CROWDRL_RETURN_NOT_OK(net->Save(&os));
  const std::string blob = os.str();
  w->Pod(static_cast<uint64_t>(blob.size()));
  w->Bytes(blob.data(), blob.size());
  return Status::OK();
}

Status ParseNetBlob(Reader* r, std::shared_ptr<const SetQNetwork>* out,
                    const char* ctx) {
  std::string blob;
  if (!r->Blob(&blob)) return Fault(WireFault::kTruncated, ctx);
  if (blob.empty()) {
    out->reset();
    return Status::OK();
  }
  std::istringstream is(blob);
  auto net = std::make_shared<SetQNetwork>();
  if (!net->Load(&is).ok()) return Fault(WireFault::kMalformed, ctx);
  *out = std::move(net);
  return Status::OK();
}
}  // namespace

Status AppendSnapshotResponse(const PolicySnapshot& snapshot,
                              uint64_t have_version, std::string* out) {
  Writer w(out);
  SnapshotResponseHead head;
  head.version = snapshot.version;
  head.changed = snapshot.version != have_version ? 1 : 0;
  w.Pod(head);
  if (head.changed == 0) return Status::OK();
  CROWDRL_RETURN_NOT_OK(AppendNetBlob(snapshot.worker.online.get(), &w));
  CROWDRL_RETURN_NOT_OK(AppendNetBlob(snapshot.worker.target.get(), &w));
  CROWDRL_RETURN_NOT_OK(AppendNetBlob(snapshot.requester.online.get(), &w));
  CROWDRL_RETURN_NOT_OK(AppendNetBlob(snapshot.requester.target.get(), &w));
  return Status::OK();
}

Status ParseSnapshotResponse(const void* data, size_t len,
                             DecodedSnapshot* out) {
  static constexpr char kCtx[] = "snapshot-response";
  Reader r(data, len);
  SnapshotResponseHead head;
  if (!r.Pod(&head)) return Fault(WireFault::kTruncated, kCtx);
  out->version = head.version;
  out->changed = head.changed != 0;
  out->snapshot.reset();
  if (!out->changed) return Finish(r, kCtx);
  auto snapshot = std::make_shared<PolicySnapshot>();
  snapshot->version = head.version;
  std::shared_ptr<const SetQNetwork> nets[4];
  for (auto& net : nets) {
    CROWDRL_RETURN_NOT_OK(ParseNetBlob(&r, &net, kCtx));
  }
  snapshot->worker.online = std::move(nets[0]);
  snapshot->worker.target = std::move(nets[1]);
  snapshot->requester.online = std::move(nets[2]);
  snapshot->requester.target = std::move(nets[3]);
  out->snapshot = std::move(snapshot);
  return Finish(r, kCtx);
}

// ---- shm setup ----

void AppendShmSetupRequest(uint64_t ring_capacity, std::string* out) {
  Writer w(out);
  ShmSetupRequestHead head;
  head.ring_capacity = ring_capacity;
  w.Pod(head);
}

void AppendShmSetupResponse(uint64_t ring_capacity, uint64_t segment_bytes,
                            std::string* out) {
  Writer w(out);
  ShmSetupResponseHead head;
  head.ring_capacity = ring_capacity;
  head.segment_bytes = segment_bytes;
  w.Pod(head);
}

Status ParseShmSetupRequest(const void* data, size_t len,
                            ShmSetupRequestHead* out) {
  static constexpr char kCtx[] = "shm-setup-request";
  Reader r(data, len);
  if (!r.Pod(out)) return Fault(WireFault::kTruncated, kCtx);
  const uint64_t cap = out->ring_capacity;
  if (cap < kMinShmRingCapacity || cap > kMaxShmRingCapacity ||
      (cap & (cap - 1)) != 0) {
    return Fault(WireFault::kMalformed, kCtx);
  }
  return Finish(r, kCtx);
}

Status ParseShmSetupResponse(const void* data, size_t len,
                             ShmSetupResponseHead* out) {
  static constexpr char kCtx[] = "shm-setup-response";
  Reader r(data, len);
  if (!r.Pod(out)) return Fault(WireFault::kTruncated, kCtx);
  const uint64_t cap = out->ring_capacity;
  if (cap < kMinShmRingCapacity || cap > kMaxShmRingCapacity ||
      (cap & (cap - 1)) != 0 ||
      out->segment_bytes != ShmSegmentBytes(cap)) {
    return Fault(WireFault::kMalformed, kCtx);
  }
  return Finish(r, kCtx);
}

// ---- stats ----

void AppendStats(const ServiceStats& stats, std::string* out) {
  Writer w(out);
  ServiceStats::ForEachField(
      [&](const char*, auto field) { w.Pod(stats.*field); });
}

Status ParseStats(const void* data, size_t len, ServiceStats* out) {
  static constexpr char kCtx[] = "stats-response";
  Reader r(data, len);
  ServiceStats s;
  ServiceStats::ForEachField(
      [&](const char*, auto field) { r.Pod(&(s.*field)); });
  CROWDRL_RETURN_NOT_OK(Finish(r, kCtx));
  *out = s;
  return Status::OK();
}

// ---- error ----

void AppendError(const Status& status, std::string* out) {
  Writer w(out);
  std::string msg = status.message();
  if (msg.size() > kMaxErrorMessage) msg.resize(kMaxErrorMessage);
  ErrorHead head;
  head.code = static_cast<uint16_t>(status.code());
  head.msg_len = static_cast<uint32_t>(msg.size());
  w.Pod(head);
  w.Bytes(msg.data(), msg.size());
}

Status ParseError(const void* data, size_t len) {
  static constexpr char kCtx[] = "error-frame";
  Reader r(data, len);
  ErrorHead head;
  if (!r.Pod(&head)) return Fault(WireFault::kTruncated, kCtx);
  if (head.msg_len > kMaxErrorMessage) {
    return Fault(WireFault::kOversized, kCtx);
  }
  std::string msg(head.msg_len, '\0');
  if (head.msg_len > 0 && !r.Bytes(&msg[0], head.msg_len)) {
    return Fault(WireFault::kTruncated, kCtx);
  }
  CROWDRL_RETURN_NOT_OK(Finish(r, kCtx));
  StatusCode code = static_cast<StatusCode>(head.code);
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    case StatusCode::kNotImplemented:
      break;
    default:
      code = StatusCode::kInternal;
      break;
  }
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, "remote: " + msg);
}

}  // namespace net
}  // namespace crowdrl
