#include "net/learner_daemon.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "net/shm_transport.h"
#include "net/transport.h"
#include "net/wire.h"

namespace crowdrl {
namespace net {

/// One Rank exchange awaiting its Feedback: the decoded observation (which
/// owns the feature payloads its TaskSnapshots point into), the shard
/// ticket and the ranking that was served. Keyed by arrival index in the
/// per-connection map.
struct LearnerDaemon::PendingDecision {
  DecodedRankRequest request;
  ShardedArrangementService::Ticket ticket;
  std::vector<int> ranking;
};

LearnerDaemon::LearnerDaemon(ShardedArrangementService* service,
                             std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {
  CROWDRL_CHECK(service != nullptr);
}

LearnerDaemon::~LearnerDaemon() { Stop(); }

Status LearnerDaemon::Start() {
  if (server_ != nullptr) {
    return Status::FailedPrecondition("daemon already started");
  }
  if (!service_->started()) {
    return Status::FailedPrecondition("service not started");
  }
  IgnoreSigpipe();
  server_ = std::make_unique<SocketServer>(
      socket_path_, [this](int fd, uint64_t conn_id) {
        ServeConnection(fd, conn_id);
      });
  Status st = server_->Start();
  if (!st.ok()) server_.reset();
  return st;
}

void LearnerDaemon::Stop() {
  if (server_ != nullptr) server_->Stop();
}

bool LearnerDaemon::WaitForShutdown(int timeout_ms) {
  MutexLock lk(shutdown_mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!shutdown_requested_.load()) {
    if (timeout_ms < 0) {
      shutdown_cv_.Wait(shutdown_mu_, lk);
    } else if (!shutdown_cv_.WaitUntil(shutdown_mu_, lk, deadline)) {
      break;
    }
  }
  return shutdown_requested_.load();
}

ServiceStats LearnerDaemon::Stats() const {
  ServiceStats s = service_->stats().aggregate;
  if (server_ != nullptr) {
    s.transport_connections = server_->connections_accepted();
    s.transport_connections_dropped = server_->connections_dropped();
  }
  s.transport_frames_in = frames_in_.load();
  s.transport_frames_out = frames_out_.load();
  s.transport_bytes_in = bytes_in_.load();
  s.transport_bytes_out = bytes_out_.load();
  s.transport_snapshot_fetches = snapshot_fetches_.load();
  s.transport_remote_transitions = remote_transitions_.load();
  s.transport_shm_connections = shm_connections_.load();
  s.transport_ring_capacity = ring_capacity_.load();
  s.transport_ring_stalls = ring_stalls_.load();
  s.transport_ring_wait_syscalls = ring_wait_syscalls_.load();
  return s;
}

Status LearnerDaemon::Dispatch(
    MsgType type, const std::string& body,
    ShardedArrangementService::Session* session,
    std::map<int64_t, PendingDecision>* pending, int64_t* events_submitted,
    MsgType* resp_type, std::string* resp_body) {
  switch (type) {
    case MsgType::kRankRequest: {
      PendingDecision decision;
      CROWDRL_RETURN_NOT_OK(
          ParseRankRequest(body.data(), body.size(), &decision.request));
      const Observation& obs = decision.request.obs;
      if (decision.request.record_arrival) service_->RecordArrival(obs);
      decision.ranking = session->Rank(obs, &decision.ticket);
      // A shed/rejected request carries no decision context: the answer is
      // the degraded fallback permutation and its feedback (if any) will
      // not enter the learning stream.
      const bool degraded =
          !obs.tasks.empty() && decision.ticket.inner.ctx.task_to_row.empty();
      AppendRankResponse(obs.arrival_index,
                         decision.ticket.inner.snapshot_version, degraded,
                         decision.ranking, resp_body);
      // Same bound + policy as the serial framework's pending map:
      // oldest-first eviction so abandoned decisions don't accumulate.
      while (pending->size() >=
             TaskArrangementFramework::kMaxPendingDecisions) {
        pending->erase(pending->begin());
      }
      const int64_t arrival = obs.arrival_index;
      (*pending)[arrival] = std::move(decision);
      *resp_type = MsgType::kRankResponse;
      return Status::OK();
    }
    case MsgType::kFeedbackRequest: {
      DecodedFeedback feedback;
      CROWDRL_RETURN_NOT_OK(
          ParseFeedback(body.data(), body.size(), &feedback));
      bool accepted = false;
      if (feedback.mode == FeedbackMode::kClientTransitions) {
        const auto transitions = static_cast<int64_t>(feedback.blocks.size());
        accepted = service_->SubmitTransitions(feedback.worker,
                                               std::move(feedback.blocks));
        if (accepted) remote_transitions_.fetch_add(transitions);
      } else {
        auto it = pending->find(feedback.arrival_index);
        if (it != pending->end()) {
          PendingDecision& decision = it->second;
          session->Feedback(decision.request.obs, decision.ticket,
                            decision.ranking, feedback.feedback);
          pending->erase(it);
          accepted = true;
        }
      }
      if (accepted) ++*events_submitted;
      AppendFeedbackResponse(feedback.arrival_index, accepted,
                             *events_submitted, resp_body);
      *resp_type = MsgType::kFeedbackResponse;
      return Status::OK();
    }
    case MsgType::kSnapshotRequest: {
      SnapshotRequestHead head;
      CROWDRL_RETURN_NOT_OK(
          ParseSnapshotRequest(body.data(), body.size(), &head));
      if (head.shard >= service_->num_shards()) {
        return Status::InvalidArgument("no such shard: " +
                                       std::to_string(head.shard));
      }
      snapshot_fetches_.fetch_add(1);
      const std::shared_ptr<const PolicySnapshot> snapshot =
          service_->shard(head.shard)->CurrentSnapshot();
      CROWDRL_RETURN_NOT_OK(
          AppendSnapshotResponse(*snapshot, head.have_version, resp_body));
      *resp_type = MsgType::kSnapshotResponse;
      return Status::OK();
    }
    case MsgType::kStatsRequest: {
      if (!body.empty()) {
        return FaultStatus(WireFault::kMalformed, "stats-request");
      }
      AppendStats(Stats(), resp_body);
      *resp_type = MsgType::kStatsResponse;
      return Status::OK();
    }
    case MsgType::kShutdownRequest: {
      if (!body.empty()) {
        return FaultStatus(WireFault::kMalformed, "shutdown-request");
      }
      {
        MutexLock lk(shutdown_mu_);
        shutdown_requested_.store(true);
      }
      shutdown_cv_.NotifyAll();
      *resp_type = MsgType::kShutdownResponse;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unexpected message type " +
                                     std::to_string(static_cast<int>(type)));
  }
}

void LearnerDaemon::ServeConnection(int fd, uint64_t conn_id) {
  (void)conn_id;
  std::unique_ptr<ShardedArrangementService::Session> session =
      service_->NewSession();
  std::map<int64_t, PendingDecision> pending;
  int64_t events_submitted = 0;
  FrameHeader header;
  std::string body;
  std::string resp_body;
  // The connection starts on the socket and may be upgraded exactly once
  // to a shared-memory ring pair; the frame loop below is transport-blind.
  SocketTransport socket_transport(fd);
  std::unique_ptr<ShmTransport> shm_transport;
  Transport* transport = &socket_transport;
  for (;;) {
    Status st = transport->RecvFrame(&header, &body);
    if (!st.ok()) {
      // A clean close (NotFound) ends the conversation; a bad header means
      // the stream cannot be re-synchronized — report best-effort, drop.
      if (st.code() != StatusCode::kNotFound &&
          st.code() != StatusCode::kIoError) {
        resp_body.clear();
        AppendError(st, &resp_body);
        (void)transport->SendFrame(MsgType::kError, header.seq, resp_body);
      }
      break;
    }
    frames_in_.fetch_add(1);
    bytes_in_.fetch_add(
        static_cast<int64_t>(sizeof(header) + body.size()));
    const MsgType type = static_cast<MsgType>(header.type);
    if (type == MsgType::kShmSetupRequest) {
      // Handled here, not in Dispatch: the upgrade needs the raw socket
      // for the SCM_RIGHTS handoff and swaps the loop's transport.
      st = Status::OK();
      if (shm_transport != nullptr) {
        st = Status::FailedPrecondition("connection already on shm");
      } else if (transport != &socket_transport) {
        st = Status::Internal("shm setup on non-socket transport");
      } else {
        auto upgraded = ShmAcceptServer(fd, header.seq, body);
        if (upgraded.ok()) {
          shm_transport = std::move(upgraded).value();
          transport = shm_transport.get();
          shm_connections_.fetch_add(1);
          const int64_t cap = shm_transport->ring_stats().ring_capacity;
          int64_t prev = ring_capacity_.load();
          while (cap > prev &&
                 !ring_capacity_.compare_exchange_weak(prev, cap)) {
          }
          frames_out_.fetch_add(1);
          bytes_out_.fetch_add(static_cast<int64_t>(
              sizeof(FrameHeader) + sizeof(ShmSetupResponseHead)));
          continue;
        }
        st = upgraded.status();
      }
      resp_body.clear();
      AppendError(st, &resp_body);
      if (!transport->SendFrame(MsgType::kError, header.seq, resp_body)
               .ok()) {
        break;
      }
      frames_out_.fetch_add(1);
      bytes_out_.fetch_add(
          static_cast<int64_t>(sizeof(FrameHeader) + resp_body.size()));
      continue;
    }
    resp_body.clear();
    MsgType resp_type = MsgType::kError;
    st = Dispatch(type, body, session.get(), &pending, &events_submitted,
                  &resp_type, &resp_body);
    if (!st.ok()) {
      // Body-level fault: the frame boundary is intact, so answer with a
      // typed error and keep serving the connection.
      resp_type = MsgType::kError;
      resp_body.clear();
      AppendError(st, &resp_body);
    }
    if (!transport->SendFrame(resp_type, header.seq, resp_body).ok()) break;
    frames_out_.fetch_add(1);
    bytes_out_.fetch_add(
        static_cast<int64_t>(sizeof(FrameHeader) + resp_body.size()));
  }
  if (shm_transport != nullptr) {
    // Wake a client parked on the ring, then fold this connection's wait
    // counters into the daemon totals.
    shm_transport->Close();
    const RingStats rs = shm_transport->ring_stats();
    ring_stalls_.fetch_add(rs.send_stalls + rs.recv_waits);
    ring_wait_syscalls_.fetch_add(rs.wait_syscalls);
  }
  session->Flush();
}

}  // namespace net
}  // namespace crowdrl
