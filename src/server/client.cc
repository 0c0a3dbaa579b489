#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace rsse::server {

namespace {

/// Parsed-prefix bytes kept in the receive buffer before it is shifted
/// down (same threshold as the server's input path): pipelined result
/// chunks keep a long-lived connection's buffer bounded instead of
/// retaining every frame ever received.
constexpr size_t kCompactThreshold = 1 << 20;

/// Transport-level syscall failure: the request may be retried against a
/// fresh connection, so it surfaces as kUnavailable.
Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

/// An Error frame from the server, surfaced as a Status. The server
/// executed (or decoded) the request and rejected it — not retryable.
Status ServerError(const Bytes& payload) {
  Result<ErrorResponse> resp = ErrorResponse::Decode(payload);
  return Status::Internal("server error: " +
                          (resp.ok() ? resp->message
                                     : std::string("<unparseable>")));
}

/// A Draining frame: the server refused the request before starting it,
/// so an idempotent caller may retry against the restarted server.
Status DrainingError(const Bytes& payload) {
  Result<ErrorResponse> resp = ErrorResponse::Decode(payload);
  return Status::Unavailable("server draining: " +
                             (resp.ok() ? resp->message
                                        : std::string("<unparseable>")));
}

}  // namespace

EmmClient::EmmClient(const ClientOptions& options, Clock* clock)
    : options_(options), clock_(clock != nullptr ? clock : Clock::Real()) {}

EmmClient::~EmmClient() { Close(); }

void EmmClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  in_.clear();
  in_offset_ = 0;
}

Status EmmClient::DialLocked() {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("host must be numeric IPv4");
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINTR) {
      // An interrupted connect() keeps going in the kernel; retrying the
      // call would fail with EALREADY. Wait for the outcome instead.
      pollfd pfd{fd_, POLLOUT, 0};
      int rc;
      do {
        rc = poll(&pfd, 1, /*timeout_ms=*/-1);
      } while (rc < 0 && errno == EINTR);
      int err = 0;
      socklen_t len = sizeof(err);
      if (rc < 0 ||
          getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        errno = err != 0 ? err : errno;
        Status s = Errno("connect");
        Close();
        return s;
      }
    } else {
      Status s = Errno("connect");
      Close();
      return s;
    }
  }
  if (options_.recv_timeout_seconds > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  // Request frames are small and latency-bound; without this every
  // ping-pong exchange risks a Nagle/delayed-ACK stall. Failure is
  // harmless, so the result is ignored.
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Status EmmClient::Connect(const std::string& host, uint16_t port,
                          int recv_timeout_seconds) {
  options_.recv_timeout_seconds = recv_timeout_seconds;
  return Connect(host, port);
}

Status EmmClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  // Record the endpoint before dialing: even a failed first attempt gives
  // the retry machinery somewhere to reconnect to.
  host_ = host;
  port_ = port;
  endpoint_known_ = true;
  return DialLocked();
}

Status EmmClient::WriteAll(const uint8_t* data, size_t len) {
  const failpoint::Action fp = failpoint::Hit("client_send");
  if (fp.kind == failpoint::ActionKind::kReset) {
    Close();
    errno = ECONNRESET;
    return Errno("send");
  }
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // send() does not return 0 for nonzero lengths on a live socket,
      // and a 0 return sets no errno — checking errno here would act on
      // whatever the previous syscall left behind (a stale EINTR means
      // an infinite retry loop). Treat it as a dead peer.
      Close();
      return Status::Unavailable("send: connection closed by peer");
    }
    if (errno == EINTR) continue;
    // A partial frame may be on the wire: the connection is desynced and
    // unusable for further requests.
    Status status = Errno("send");
    Close();
    return status;
  }
  return Status::Ok();
}

Status EmmClient::SendFrame(FrameType type,
                            std::initializer_list<ConstByteSpan> parts) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  size_t total = 0;
  for (ConstByteSpan part : parts) total += part.size();
  if (total > kMaxFrameBytes - 2) {
    return Status::InvalidArgument("request payload exceeds the wire frame "
                                   "limit; split it into smaller frames");
  }
  uint8_t header[6];
  const uint32_t len = static_cast<uint32_t>(2 + total);
  header[0] = static_cast<uint8_t>(len >> 24);
  header[1] = static_cast<uint8_t>(len >> 16);
  header[2] = static_cast<uint8_t>(len >> 8);
  header[3] = static_cast<uint8_t>(len);
  header[4] = kWireVersion;
  header[5] = static_cast<uint8_t>(type);
  RSSE_RETURN_IF_ERROR(WriteAll(header, sizeof(header)));
  for (ConstByteSpan part : parts) {
    RSSE_RETURN_IF_ERROR(WriteAll(part.data(), part.size()));
  }
  return Status::Ok();
}

Result<Frame> EmmClient::RecvFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const failpoint::Action fp = failpoint::Hit("client_recv");
  if (fp.kind == failpoint::ActionKind::kReset) {
    Close();
    errno = ECONNRESET;
    return Errno("recv");
  }
  for (;;) {
    Frame frame;
    std::string error;
    const FrameParse parse = DecodeFrame(in_, in_offset_, frame, &error);
    if (parse == FrameParse::kFrame) {
      // Reclaim the parsed prefix: clearing only on an exact buffer
      // boundary would let pipelined result chunks grow `in_` without
      // bound across a long stream.
      if (in_offset_ == in_.size()) {
        in_.clear();
        in_offset_ = 0;
      } else if (in_offset_ >= kCompactThreshold) {
        in_.erase(in_.begin(), in_.begin() + static_cast<long>(in_offset_));
        in_offset_ = 0;
      }
      return frame;
    }
    if (parse == FrameParse::kMalformed) {
      Close();
      // A garbled stream is a bug or an attack, not a transient glitch:
      // kInternal, so no retry masks it.
      return Status::Internal("malformed server frame: " + error);
    }
    uint8_t chunk[64 * 1024];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.insert(in_.end(), chunk, chunk + n);
      if (in_.size() > peak_recv_buffer_bytes_) {
        peak_recv_buffer_bytes_ = in_.size();
      }
      continue;
    }
    if (n == 0) {
      Close();
      return Status::Unavailable("server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The response may still land after the deadline: a partial frame
      // (or a late whole one) would desync every request that follows.
      // The connection is broken, not just slow.
      Close();
      return Status::Unavailable("timed out waiting for server response");
    }
    Status status = Errno("recv");
    Close();
    return status;
  }
}

template <typename T>
Result<T> EmmClient::RetryIdempotent(
    const std::function<Result<T>()>& attempt) {
  if (!options_.retry_idempotent) return attempt();
  const int64_t deadline =
      options_.request_deadline_ms > 0
          ? clock_->NowMillis() + options_.request_deadline_ms
          : 0;
  Backoff backoff(options_.backoff, options_.backoff_seed);
  for (;;) {
    Result<T> outcome = [&]() -> Result<T> {
      if (fd_ < 0) {
        if (!endpoint_known_) {
          return Status::FailedPrecondition("not connected");
        }
        RSSE_RETURN_IF_ERROR(DialLocked());
        ++reconnect_count_;
      }
      return attempt();
    }();
    if (outcome.ok() ||
        outcome.status().code() != StatusCode::kUnavailable) {
      return outcome;
    }
    if (backoff.Exhausted()) return outcome;
    int64_t delay = backoff.NextDelayMillis();
    if (deadline > 0) {
      const int64_t now = clock_->NowMillis();
      if (now >= deadline) {
        return Status::Unavailable("request deadline exceeded; last error: " +
                                   outcome.status().message());
      }
      delay = std::min(delay, deadline - now);
    }
    clock_->SleepMillis(delay);
    if (deadline > 0 && clock_->NowMillis() >= deadline) {
      return Status::Unavailable("request deadline exceeded; last error: " +
                                 outcome.status().message());
    }
  }
}

Result<SetupResponse> EmmClient::Setup(const Bytes& index_blob) {
  return RetryIdempotent<SetupResponse>([&]() -> Result<SetupResponse> {
    // Same payload layout as SetupRequest::Encode (u64 length + blob), but
    // streamed from the caller's buffer instead of copied through it.
    uint8_t prefix[8];
    StoreUint64(prefix, index_blob.size());
    RSSE_RETURN_IF_ERROR(SendFrame(
        FrameType::kSetupReq,
        {ConstByteSpan(prefix, sizeof(prefix)),
         ConstByteSpan(index_blob.data(), index_blob.size())}));
    Result<Frame> frame = RecvFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kError) return ServerError(frame->payload);
    if (frame->type == FrameType::kErrorDraining) {
      Close();
      return DrainingError(frame->payload);
    }
    if (frame->type != FrameType::kSetupResp) {
      return Status::Internal("unexpected response frame to Setup");
    }
    return SetupResponse::Decode(frame->payload);
  });
}

Result<SetupResponse> EmmClient::SetupStore(const SetupStoreRequest& req) {
  return SetupStore(req.store_id, req.kind,
                    ConstByteSpan(req.index_blob.data(), req.index_blob.size()),
                    ConstByteSpan(req.gate_blob.data(), req.gate_blob.size()));
}

Result<SetupResponse> EmmClient::SetupStore(uint32_t store_id, uint8_t kind,
                                            ConstByteSpan index_blob,
                                            ConstByteSpan gate_blob) {
  const SetupStoreFrame frame(store_id, kind, index_blob, gate_blob);
  const std::array<ConstByteSpan, 4> parts = frame.Spans();
  return RetryIdempotent<SetupResponse>([&]() -> Result<SetupResponse> {
    RSSE_RETURN_IF_ERROR(SendFrame(FrameType::kSetupStoreReq,
                                   {parts[0], parts[1], parts[2], parts[3]}));
    Result<Frame> frame = RecvFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kError) return ServerError(frame->payload);
    if (frame->type == FrameType::kErrorDraining) {
      Close();
      return DrainingError(frame->payload);
    }
    if (frame->type != FrameType::kSetupResp) {
      return Status::Internal("unexpected response frame to SetupStore");
    }
    return SetupResponse::Decode(frame->payload);
  });
}

Result<EmmClient::KeywordOutcome> EmmClient::SearchKeyword(
    const SearchKeywordRequest& req) {
  return RetryIdempotent<KeywordOutcome>([&]() -> Result<KeywordOutcome> {
    const Bytes payload = req.Encode();
    RSSE_RETURN_IF_ERROR(SendFrame(
        FrameType::kSearchKeywordReq,
        {ConstByteSpan(payload.data(), payload.size())}));
    KeywordOutcome outcome;
    for (;;) {
      Result<Frame> frame = RecvFrame();
      if (!frame.ok()) return frame.status();
      if (frame->type == FrameType::kError) {
        return ServerError(frame->payload);
      }
      if (frame->type == FrameType::kErrorDraining) {
        Close();
        return DrainingError(frame->payload);
      }
      if (frame->type == FrameType::kSearchPayload) {
        RSSE_RETURN_IF_ERROR(
            AppendSearchPayloads(frame->payload, outcome.payloads));
        continue;
      }
      if (frame->type == FrameType::kSearchDone) {
        Result<SearchDone> done = SearchDone::Decode(frame->payload);
        if (!done.ok()) return done.status();
        outcome.done = *done;
        return outcome;
      }
      return Status::Internal("unexpected frame type in keyword response");
    }
  });
}

Result<EmmClient::BatchOutcome> EmmClient::SearchBatch(
    const std::vector<BatchQuery>& queries) {
  SearchBatchRequest req;
  req.queries.reserve(queries.size());
  for (const BatchQuery& q : queries) {
    WireQuery wq;
    wq.query_id = q.query_id;
    wq.tokens.reserve(q.tokens.size());
    for (const GgmDprf::Token& t : q.tokens) {
      if (t.seed.size() != kLabelBytes || t.level < 0 || t.level > 62) {
        return Status::InvalidArgument("token seed/level out of range");
      }
      WireToken wt;
      wt.level = static_cast<uint8_t>(t.level);
      std::memcpy(wt.seed.data(), t.seed.data(), kLabelBytes);
      wq.tokens.push_back(wt);
    }
    req.queries.push_back(std::move(wq));
  }
  const Bytes payload = req.Encode();
  return RetryIdempotent<BatchOutcome>([&]() -> Result<BatchOutcome> {
    RSSE_RETURN_IF_ERROR(SendFrame(
        FrameType::kSearchBatchReq,
        {ConstByteSpan(payload.data(), payload.size())}));
    BatchOutcome outcome;
    for (;;) {
      Result<Frame> frame = RecvFrame();
      if (!frame.ok()) return frame.status();
      if (frame->type == FrameType::kError) {
        return ServerError(frame->payload);
      }
      if (frame->type == FrameType::kErrorDraining) {
        Close();
        return DrainingError(frame->payload);
      }
      if (frame->type == FrameType::kSearchResult) {
        Result<SearchResult> result = SearchResult::Decode(frame->payload);
        if (!result.ok()) return result.status();
        std::vector<uint64_t>& ids = outcome.ids[result->query_id];
        ids.insert(ids.end(), result->ids.begin(), result->ids.end());
        continue;
      }
      if (frame->type == FrameType::kSearchDone) {
        Result<SearchDone> done = SearchDone::Decode(frame->payload);
        if (!done.ok()) return done.status();
        outcome.done = *done;
        return outcome;
      }
      return Status::Internal("unexpected frame type in batch response");
    }
  });
}

Result<UpdateResponse> EmmClient::Update(
    const std::vector<std::pair<Label, Bytes>>& entries) {
  // Deliberately not retried: if the connection dies after the frame was
  // sent, the server may already have applied (and logged) the batch.
  UpdateRequest req;
  req.entries = entries;
  const Bytes payload = req.Encode();
  RSSE_RETURN_IF_ERROR(SendFrame(
      FrameType::kUpdateReq, {ConstByteSpan(payload.data(), payload.size())}));
  Result<Frame> frame = RecvFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kError) return ServerError(frame->payload);
  if (frame->type == FrameType::kErrorDraining) {
    Close();
    return DrainingError(frame->payload);
  }
  if (frame->type != FrameType::kUpdateResp) {
    return Status::Internal("unexpected response frame to Update");
  }
  return UpdateResponse::Decode(frame->payload);
}

Result<StatsResponse> EmmClient::Stats() {
  return RetryIdempotent<StatsResponse>([&]() -> Result<StatsResponse> {
    RSSE_RETURN_IF_ERROR(SendFrame(FrameType::kStatsReq, {}));
    Result<Frame> frame = RecvFrame();
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kError) return ServerError(frame->payload);
    if (frame->type == FrameType::kErrorDraining) {
      Close();
      return DrainingError(frame->payload);
    }
    if (frame->type != FrameType::kStatsResp) {
      return Status::Internal("unexpected response frame to Stats");
    }
    return StatsResponse::Decode(frame->payload);
  });
}

}  // namespace rsse::server
