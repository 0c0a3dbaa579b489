#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/mapped_file.h"
#include "common/stats.h"
#include "dprf/ggm_dprf.h"
#include "rsse/leaf_resolver.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

namespace rsse::server {

namespace {

/// Input/output buffer compaction threshold: consumed-prefix bytes kept
/// around before the buffer is shifted down.
constexpr size_t kCompactThreshold = 1 << 20;

/// Parsed-but-unexecuted requests per connection before the poll thread
/// stops reading from it (job completion frees slots and resumes reads).
constexpr size_t kMaxQueuedJobs = 64;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Request frames are small and latency-bound; leaving Nagle on stacks a
/// delayed-ACK stall onto every ping-pong exchange. Failure is harmless
/// (the socket just keeps default batching), so the result is ignored.
void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Dedupe key of a delegated GGM node: level byte followed by the seed.
using NodeKey = std::array<uint8_t, 1 + kLabelBytes>;

NodeKey KeyOf(const WireToken& t) {
  NodeKey key;
  key[0] = t.level;
  std::memcpy(key.data() + 1, t.seed.data(), kLabelBytes);
  return key;
}

/// Decodes resolved id payloads straight into a stream's id buffer (a
/// payload that is not an 8-byte id is dropped, as the owner would).
class IdSink : public rsse::PayloadSink {
 public:
  explicit IdSink(std::vector<uint64_t>& ids) : ids_(ids) {}
  void Add(ConstByteSpan payload) override {
    if (auto id = sse::DecodeIdPayload(payload); id.has_value()) {
      ids_.push_back(*id);
    }
  }

 private:
  std::vector<uint64_t>& ids_;
};

/// ServerOptions::mmap_stores tri-state: an explicit setting wins, -1
/// falls back to the RSSE_MMAP environment toggle.
bool ResolveMmapOption(int requested) {
  if (requested >= 0) return requested != 0;
  const char* env = std::getenv("RSSE_MMAP");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
         std::strcmp(env, "true") == 0;
}

}  // namespace

EmmServer::EmmServer(const ServerOptions& options) : options_(options) {
  mmap_on_ = ResolveMmapOption(options.mmap_stores);
  // The primary slot exists from the start so the Update path can
  // populate a store before any Setup arrives.
  HostedStore& primary = stores_[rsse::kPrimaryStore];
  primary.kind = rsse::StoreKind::kEmm;
  primary.emm = shard::ShardedEmm::WithShards(options.shards);
}

EmmServer::~EmmServer() {
  CloseAll();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

size_t EmmServer::EntryCount() const {
  ReaderMutexLock lock(store_mutex_);
  auto it = stores_.find(rsse::kPrimaryStore);
  return it == stores_.end() ? 0 : it->second.emm.EntryCount();
}

Status EmmServer::RecoverStores() {
  if (recovered_ || options_.data_dir.empty()) return Status::Ok();
  Result<std::unique_ptr<StorePersistence>> persistence =
      StorePersistence::Open(options_.data_dir);
  if (!persistence.ok()) return persistence.status();
  Result<StorePersistence::RecoveryReport> report = (*persistence)->Recover();
  if (!report.ok()) return report.status();
  {
    MutexLock serial(update_mutex_);
    WriterMutexLock lock(store_mutex_);
    for (const StorePersistence::RecoveredStore& rec : report->stores) {
      Status installed = InstallRecoveredStore(rec);
      if (!installed.ok()) {
        // The checksum held but the blob would not deserialize (a bug in
        // whatever wrote it): quarantine the slot like a checksum failure
        // — left in place, the bad file would re-fail and re-count on
        // every boot — and keep serving the rest rather than refusing to
        // start.
        (*persistence)->QuarantineSlot(rec.store_id);
        ++recovery_stats_.corrupt_snapshots_dropped;
        continue;
      }
      if (!mmap_on_ ||
          rec.kind != static_cast<uint8_t>(rsse::StoreKind::kEmm)) {
        continue;
      }
      if (rec.format != 2) {
        // First mmap boot over a v1 (or WAL-only) slot: the store was
        // fully heap-loaded anyway, so fold it — replayed WAL records
        // included — into a v2 snapshot the *next* boot can map. Failure
        // is non-fatal: the v1 snapshot + WAL still cover the data.
        HostedStore& hosted = stores_[rec.store_id];
        const uint64_t epoch = store_epochs_[rec.store_id] + 1;
        const Bytes image = hosted.emm.SerializeV2(rec.kind, epoch);
        // A gate invalidated by replayed updates must not be resurrected.
        ConstByteSpan gate_blob;
        if (hosted.gate != nullptr) {
          gate_blob =
              ConstByteSpan(rec.gate_blob.data(), rec.gate_blob.size());
        }
        const Status migrated = (*persistence)->PersistSnapshot(
            rec.store_id, epoch, rec.kind,
            ConstByteSpan(image.data(), image.size()), gate_blob,
            SnapshotFormat::kV2);
        if (migrated.ok()) {
          store_epochs_[rec.store_id] = epoch;
          store_formats_[rec.store_id] = 2;
        } else {
          std::fprintf(stderr,
                       "rsse: store %u not migrated to v2: %s\n",
                       rec.store_id, migrated.message().c_str());
        }
      } else if (!rec.updates.empty()) {
        // Mapped base plus replayed deltas: the touched shards live on
        // heap until the next clean drain folds them back into a fresh
        // v2 snapshot. No eager fold here — boot stays O(1).
        dirty_stores_.insert(rec.store_id);
      }
    }
  }
  recovery_stats_.corrupt_snapshots_dropped += report->corrupt_snapshots;
  recovery_stats_.wal_bytes_truncated = report->wal_bytes_truncated;
  persist_ = std::move(*persistence);
  recovered_ = true;
  return Status::Ok();
}

Status EmmServer::InstallRecoveredStore(
    const StorePersistence::RecoveredStore& rec) {
  HostedStore incoming;
  incoming.kind = static_cast<rsse::StoreKind>(rec.kind);
  if (rec.kind == static_cast<uint8_t>(rsse::StoreKind::kEmm)) {
    if (rec.has_snapshot) {
      const int threads =
          ResolveThreadCount(options_.search_threads, "RSSE_SEARCH_THREADS");
      if (rec.format == 2) {
        // v2 snapshots hold the runtime layout in place. Serving mmap:
        // map it — O(1) regardless of index size; the per-section CRCs
        // are deferred (every probe is bounds-checked instead). Serving
        // heap: load through the same image with the checksum pass.
        Result<std::shared_ptr<const MappedFile>> file =
            MappedFile::Open(rec.snapshot_path);
        if (!file.ok()) return file.status();
        if (rec.index_offset + rec.index_len > (*file)->size() ||
            rec.index_offset + rec.index_len < rec.index_offset) {
          return Status::InvalidArgument(
              "v2 snapshot index range exceeds the file");
        }
        if (mmap_on_) {
          shard::V2OpenOptions vopts;
          vopts.prefault = options_.prefault;
          Result<shard::ShardedEmm> store = shard::ShardedEmm::OpenMappedImage(
              std::move(*file), rec.index_offset, rec.index_len, vopts);
          if (!store.ok()) return store.status();
          incoming.emm = std::move(store).value();
        } else {
          Result<shard::ShardedEmm> store = shard::ShardedEmm::LoadV2(
              (*file)->bytes().subspan(rec.index_offset, rec.index_len),
              threads, /*verify_checksums=*/true);
          if (!store.ok()) return store.status();
          incoming.emm = std::move(store).value();
          // The mapping drops here; the store owns heap copies.
        }
      } else {
        Result<shard::ShardedEmm> store = shard::ShardedEmm::Deserialize(
            rec.index_blob, threads, options_.load_shards);
        if (!store.ok()) return store.status();
        incoming.emm = std::move(store).value();
      }
      if (!rec.gate_blob.empty()) {
        Result<rsse::BloomLabelGate> gate =
            rsse::BloomLabelGate::Deserialize(rec.gate_blob);
        if (!gate.ok()) return gate.status();
        incoming.gate =
            std::make_unique<rsse::BloomLabelGate>(std::move(gate).value());
      }
    } else {
      // WAL-only slot: updates arrived before any Setup.
      incoming.emm = shard::ShardedEmm::WithShards(options_.shards);
    }
    for (const Bytes& payload : rec.updates) {
      Result<UpdateRequest> update = UpdateRequest::Decode(payload);
      // The record passed its CRC, so a decode failure means the payload
      // was bad before it hit the disk; the durable prefix ends here.
      if (!update.ok()) break;
      // Replayed updates invalidate a setup-time gate exactly like live
      // ones (see RunUpdate).
      incoming.gate.reset();
      for (const auto& [label, value] : update->entries) {
        incoming.emm.Insert(label,
                            ConstByteSpan(value.data(), value.size()));
      }
      ++recovery_stats_.wal_records_applied;
    }
  } else if (rec.kind == static_cast<uint8_t>(rsse::StoreKind::kFilterTree)) {
    if (!rec.has_snapshot) {
      return Status::InvalidArgument("filter-tree slot without snapshot");
    }
    Result<pb::FilterTreeIndex> tree =
        pb::FilterTreeIndex::Deserialize(rec.index_blob);
    if (!tree.ok()) return tree.status();
    incoming.tree =
        std::make_unique<pb::FilterTreeIndex>(std::move(tree).value());
  } else {
    return Status::InvalidArgument("unknown store kind in snapshot");
  }
  stores_[rec.store_id] = std::move(incoming);
  store_epochs_[rec.store_id] = rec.epoch;
  store_formats_[rec.store_id] = rec.has_snapshot ? rec.format : 0;
  hosted_ = true;
  ++recovery_stats_.stores_recovered;
  return Status::Ok();
}

Status EmmServer::Listen() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already listening");
  RSSE_RETURN_IF_ERROR(RecoverStores());
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bind_address must be numeric IPv4");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, SOMAXCONN) != 0) return Errno("listen");
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (pipe(wake_fds_) != 0) return Errno("pipe");
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);
  return Status::Ok();
}

void EmmServer::Shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  WakePoll();
}

void EmmServer::BeginDrain() {
  // atomic store + pipe write only: safe to call from a signal handler.
  draining_.store(true, std::memory_order_relaxed);
  WakePoll();
}

void EmmServer::WakePoll() {
  if (wake_fds_[1] >= 0) {
    const uint8_t b = 0;
    ssize_t n;
    do {
      n = write(wake_fds_[1], &b, 1);
    } while (n < 0 && errno == EINTR);
  }
}

// ---------------------------------------------------------------------------
// Poll thread: accept, read, write, and the staged-output/unpark sweep.
// ---------------------------------------------------------------------------

Status EmmServer::Serve() {
  if (listen_fd_ < 0) return Status::FailedPrecondition("Listen() not called");
  StartWorkers();
  std::vector<pollfd> fds;
  bool drain_started = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!drain_started && draining_.load(std::memory_order_relaxed)) {
      drain_started = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(
                           std::max(options_.drain_timeout_ms, 0));
    }
    // Sweep every connection first: move worker-staged frames into the
    // socket buffer, unpark drained streams, refresh read-pause state,
    // and drop closing connections that have fully finished.
    for (size_t i = conns_.size(); i-- > 0;) {
      if (PumpConnection(conns_[i])) DropConnection(i);
    }
    // Draining exits once every in-flight stream has finished and
    // flushed — or at the deadline, cutting whoever is still reading.
    if (drain_started &&
        (AllConnectionsQuiesced() ||
         std::chrono::steady_clock::now() >= drain_deadline)) {
      break;
    }
    fds.clear();
    // A draining server stops accepting: the listen fd stays in slot 0
    // (the fds[2 + i] <-> conns_[i] mapping depends on it) but asks for
    // no events.
    fds.push_back(
        {listen_fd_, static_cast<short>(drain_started ? 0 : POLLIN), 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const std::shared_ptr<Connection>& c : conns_) {
      // A closing connection only flushes (re-reading would re-handle the
      // same malformed prefix); a paused one has a full job queue and
      // resumes once completions drain it. Either way no POLLIN, or a
      // level-triggered socket would spin the loop.
      short events = 0;
      if (!c->closing && !c->input_paused) events |= POLLIN;
      if (c->out.size() > c->out_offset) events |= POLLOUT;
      fds.push_back({c->fd, events, 0});
    }
    int timeout_ms = -1;
    if (drain_started) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(drain_deadline -
                                     std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<int64_t>(remaining.count() + 1, 1, 1000));
    }
    const int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      StopWorkers();
      CloseAll();
      return Errno("poll");
    }
    if ((fds[1].revents & POLLIN) != 0) {
      uint8_t drain[64];
      for (;;) {
        const ssize_t n = read(wake_fds_[0], drain, sizeof(drain));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        break;
      }
    }
    // fds[2 + i] maps to conns_[i] only for the connections that existed
    // when the pollfd set was built; snapshot that count before accepting
    // (AcceptPending grows conns_ past it).
    const size_t polled = conns_.size();
    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
    // Walk connections back to front so drops do not disturb the mapping
    // between fds[2 + i] and conns_[i].
    for (size_t i = polled; i-- > 0;) {
      const short revents = fds[2 + i].revents;
      if (revents == 0) continue;
      bool alive = true;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) alive = false;
      if (alive && (revents & POLLIN) != 0) alive = ReadPending(conns_[i]);
      if (alive && (revents & POLLOUT) != 0) alive = WritePending(*conns_[i]);
      if (!alive) DropConnection(i);
    }
  }
  StopWorkers();
  CloseAll();
  // Release the port before returning: a successor process (or a second
  // server object in the same process) must be able to bind it while this
  // object still exists. The wake pipe stays open so a late Shutdown()
  // from another thread writes into a valid fd.
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (persist_ != nullptr) {
    // A *clean* drain folds heap deltas of mapped stores back into fresh
    // v2 snapshots, so the successor boots with an O(1) map again. A hard
    // Shutdown() (crash semantics — what the fault tests simulate) skips
    // the fold: the WAL alone must carry the deltas.
    if (mmap_on_ && drain_started &&
        !stop_.load(std::memory_order_relaxed)) {
      FoldDirtyStores();
    }
    // Belt and braces: appends fsync individually, but a drain should
    // leave nothing for the kernel to owe.
    const Status synced = persist_->Sync();
    if (!synced.ok()) return synced;
  }
  return Status::Ok();
}

void EmmServer::FoldDirtyStores() {
  MutexLock serial(update_mutex_);
  WriterMutexLock lock(store_mutex_);
  for (uint32_t store_id : dirty_stores_) {
    auto it = stores_.find(store_id);
    if (it == stores_.end() || it->second.kind != rsse::StoreKind::kEmm) {
      continue;
    }
    const uint64_t epoch = store_epochs_[store_id] + 1;
    const uint8_t kind = static_cast<uint8_t>(rsse::StoreKind::kEmm);
    const Bytes image = it->second.emm.SerializeV2(kind, epoch);
    // Updates invalidated any setup-time gate (see RunUpdate), so the
    // folded snapshot carries none.
    const Status persisted = persist_->PersistSnapshot(
        store_id, epoch, kind, ConstByteSpan(image.data(), image.size()),
        {}, SnapshotFormat::kV2);
    if (persisted.ok()) {
      store_epochs_[store_id] = epoch;
      store_formats_[store_id] = 2;
    } else {
      // Non-fatal: the WAL still covers the deltas; the next boot replays
      // them onto the mapped base again.
      std::fprintf(stderr, "rsse: store %u not folded at drain: %s\n",
                   store_id, persisted.message().c_str());
    }
  }
  dirty_stores_.clear();
}

std::vector<EmmServer::StoreMemoryInfo> EmmServer::StoreMemory() const {
  std::vector<StoreMemoryInfo> out;
  ReaderMutexLock lock(store_mutex_);
  out.reserve(stores_.size());
  for (const auto& [store_id, hosted] : stores_) {
    StoreMemoryInfo info;
    info.store_id = store_id;
    if (hosted.kind == rsse::StoreKind::kEmm) {
      info.mapped_bytes = hosted.emm.MappedBytes();
      info.heap_bytes = hosted.emm.HeapBytes();
    } else if (hosted.tree != nullptr) {
      info.heap_bytes = hosted.tree->SizeBytes();
    }
    const auto fmt = store_formats_.find(store_id);
    info.snapshot_format = fmt == store_formats_.end() ? 0 : fmt->second;
    out.push_back(info);
  }
  return out;
}

void EmmServer::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        return;  // drained / transient: back to poll
      }
      // Persistent failure (EMFILE/ENFILE, ...): the listen socket stays
      // readable, so returning immediately would spin the poll loop at
      // 100% CPU. Back off briefly; existing connections resume after.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
}

bool EmmServer::ReadPending(const std::shared_ptr<Connection>& cp) {
  Connection& conn = *cp;
  if (conn.closing) return true;  // flush-only; not polled for POLLIN
  uint8_t chunk[64 * 1024];
  // Read and parse alternately: handling complete frames between recv
  // calls keeps conn.in bounded by one in-flight frame (plus a chunk)
  // even against a sender that never lets the socket go dry, instead of
  // buffering the whole stream before the first parse.
  for (;;) {
    const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn.in.insert(conn.in.end(), chunk, chunk + n);
    for (;;) {
      Frame frame;
      std::string error;
      const FrameParse parse =
          DecodeFrame(conn.in, conn.in_offset, frame, &error);
      if (parse == FrameParse::kNeedMore) break;
      if (parse == FrameParse::kMalformed) {
        // The error must leave in sequence, after the responses of the
        // well-formed frames already queued: it rides the job queue too.
        Job job;
        job.protocol_error = "malformed frame: " + error;
        EnqueueJob(cp, std::move(job));
        conn.closing = true;
        break;
      }
      if (draining_.load(std::memory_order_relaxed)) {
        bool idle;
        {
          MutexLock lock(conn.mu);
          idle = conn.state == ExecState::kIdle && conn.jobs.empty();
        }
        if (idle) {
          // Refuse right here on the poll thread: a draining refusal must
          // not wait for worker capacity (every worker may be pinned to an
          // in-flight stream). A connection with queued work keeps FIFO
          // response order instead — its refusal rides the job queue and
          // the worker's own draining check.
          EmitDrainingError(conn);
          continue;
        }
      }
      Job job;
      job.type = frame.type;
      job.payload = std::move(frame.payload);
      EnqueueJob(cp, std::move(job));
    }
    if (conn.closing) break;
    if (conn.in_offset >= kCompactThreshold ||
        conn.in_offset == conn.in.size()) {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<long>(conn.in_offset));
      conn.in_offset = 0;
    }
  }
  return true;
}

bool EmmServer::WritePending(Connection& conn) {
  size_t sent = 0;
  bool alive = true;
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        send(conn.fd, conn.out.data() + conn.out_offset,
             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      // send() does not return 0 for nonzero lengths on a live socket,
      // and a 0 return sets no errno — falling through to the errno
      // checks below would act on whatever the previous syscall left
      // (a stale EINTR means an infinite retry loop). Dead peer.
      alive = false;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    alive = false;
    break;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  if (sent > 0) {
    conn.outbound_bytes.fetch_sub(sent, std::memory_order_release);
  }
  return alive;
}

bool EmmServer::PumpConnection(const std::shared_ptr<Connection>& cp) {
  // Accesses spell out `cp->` (no `*cp` reference alias): the analysis
  // matches the held `cp->mu` against PushReadyLocked's requirement by
  // expression, and an alias would hide the connection behind it.
  MutexLock lock(cp->mu);
  if (cp->close_requested.load(std::memory_order_relaxed)) {
    cp->closing = true;
  }
  if (!cp->staged.empty()) {
    // Reclaim the sent prefix before appending: a connection that stays
    // partially unflushed while workers keep staging must not grow its
    // consumed prefix without bound.
    if (cp->out_offset > 0 &&
        (cp->out_offset == cp->out.size() ||
         cp->out_offset >= kCompactThreshold)) {
      cp->out.erase(cp->out.begin(),
                    cp->out.begin() + static_cast<long>(cp->out_offset));
      cp->out_offset = 0;
    }
    cp->out.insert(cp->out.end(), cp->staged.begin(), cp->staged.end());
    cp->staged.clear();
    cp->staged.shrink_to_fit();
  }
  // Unpark with hysteresis: the stream parked at the high-water mark
  // resumes once the socket has drained to half of it, so a borderline
  // reader does not bounce the job on and off the worker pool per frame.
  if (cp->state == ExecState::kParked &&
      cp->outbound_bytes.load(std::memory_order_acquire) <=
          options_.max_outbound_bytes / 2) {
    cp->state = ExecState::kQueued;
    PushReadyLocked(cp);
  }
  cp->input_paused = cp->jobs.size() >= kMaxQueuedJobs;
  return cp->closing && cp->jobs.empty() &&
         cp->state == ExecState::kIdle && cp->staged.empty() &&
         cp->out_offset == cp->out.size();
}

void EmmServer::DropConnection(size_t index) {
  std::shared_ptr<Connection> conn = conns_[index];
  conns_.erase(conns_.begin() + static_cast<long>(index));
  {
    MutexLock lock(conn->mu);
    conn->closed.store(true, std::memory_order_relaxed);
    // A worker mid-job still holds a reference through the ready queue's
    // shared_ptr and cleans up at its next transition; anything merely
    // queued or parked dies here.
    if (conn->state != ExecState::kRunning) {
      conn->jobs.clear();
      conn->state = ExecState::kIdle;
    }
  }
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
}

void EmmServer::CloseAll() {
  while (!conns_.empty()) DropConnection(conns_.size() - 1);
}

void EmmServer::EnqueueJob(const std::shared_ptr<Connection>& cp,
                           Job&& job) {
  MutexLock lock(cp->mu);
  cp->jobs.push_back(std::move(job));
  if (cp->state == ExecState::kIdle) {
    cp->state = ExecState::kQueued;
    PushReadyLocked(cp);
  }
}

// ---------------------------------------------------------------------------
// Worker pool: one connection's head job at a time, responses in request
// order, search jobs parked and resumed across backpressure.
// ---------------------------------------------------------------------------

int EmmServer::ResolveWorkerCount() const {
  if (options_.search_workers > 0) return options_.search_workers;
  return ResolveThreadCount(options_.search_threads, "RSSE_SEARCH_THREADS");
}

void EmmServer::StartWorkers() {
  const int count = std::max(ResolveWorkerCount(), 1);
  {
    MutexLock lock(work_mu_);
    workers_stop_ = false;
  }
  workers_.reserve(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void EmmServer::StopWorkers() {
  {
    MutexLock lock(work_mu_);
    workers_stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  MutexLock lock(work_mu_);
  ready_.clear();
}

void EmmServer::PushReadyLocked(const std::shared_ptr<Connection>& conn) {
  {
    MutexLock lock(work_mu_);
    ready_.push_back(conn);
  }
  work_cv_.NotifyOne();
}

void EmmServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      MutexLock lock(work_mu_);
      while (!workers_stop_ && ready_.empty()) work_cv_.Wait(work_mu_);
      if (workers_stop_) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
    }
    RunHeadJob(conn);
  }
}

void EmmServer::RunHeadJob(const std::shared_ptr<Connection>& cp) {
  Job* job = nullptr;
  {
    MutexLock lock(cp->mu);
    if (cp->closed.load(std::memory_order_relaxed)) {
      cp->jobs.clear();
      cp->state = ExecState::kIdle;
      return;
    }
    // A ready entry can go stale (the connection was dropped and its
    // queue cleared, or an unpark raced a completion); only a queued
    // head job runs.
    if (cp->state != ExecState::kQueued || cp->jobs.empty()) return;
    cp->state = ExecState::kRunning;
    // deque::push_back never invalidates references to existing
    // elements, so the poll thread may append while this one executes.
    // The head job stays owned by this worker until the state leaves
    // kRunning, so touching it unlocked below races nothing.
    job = &cp->jobs.front();
  }
  const JobResult result = ExecuteJob(*cp, *job);
  MutexLock lock(cp->mu);
  if (cp->closed.load(std::memory_order_relaxed)) {
    cp->jobs.clear();
    cp->state = ExecState::kIdle;
    return;
  }
  if (result == JobResult::kParked) {
    // Head job stays queued with its stream state; the poll thread
    // requeues the connection once the socket drains below the
    // low-water mark.
    cp->state = ExecState::kParked;
    return;
  }
  cp->jobs.pop_front();
  if (cp->jobs.empty()) {
    cp->state = ExecState::kIdle;
    // A closing connection is dropped only when a poll-thread sweep
    // observes it fully quiesced, and this transition may be the last
    // piece of that condition. By now the poll thread can be blocked
    // with no event registered for this socket (closing suppresses
    // POLLIN, a flushed buffer suppresses POLLOUT), so without an
    // explicit wake the sweep never re-runs and the peer waits for a
    // FIN that never comes.
    WakePoll();
  } else {
    cp->state = ExecState::kQueued;
    PushReadyLocked(cp);
  }
}

EmmServer::JobResult EmmServer::ExecuteJob(Connection& conn, Job& job) {
  if (!job.protocol_error.empty()) {
    EmitError(conn, job.protocol_error);
    return JobResult::kDone;
  }
  if (job.stream != nullptr) return ResumeStream(conn, job);
  // A draining server finishes streams already started (above) but takes
  // no fresh work: the request has had no effect, so an idempotent client
  // may safely retry it against the restarted server.
  if (draining_.load(std::memory_order_relaxed)) {
    EmitDrainingError(conn);
    return JobResult::kDone;
  }
  switch (job.type) {
    case FrameType::kSetupReq:
      RunSetup(conn, job.payload);
      return JobResult::kDone;
    case FrameType::kSetupStoreReq:
      RunSetupStore(conn, job.payload);
      return JobResult::kDone;
    case FrameType::kSearchBatchReq:
      return StartSearchBatch(conn, job);
    case FrameType::kSearchKeywordReq:
      return StartSearchKeyword(conn, job);
    case FrameType::kUpdateReq:
      RunUpdate(conn, job.payload);
      return JobResult::kDone;
    case FrameType::kStatsReq:
      RunStats(conn);
      return JobResult::kDone;
    default:
      // Response-only types arriving at the server are a protocol breach.
      EmitError(conn, "unexpected frame type at server");
      conn.close_requested.store(true, std::memory_order_relaxed);
      WakePoll();
      return JobResult::kDone;
  }
}

// ---------------------------------------------------------------------------
// Emission: workers stage encoded frames under conn.mu; the poll thread
// moves them to the socket on its next sweep.
// ---------------------------------------------------------------------------

bool EmmServer::EmitEncoded(Connection& conn, const Bytes& frame) {
  bool wake = false;
  {
    MutexLock lock(conn.mu);
    if (conn.closed.load(std::memory_order_relaxed)) return false;
    wake = conn.staged.empty();
    conn.staged.insert(conn.staged.end(), frame.begin(), frame.end());
    const size_t outbound =
        conn.outbound_bytes.fetch_add(frame.size(),
                                      std::memory_order_release) +
        frame.size();
    stats_.peak_outbound_bytes.Observe(outbound);
  }
  // First staged frame since the last sweep: the poll thread may be
  // blocked with no POLLOUT registered for this socket.
  if (wake) WakePoll();
  return true;
}

bool EmmServer::EmitFrame(Connection& conn, FrameType type,
                          ConstByteSpan payload, const char* oversize_error) {
  Bytes frame;
  if (!EncodeFrame(type, payload, frame)) {
    EmitError(conn, oversize_error);
    return false;
  }
  return EmitEncoded(conn, frame);
}

void EmmServer::EmitError(Connection& conn, const std::string& message) {
  ErrorResponse resp;
  resp.message = message;
  const Bytes payload = resp.Encode();
  Bytes frame;
  // Our own error strings are tiny; encoding cannot overflow the frame
  // cap. If it somehow does there is nothing sensible left to send.
  if (!EncodeFrame(FrameType::kError, payload, frame)) return;
  EmitEncoded(conn, frame);
}

void EmmServer::EmitDrainingError(Connection& conn) {
  ErrorResponse resp;
  resp.message = "server draining; retry against the restarted server";
  const Bytes payload = resp.Encode();
  Bytes frame;
  if (!EncodeFrame(FrameType::kErrorDraining, payload, frame)) return;
  EmitEncoded(conn, frame);
}

bool EmmServer::AllConnectionsQuiesced() {
  for (const std::shared_ptr<Connection>& c : conns_) {
    if (c->out_offset < c->out.size()) return false;
    MutexLock lock(c->mu);
    if (c->state != ExecState::kIdle) return false;
    if (!c->jobs.empty() || !c->staged.empty()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request handlers (worker side).
// ---------------------------------------------------------------------------

void EmmServer::RunSetup(Connection& conn, const Bytes& payload) {
  Result<SetupRequest> req = SetupRequest::Decode(payload);
  if (!req.ok()) {
    EmitError(conn, req.status().message());
    return;
  }
  // The legacy single-store frame: an ungated encrypted dictionary at the
  // primary slot.
  InstallStore(conn, rsse::kPrimaryStore,
               static_cast<uint8_t>(rsse::StoreKind::kEmm), req->index_blob,
               Bytes{});
}

void EmmServer::RunSetupStore(Connection& conn, const Bytes& payload) {
  Result<SetupStoreRequest> req = SetupStoreRequest::Decode(payload);
  if (!req.ok()) {
    EmitError(conn, req.status().message());
    return;
  }
  InstallStore(conn, req->store_id, req->kind, req->index_blob,
               req->gate_blob);
}

void EmmServer::InstallStore(Connection& conn, uint32_t store_id,
                             uint8_t kind, const Bytes& index_blob,
                             const Bytes& gate_blob) {
  // Slot ids are capped so a hostile client cannot grow the store table
  // without bound by cycling distinct ids.
  if (store_id > options_.max_store_id) {
    EmitError(conn, "store id exceeds the server's slot limit");
    return;
  }
  HostedStore incoming;
  incoming.kind = static_cast<rsse::StoreKind>(kind);
  SetupResponse resp;
  if (kind == static_cast<uint8_t>(rsse::StoreKind::kEmm)) {
    // The documented RSSE_SEARCH_THREADS fallback governs the load too
    // (Deserialize's own 0-fallback is the builder-side
    // RSSE_BUILD_THREADS).
    const int threads =
        ResolveThreadCount(options_.search_threads, "RSSE_SEARCH_THREADS");
    Result<shard::ShardedEmm> store = shard::ShardedEmm::Deserialize(
        index_blob, threads, options_.load_shards);
    if (!store.ok()) {
      EmitError(conn, store.status().message());
      return;
    }
    incoming.emm = std::move(store).value();
    if (!gate_blob.empty()) {
      Result<rsse::BloomLabelGate> gate =
          rsse::BloomLabelGate::Deserialize(gate_blob);
      if (!gate.ok()) {
        EmitError(conn, gate.status().message());
        return;
      }
      incoming.gate = std::make_unique<rsse::BloomLabelGate>(
          std::move(gate).value());
    }
    resp.shards = static_cast<uint32_t>(incoming.emm.shard_count());
    resp.entries = incoming.emm.EntryCount();
  } else if (kind ==
             static_cast<uint8_t>(rsse::StoreKind::kFilterTree)) {
    if (!gate_blob.empty()) {
      EmitError(conn, "filter-tree stores take no bloom gate");
      return;
    }
    Result<pb::FilterTreeIndex> tree =
        pb::FilterTreeIndex::Deserialize(index_blob);
    if (!tree.ok()) {
      EmitError(conn, tree.status().message());
      return;
    }
    incoming.tree =
        std::make_unique<pb::FilterTreeIndex>(std::move(tree).value());
    resp.shards = 0;
    resp.entries = incoming.tree->LeafCount();
  } else {
    EmitError(conn, "unknown store kind");
    return;
  }
  {
    MutexLock serial(update_mutex_);
    // Durability before visibility: a slot the server acked must survive
    // a crash, so the snapshot reaches disk before the table swap. Only
    // the writer lock is held across the snapshot IO.
    uint8_t format = 0;
    if (persist_ != nullptr) {
      const uint64_t epoch = store_epochs_[store_id] + 1;
      const bool as_v2 =
          mmap_on_ && kind == static_cast<uint8_t>(rsse::StoreKind::kEmm);
      Status persisted;
      if (as_v2) {
        // Snapshot the runtime layout, not the wire blob: the next boot
        // maps exactly what this process would serve. Filter trees keep
        // the v1 container (they have no mmap-native image).
        const Bytes image = incoming.emm.SerializeV2(kind, epoch);
        persisted = persist_->PersistSnapshot(
            store_id, epoch, kind,
            ConstByteSpan(image.data(), image.size()),
            ConstByteSpan(gate_blob.data(), gate_blob.size()),
            SnapshotFormat::kV2);
      } else {
        persisted = persist_->PersistSnapshot(
            store_id, epoch, kind,
            ConstByteSpan(index_blob.data(), index_blob.size()),
            ConstByteSpan(gate_blob.data(), gate_blob.size()));
      }
      if (!persisted.ok()) {
        EmitError(conn, "store not persisted: " + persisted.message());
        return;
      }
      store_epochs_[store_id] = epoch;
      dirty_stores_.erase(store_id);
      format = as_v2 ? 2 : 1;
    }
    WriterMutexLock lock(store_mutex_);
    if (format != 0) store_formats_[store_id] = format;
    stores_[store_id] = std::move(incoming);
    hosted_ = true;
  }
  EmitFrame(conn, FrameType::kSetupResp, resp.Encode(),
            "setup response exceeds frame limit");
}

void EmmServer::RunUpdate(Connection& conn, const Bytes& payload) {
  Result<UpdateRequest> req = UpdateRequest::Decode(payload);
  if (!req.ok()) {
    EmitError(conn, req.status().message());
    return;
  }
  UpdateResponse resp;
  {
    // The writer lock keeps WAL order, epoch tagging and apply order one
    // sequence; the store lock is taken only around what searches see.
    MutexLock serial(update_mutex_);
    {
      ReaderMutexLock lock(store_mutex_);
      const auto it = stores_.find(rsse::kPrimaryStore);
      if (it != stores_.end() && it->second.kind != rsse::StoreKind::kEmm) {
        EmitError(conn, "primary store is not an encrypted dictionary");
        return;
      }
    }
    // WAL-before-apply: the batch is fsync'd (tagged with the live
    // snapshot's epoch) before any entry lands in memory, so an acked
    // update can never be lost and a nacked one is never applied. Searches
    // keep their shared store lock meanwhile; no other writer can change
    // the slot's kind or epoch while the writer lock is held.
    if (persist_ != nullptr) {
      const Status logged = persist_->AppendUpdate(
          rsse::kPrimaryStore, store_epochs_[rsse::kPrimaryStore],
          ConstByteSpan(payload.data(), payload.size()));
      if (!logged.ok()) {
        EmitError(conn, "update not persisted: " + logged.message());
        return;
      }
    }
    // Inserts copy touched shards off the mapping; remember to fold the
    // deltas into a fresh v2 snapshot at the next clean drain.
    if (mmap_on_ && persist_ != nullptr) {
      dirty_stores_.insert(rsse::kPrimaryStore);
    }
    // Exclusive only for the in-memory apply, so a racing search segment
    // sees the dictionary entirely before or entirely after this batch.
    WriterMutexLock lock(store_mutex_);
    HostedStore& primary = stores_[rsse::kPrimaryStore];
    // A shipped Bloom gate was built over the setup-time labels only;
    // keeping it would silently skip-decrypt (drop) every updated entry.
    // Correctness wins: drop the gate, the owner re-ships one with the
    // next SetupStore if desired.
    primary.gate.reset();
    for (const auto& [label, value] : req->entries) {
      primary.emm.Insert(label, ConstByteSpan(value.data(), value.size()));
    }
    hosted_ = true;
    resp.entries = primary.emm.EntryCount();
  }
  EmitFrame(conn, FrameType::kUpdateResp, resp.Encode(),
            "update response exceeds frame limit");
}

void EmmServer::RunStats(Connection& conn) {
  StatsResponse resp;
  {
    ReaderMutexLock lock(store_mutex_);
    const auto it = stores_.find(rsse::kPrimaryStore);
    if (it != stores_.end()) {
      const HostedStore& primary = it->second;
      if (primary.kind == rsse::StoreKind::kEmm) {
        resp.entries = primary.emm.EntryCount();
        resp.size_bytes = primary.emm.SizeBytes();
        resp.shards = static_cast<uint32_t>(primary.emm.shard_count());
        resp.mapped_bytes = primary.emm.MappedBytes();
        resp.heap_bytes = primary.emm.HeapBytes();
      } else if (primary.tree != nullptr) {
        resp.entries = primary.tree->LeafCount();
        resp.size_bytes = primary.tree->SizeBytes();
        resp.heap_bytes = primary.tree->SizeBytes();
      }
      const auto fmt = store_formats_.find(rsse::kPrimaryStore);
      resp.snapshot_format =
          fmt == store_formats_.end() ? 0 : fmt->second;
    }
  }
  resp.batches_served = stats_.batches_served.load(std::memory_order_relaxed);
  resp.queries_served = stats_.queries_served.load(std::memory_order_relaxed);
  resp.tokens_received =
      stats_.tokens_received.load(std::memory_order_relaxed);
  resp.nodes_deduped = stats_.nodes_deduped.load(std::memory_order_relaxed);
  EmitFrame(conn, FrameType::kStatsResp, resp.Encode(),
            "stats response exceeds frame limit");
}

// ---------------------------------------------------------------------------
// Streamed searches.
// ---------------------------------------------------------------------------

EmmServer::JobResult EmmServer::StartSearchBatch(Connection& conn, Job& job) {
  Result<SearchBatchRequest> req = SearchBatchRequest::Decode(job.payload);
  if (!req.ok()) {
    EmitError(conn, req.status().message());
    return JobResult::kDone;
  }
  auto stream = std::make_unique<ResultStream>();
  ResultStream& s = *stream;
  s.payload_mode = false;
  s.producer = ResultStream::Producer::kGgm;
  const size_t nq = req->queries.size();
  s.query_ids.resize(nq);
  s.ids.resize(nq);
  s.open_parts.assign(nq, 0);
  s.offset.assign(nq, 0);
  // Dedupe covering nodes across every query of the batch: queries over
  // overlapping ranges share dyadic nodes, and each distinct GGM subtree
  // is expanded and probed exactly once, its ids fanned back out to every
  // subscriber.
  std::map<NodeKey, size_t> unique_index;
  uint64_t tokens_received = 0;
  for (size_t q = 0; q < nq; ++q) {
    s.query_ids[q] = req->queries[q].query_id;
    for (const WireToken& t : req->queries[q].tokens) {
      if (t.level > options_.max_token_level) {
        EmitError(conn, "token level exceeds the server's expansion limit");
        return JobResult::kDone;
      }
      ++tokens_received;
      auto [it, inserted] =
          unique_index.try_emplace(KeyOf(t), s.tokens.size());
      if (inserted) {
        GgmDprf::Token token;
        token.level = t.level;
        token.seed.assign(t.seed.begin(), t.seed.end());
        s.tokens.push_back(std::move(token));
        s.token_queries.emplace_back();
      }
      s.token_queries[it->second].push_back(static_cast<uint32_t>(q));
      ++s.open_parts[q];
    }
  }
  s.work_count = s.tokens.size();
  s.done.query_count = static_cast<uint32_t>(nq);
  s.done.tokens_received = tokens_received;
  s.done.unique_nodes_expanded = s.tokens.size();
  // The request is fully decoded into the stream; keeping the raw payload
  // alive across parks would double the batch's footprint.
  job.payload.clear();
  job.payload.shrink_to_fit();
  job.stream = std::move(stream);
  return ResumeStream(conn, job);
}

EmmServer::JobResult EmmServer::StartSearchKeyword(Connection& conn,
                                                   Job& job) {
  Result<SearchKeywordRequest> req = SearchKeywordRequest::Decode(job.payload);
  if (!req.ok()) {
    EmitError(conn, req.status().message());
    return JobResult::kDone;
  }
  // The keyword-path equivalent of max_token_level: bound the total work
  // and allocation one hostile frame can demand before touching a store.
  uint64_t tokens_received = 0;
  for (const SearchKeywordRequest::Query& q : req->queries) {
    tokens_received += q.tokens.size();
  }
  if (tokens_received > options_.max_keyword_tokens) {
    EmitError(conn, "keyword token batch exceeds the server's limit");
    return JobResult::kDone;
  }
  // The slot's kind decides which work units to build; the store itself
  // is re-resolved under the lock each run segment.
  rsse::StoreKind kind;
  {
    ReaderMutexLock lock(store_mutex_);
    if (!hosted_) {
      EmitError(conn, "no index hosted (send Setup first)");
      return JobResult::kDone;
    }
    auto slot = stores_.find(req->store_id);
    if (slot == stores_.end()) {
      EmitError(conn, "no store hosted at the requested slot");
      return JobResult::kDone;
    }
    kind = slot->second.kind;
  }
  auto stream = std::make_unique<ResultStream>();
  ResultStream& s = *stream;
  s.payload_mode = true;
  s.store_id = req->store_id;
  const size_t nq = req->queries.size();
  s.query_ids.resize(nq);
  s.payloads.resize(nq);
  s.open_parts.assign(nq, 0);
  s.offset.assign(nq, 0);
  if (kind == rsse::StoreKind::kFilterTree) {
    s.producer = ResultStream::Producer::kFilterTree;
    s.trapdoors.resize(nq);
    for (size_t q = 0; q < nq; ++q) {
      s.query_ids[q] = req->queries[q].query_id;
      s.trapdoors[q].reserve(req->queries[q].tokens.size());
      for (const WireKeywordToken& t : req->queries[q].tokens) {
        if (t.kind != 1) {
          EmitError(conn, "filter-tree stores resolve opaque trapdoors only");
          return JobResult::kDone;
        }
        s.trapdoors[q].push_back(t.a);
      }
      s.open_parts[q] = 1;  // one tree probe per query
    }
    s.work_count = nq;
  } else {
    s.producer = ResultStream::Producer::kKeyword;
    s.probes.reserve(static_cast<size_t>(tokens_received));
    for (size_t q = 0; q < nq; ++q) {
      s.query_ids[q] = req->queries[q].query_id;
      for (const WireKeywordToken& t : req->queries[q].tokens) {
        if (t.kind != 0) {
          EmitError(conn,
                    "encrypted dictionaries resolve keyword tokens only");
          return JobResult::kDone;
        }
        ResultStream::KeywordProbe probe;
        probe.query = static_cast<uint32_t>(q);
        probe.keys.label_key = t.a;
        probe.keys.value_key = t.b;
        s.probes.push_back(std::move(probe));
        ++s.open_parts[q];
      }
    }
    s.work_count = s.probes.size();
  }
  s.done.query_count = static_cast<uint32_t>(nq);
  s.done.tokens_received = tokens_received;
  job.payload.clear();
  job.payload.shrink_to_fit();
  job.stream = std::move(stream);
  return ResumeStream(conn, job);
}

EmmServer::JobResult EmmServer::ResumeStream(Connection& conn, Job& job) {
  ResultStream& s = *job.stream;
  WallTimer timer;
  // One shared store-table lock per run segment: the lock drops with the
  // segment when the job parks, so a batch stalled behind a slow reader
  // never blocks an Update or Setup. The flip side, re-resolved here, is
  // that a long-streamed batch may observe a store swap at work-unit
  // granularity.
  ReaderMutexLock lock(store_mutex_);
  const HostedStore* store = nullptr;
  // The first segment validates even when the batch carries no work at
  // all (an empty batch against an unhosted server is still an error);
  // later segments re-resolve only while production remains.
  if (s.next_work < s.work_count || s.next_work == 0) {
    if (!hosted_) {
      EmitError(conn, "no index hosted (send Setup first)");
      return JobResult::kDone;
    }
    const uint32_t slot_id = s.producer == ResultStream::Producer::kGgm
                                 ? rsse::kPrimaryStore
                                 : s.store_id;
    auto slot = stores_.find(slot_id);
    switch (s.producer) {
      case ResultStream::Producer::kGgm:
        if (slot == stores_.end() ||
            slot->second.kind != rsse::StoreKind::kEmm) {
          EmitError(conn, "primary store is not an encrypted dictionary");
          return JobResult::kDone;
        }
        break;
      case ResultStream::Producer::kKeyword:
        if (slot == stores_.end()) {
          EmitError(conn, "no store hosted at the requested slot");
          return JobResult::kDone;
        }
        if (slot->second.kind != rsse::StoreKind::kEmm) {
          EmitError(conn, "store kind changed during a streamed search");
          return JobResult::kDone;
        }
        break;
      case ResultStream::Producer::kFilterTree:
        if (slot == stores_.end()) {
          EmitError(conn, "no store hosted at the requested slot");
          return JobResult::kDone;
        }
        if (slot->second.kind != rsse::StoreKind::kFilterTree ||
            slot->second.tree == nullptr) {
          EmitError(conn, "store kind changed during a streamed search");
          return JobResult::kDone;
        }
        break;
    }
    store = &slot->second;
  }
  // Ids of the current GGM work unit, reused across this segment's units.
  std::vector<uint64_t> unit_ids;
  for (;;) {
    const EmitResult emit = PumpEmission(conn, s);
    if (emit == EmitResult::kAbort) return JobResult::kDone;
    if (emit == EmitResult::kPark) {
      s.done.search_nanos += timer.ElapsedNanos();
      return JobResult::kParked;
    }
    if (emit == EmitResult::kFinished) {
      s.done.search_nanos += timer.ElapsedNanos();
      // The terminating frame honours the high-water mark like any chunk
      // (so `peak outbound <= cap` holds exactly), except into an empty
      // queue. Re-entry lands back here: the cursor is fully drained, so
      // PumpEmission returns kFinished again immediately.
      if (options_.max_outbound_bytes > 0) {
        constexpr size_t kDoneEstimate = 96;
        const size_t outbound =
            conn.outbound_bytes.load(std::memory_order_acquire);
        if (outbound > 0 &&
            outbound + kDoneEstimate > options_.max_outbound_bytes) {
          return JobResult::kParked;
        }
      }
      EmitFrame(conn, FrameType::kSearchDone, s.done.Encode(),
                "search done frame failed to encode");
      stats_.batches_served.fetch_add(1, std::memory_order_relaxed);
      stats_.queries_served.fetch_add(s.done.query_count,
                                      std::memory_order_relaxed);
      stats_.tokens_received.fetch_add(s.done.tokens_received,
                                       std::memory_order_relaxed);
      if (s.producer == ResultStream::Producer::kGgm) {
        stats_.nodes_deduped.fetch_add(
            s.done.tokens_received - s.done.unique_nodes_expanded,
            std::memory_order_relaxed);
      }
      return JobResult::kDone;
    }
    // kStall: the cursor needs data the producers have not resolved yet.
    if (s.next_work >= s.work_count) {
      // Unreachable by construction (all open_parts are 0 once work runs
      // dry); bail rather than spin if an invariant ever breaks.
      EmitError(conn, "internal: stream stalled with no work left");
      return JobResult::kDone;
    }
    switch (s.producer) {
      case ResultStream::Producer::kGgm: {
        // Per-worker resolver scratch: workers are long-lived, so the
        // steady state allocates nothing per leaf or per hit.
        thread_local rsse::LeafResolverScratch scratch;
        unit_ids.clear();
        IdSink sink(unit_ids);
        sse::SearchStats search_stats;
        s.done.leaves_searched +=
            rsse::ResolveGgmToken(s.tokens[s.next_work], store->emm,
                                  store->gate.get(), scratch, sink,
                                  &search_stats);
        s.done.skipped_decrypts += search_stats.skipped_decrypts;
        for (uint32_t qi : s.token_queries[s.next_work]) {
          s.ids[qi].insert(s.ids[qi].end(), unit_ids.begin(),
                           unit_ids.end());
          --s.open_parts[qi];
        }
        break;
      }
      case ResultStream::Producer::kKeyword: {
        const ResultStream::KeywordProbe& probe = s.probes[s.next_work];
        PayloadArena& dst = s.payloads[probe.query];
        bool fits = true;
        sse::SearchStats search_stats;
        sse::SearchEntries(
            probe.keys, store->emm,
            [&dst, &fits](ConstByteSpan payload) {
              fits = dst.Add(payload) && fits;
            },
            store->gate.get(), &search_stats);
        if (!fits) {
          EmitError(conn, "query result exceeds the payload arena");
          return JobResult::kDone;
        }
        s.done.skipped_decrypts += search_stats.skipped_decrypts;
        --s.open_parts[probe.query];
        break;
      }
      case ResultStream::Producer::kFilterTree: {
        const size_t q = s.next_work;
        for (uint64_t id : store->tree->Search(s.trapdoors[q])) {
          uint8_t payload[8];  // sse::EncodeIdPayload, without the vector
          StoreUint64(payload, id);
          if (!s.payloads[q].Add(ConstByteSpan(payload, sizeof(payload)))) {
            EmitError(conn, "query result exceeds the payload arena");
            return JobResult::kDone;
          }
        }
        s.open_parts[q] = 0;
        break;
      }
    }
    ++s.next_work;
  }
}

EmmServer::EmitResult EmmServer::PumpEmission(Connection& conn,
                                              ResultStream& s) {
  const size_t cap = std::max<size_t>(
      s.payload_mode ? options_.max_payloads_per_result_frame
                     : options_.max_ids_per_result_frame,
      1);
  const size_t n = s.query_ids.size();
  Bytes frame;  // payload frames, reused across this call's chunks
  for (;;) {
    if (s.q == n) {
      // A full rotation without a single frame means every query is
      // complete and drained (stalls return mid-rotation): done.
      if (!s.round_emitted) return EmitResult::kFinished;
      s.q = 0;
      ++s.round;
      s.round_emitted = false;
      continue;
    }
    const bool complete = s.open_parts[s.q] == 0;
    const size_t total =
        s.payload_mode ? s.payloads[s.q].size() : s.ids[s.q].size();
    const size_t avail = total - s.offset[s.q];
    if (complete && avail == 0 && s.round > 0) {
      ++s.q;
      continue;
    }
    // Round 0 still owes this query its first (possibly empty) frame;
    // later rounds owe a frame only once a full chunk (or the tail) is
    // ready — a partial chunk of an unfinished query waits for the
    // producers.
    if (!complete && avail < cap) return EmitResult::kStall;
    const size_t count = std::min(avail, cap);
    // Backpressure check before encoding: 32 bytes generously covers the
    // frame header plus the chunk's fixed fields, so the estimate only
    // overshoots. An empty outbound queue always accepts one frame —
    // that keeps progress guaranteed whatever the configured mark.
    size_t estimate = 32;
    if (s.payload_mode) {
      estimate += s.payloads[s.q].SpanBytes(s.offset[s.q], count) + 4 * count;
    } else {
      estimate += count * 8;
    }
    if (options_.max_outbound_bytes > 0) {
      const size_t outbound =
          conn.outbound_bytes.load(std::memory_order_acquire);
      if (outbound > 0 &&
          outbound + estimate > options_.max_outbound_bytes) {
        return EmitResult::kPark;
      }
    }
    bool ok = false;
    if (s.payload_mode) {
      frame.clear();
      if (EncodeSearchPayloadFrame(s.query_ids[s.q], s.payloads[s.q],
                                   s.offset[s.q], count, frame)) {
        ok = EmitEncoded(conn, frame);
      } else {
        EmitError(conn, "payload chunk exceeds frame limit");
      }
    } else {
      SearchResult result;
      result.query_id = s.query_ids[s.q];
      const auto first = s.ids[s.q].begin() + static_cast<long>(s.offset[s.q]);
      result.ids.assign(first, first + static_cast<long>(count));
      ok = EmitFrame(conn, FrameType::kSearchResult, result.Encode(),
                     "result chunk exceeds frame limit");
    }
    if (!ok) return EmitResult::kAbort;
    s.offset[s.q] += count;
    s.round_emitted = true;
    // Reclaim the emitted prefix: a stream parked behind a slow reader
    // must not keep already-framed results resident on top of the
    // bounded outbound queue.
    if (s.offset[s.q] >= std::max<size_t>(4 * cap, size_t{4096})) {
      if (s.payload_mode) {
        s.payloads[s.q].DropPrefix(s.offset[s.q]);
      } else {
        std::vector<uint64_t>& v = s.ids[s.q];
        v.erase(v.begin(), v.begin() + static_cast<long>(s.offset[s.q]));
      }
      s.offset[s.q] = 0;
    }
    ++s.q;
  }
}

}  // namespace rsse::server
