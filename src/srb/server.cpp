#include "srb/server.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/checksum.hpp"
#include "common/extent.hpp"
#include "common/log.hpp"

namespace remio::srb {

// ---------------------------------------------------------------------------
// Session: one connected client, its fd table, and the dispatch loop.
// ---------------------------------------------------------------------------
class SrbServer::Session {
 public:
  Session(SrbServer& server, std::unique_ptr<simnet::Socket> sock)
      : server_(server), sock_(std::move(sock)) {}

  ~Session() { join(); }

  void run_async(std::shared_ptr<Session> self) {
    thread_ = std::thread([self] { self->loop(); });
  }

  void force_close() { sock_->close(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  bool finished() const { return done_.load(std::memory_order_acquire); }

 private:
  struct FdState {
    ObjectId object = kInvalidObject;
    std::string path;
    std::uint64_t fp = 0;  // individual file pointer
    std::uint32_t flags = 0;
  };

  void loop() {
    try {
      FrameBuffer frame;
      while (recv_frame(*sock_, frame)) {
        whole_sums_.clear();
        if (crc_ && !check_frame(frame)) {
          // Request arrived corrupted. Framing held (the length prefix is
          // uncovered by design), so the stream is still in phase: report
          // the mismatch in rhythm and let the client re-send. Crucially
          // the frame is NOT dispatched — a flipped bit in a write payload
          // must never reach the store.
          reply(Status::kChecksumMismatch);
          continue;
        }
        ByteReader r(ByteSpan(frame.data(), frame.size()));
        const auto op = static_cast<Op>(r.u8());
        bool keep = true;
        try {
          keep = dispatch(op, r);
        } catch (const IntegrityError& e) {
          // At-rest corruption detected while servicing the op. The session
          // survives: quarantine is permanent until repaired, a plain
          // mismatch is retryable (scrub may heal, replicas may differ).
          reply(e.quarantined() ? Status::kQuarantined
                                : Status::kChecksumMismatch);
        }
        if (!keep) break;
      }
    } catch (const simnet::NetError& e) {
      REMIO_LOG_DEBUG("srb session ended: ", e.what());
    } catch (const std::exception& e) {
      REMIO_LOG_WARN("srb session error: ", e.what());
    }
    sock_->close();
    done_.store(true, std::memory_order_release);
  }

  /// Where a write addressed to (fd, offset) lands: offset, or the fd's
  /// file pointer when offset < 0 (0 for an unknown fd).
  std::uint64_t write_at(std::int32_t fd, std::int64_t offset) const {
    if (offset >= 0) return static_cast<std::uint64_t>(offset);
    const auto it = fds_.find(fd);
    return it != fds_.end() ? it->second.fp : 0;
  }

  /// strip_frame_crc with one pass over a write's payload shared with the
  /// store: the payload is hashed in pieces cut where it meets the object's
  /// 4 KiB blocks (ObjectStore::hash_blocks), and each whole block's CRC is
  /// kept in whole_sums_ to become its at-rest sum. The cuts are read from
  /// the head before it is verified. That is safe: any cuts combine to the
  /// CRC of the whole frame, so a damaged head, payload or trailer fails
  /// the check however it moved them, and no sum is used unless it passes.
  bool check_frame(FrameBuffer& frame) {
    if (frame.size() < 5) return false;  // head byte + trailer at minimum
    const std::size_t content = frame.size() - 4;
    const ByteSpan all(frame.data(), content);
    std::uint32_t sum = 0;
    std::size_t hashed = 0;  // all[0, hashed) is in sum
    // Hashes all[hashed, piece) plainly, then the piece cut at the blocks
    // it lands in. A piece whose end would overflow is left to be hashed
    // plainly with what follows: its frame is rejected anyway.
    const auto land = [&](ByteSpan piece, std::uint64_t at) {
      if (at > UINT64_MAX - piece.size()) return;
      const auto from = static_cast<std::size_t>(piece.data() - all.data());
      sum = crc32c(all.subspan(hashed, from - hashed), sum);
      sum = ObjectStore::hash_blocks(piece, at, sum, whole_sums_);
      hashed = from + piece.size();
    };
    ByteReader r(all);
    const auto op = static_cast<Op>(r.u8());
    if (op == Op::kObjWrite) {
      const std::int32_t fd = r.i32();
      const std::int64_t offset = r.i64();
      const ByteSpan data = r.blob_view();
      if (r.ok()) land(data, write_at(fd, offset));
    } else if (op == Op::kObjWriteList) {
      (void)r.i32();  // fd
      const std::uint32_t count = r.u32();
      if (r.ok() && count <= kMaxListExtents &&
          r.remaining() >= 12ull * count) {
        ByteReader xr(r.rest());
        r.skip(12ull * count);
        ByteSpan data = r.rest();
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint64_t at = xr.u64();
          const std::uint32_t len = xr.u32();
          if (len > data.size()) break;  // a short payload: kInvalid later
          land(data.first(len), at);
          data = data.subspan(len);
        }
      }
    }
    sum = crc32c(all.subspan(hashed), sum);
    std::uint32_t wire;
    std::memcpy(&wire, frame.data() + content, 4);
    if (sum != wire) {
      whole_sums_.clear();
      return false;
    }
    frame.resize(content);
    return true;
  }

  /// Maps a client-visible path into the tenant's carved-out namespace.
  std::string map_path(const std::string& path) const {
    if (prefix_.empty()) return path;
    const std::string p = Mcat::normalize(path);
    return p == "/" ? prefix_ : prefix_ + p;
  }

  /// Strips the tenant prefix from a catalog path for the client's view.
  std::string unmap_path(const std::string& path) const {
    if (prefix_.empty()) return path;
    if (path.size() <= prefix_.size()) return "/";
    return path.substr(prefix_.size());
  }

  /// RAII guard for one tenant data-plane op: inflight cap then DRR
  /// admission. `admitted()` false means the cap rejected it (the caller
  /// replies kQuotaExceeded).
  class OpGuard {
   public:
    OpGuard(SrbServer& server, TenantRegistry::Tenant* tenant)
        : server_(server), tenant_(tenant) {
      if (tenant_ == nullptr) return;
      if (!tenant_->try_begin_op()) {
        tenant_ = nullptr;
        admitted_ = false;
        return;
      }
      server_.scheduler_.acquire(*tenant_);
    }
    ~OpGuard() {
      if (tenant_ == nullptr) return;
      server_.scheduler_.release();
      tenant_->end_op();
    }
    bool admitted() const { return admitted_; }

   private:
    SrbServer& server_;
    TenantRegistry::Tenant* tenant_;
    bool admitted_ = true;
  };

  /// `tail_crc`: the last body piece's CRC32C, when already known.
  void reply(Status st, std::initializer_list<ByteSpan> body = {},
             std::optional<std::uint32_t> tail_crc = std::nullopt) {
    send_reply(*sock_, static_cast<std::int32_t>(st), body, crc_, tail_crc);
  }

  bool dispatch(Op op, ByteReader& r) {
    switch (op) {
      case Op::kConnect: {
        (void)r.str();  // client name (logged only)
        const std::string tenant = r.remaining() > 0 ? r.str() : std::string();
        // Feature flags: appended only by clients that want a feature.
        const std::uint32_t asked = r.remaining() >= 4 ? r.u32() : 0;
        if (!r.ok()) return proto_error();
        if (server_.cfg_.tenants.enabled && !tenant.empty()) {
          if (tenant.find('/') != std::string::npos) {
            // A slash would let a login escape its namespace carve-out.
            reply(Status::kInvalid);
            return false;
          }
          tenant_ = &server_.tenants_.login(tenant);
          prefix_ = "/tenants/" + tenant;
          server_.mcat_.make_collection(prefix_);
        }
        // Every known feature a client asks for is granted.
        const std::uint32_t granted = asked & kFeatureWireChecksums;
        Bytes body;
        ByteWriter w(body);
        w.str(server_.cfg_.banner);
        // The grant is echoed only to a client that sent flags, so a
        // checksums-off session carries no flags word in either direction.
        if (asked != 0) w.u32(granted);
        reply(Status::kOk, {body});
        // The connect exchange itself is never checksummed (the feature is
        // being negotiated in it); coverage starts with the next frame.
        crc_ = (granted & kFeatureWireChecksums) != 0;
        return true;
      }
      case Op::kDisconnect:
        reply(Status::kOk);
        return false;

      case Op::kObjOpen: return handle_open(r);
      case Op::kObjClose: return handle_close(r);
      case Op::kObjRead: return handle_read(r);
      case Op::kObjWrite: return handle_write(r);
      case Op::kObjReadList: return handle_read_list(r);
      case Op::kObjWriteList: return handle_write_list(r);
      case Op::kObjSeek: return handle_seek(r);
      case Op::kObjStat: return handle_stat(r);
      case Op::kObjUnlink: return handle_unlink(r);
      case Op::kCollCreate: return handle_mkcoll(r);
      case Op::kCollList: return handle_list(r);
      case Op::kSetAttr: return handle_set_attr(r);
      case Op::kGetAttr: return handle_get_attr(r);
      case Op::kAdminScrub: return handle_scrub(r);
    }
    reply(Status::kProtocol);
    return false;
  }

  bool handle_open(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::uint32_t flags = r.u32();
    if (!r.ok()) return proto_error();

    auto id = server_.mcat_.resolve(path);
    if (!id && (flags & kCreate)) {
      // Registering a new object consumes one object-quota slot; reserve
      // it first and give it back if another session wins the create race.
      if (tenant_ != nullptr && !tenant_->try_charge_objects()) {
        reply(Status::kQuotaExceeded);
        return true;
      }
      // Auto-create parent collections, matching SRB's container behaviour.
      server_.mcat_.make_collection(Mcat::parent_of(path));
      id = server_.mcat_.register_object(path, server_.cfg_.resource);
      // Another session may have won the create race; the open still
      // succeeds against the object it registered.
      if (!id) {
        if (tenant_ != nullptr) tenant_->uncharge_objects();
        id = server_.mcat_.resolve(path);
      }
    }
    if (!id) {
      reply(Status::kNotFound);
      return true;
    }
    server_.store_.create(*id);
    if (flags & kTrunc) {
      const std::int64_t delta = server_.store_.truncate(*id, 0);
      if (tenant_ != nullptr) tenant_->adjust_bytes(delta);
    }

    FdState st;
    st.object = *id;
    st.path = path;
    st.flags = flags;
    const std::int32_t fd = next_fd_++;
    fds_[fd] = st;

    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    reply(Status::kOk, {body});
    return true;
  }

  bool handle_close(ByteReader& r) {
    const std::int32_t fd = r.i32();
    if (!r.ok()) return proto_error();
    reply(fds_.erase(fd) != 0 ? Status::kOk : Status::kBadFd);
    return true;
  }

  bool handle_read(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t offset = r.i64();
    const std::uint32_t len = r.u32();
    if (!r.ok() || len > kMaxMessage / 2) return proto_error();
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    if ((st.flags & kRead) == 0) {
      reply(Status::kInvalid);
      return true;
    }
    OpGuard guard(server_, tenant_);
    if (!guard.admitted()) {
      reply(Status::kQuotaExceeded);
      return true;
    }
    const std::uint64_t at = offset >= 0 ? static_cast<std::uint64_t>(offset) : st.fp;
    // The store copies straight into the reply buffer, which the frame then
    // carries as a piece: no body is assembled. With checksums on, the store
    // also returns the bytes' CRC, composed from the block sums it verified,
    // and the trailer is built from that instead of hashing the bytes again.
    out_.resize(len);
    std::uint32_t sum = 0;
    const std::size_t n = server_.store_.pread(
        st.object, MutByteSpan(out_.data(), len), at, crc_ ? &sum : nullptr);
    if (offset < 0) st.fp = at + n;

    head_.clear();
    ByteWriter(head_).u32(static_cast<std::uint32_t>(n));
    reply(Status::kOk, {head_, ByteSpan(out_.data(), n)}, sum);
    return true;
  }

  bool handle_write(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t offset = r.i64();
    // Zero-copy: the payload is written straight from the request frame.
    const ByteSpan data = r.blob_view();
    if (!r.ok()) return proto_error();
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    if ((st.flags & kWrite) == 0) {
      reply(Status::kInvalid);
      return true;
    }
    OpGuard guard(server_, tenant_);
    if (!guard.admitted()) {
      reply(Status::kQuotaExceeded);
      return true;
    }
    const std::uint64_t at = write_at(fd, offset);  // where check_frame cut
    std::uint64_t reserved = 0;
    if (tenant_ != nullptr) {
      // Reserve the prospective growth up front (racy size estimate keeps
      // enforcement prompt), then settle against the exact growth below.
      const std::uint64_t cur = server_.store_.size(st.object);
      const std::uint64_t end = at + data.size();
      reserved = end > cur ? end - cur : 0;
      if (reserved > 0 && !tenant_->try_charge_bytes(reserved)) {
        reply(Status::kQuotaExceeded);
        return true;
      }
    }
    const std::uint64_t growth =
        server_.store_.pwrite(st.object, data, at, whole_sums_);
    if (tenant_ != nullptr)
      tenant_->adjust_bytes(static_cast<std::int64_t>(growth) -
                            static_cast<std::int64_t>(reserved));
    if (offset < 0) st.fp = at + data.size();

    head_.clear();
    ByteWriter(head_).u32(static_cast<std::uint32_t>(data.size()));
    reply(Status::kOk, {head_});
    return true;
  }

  /// Parses and validates the extent header shared by both list verbs.
  /// Returns false on a violation (after replying kInvalid, which keeps
  /// the session alive — the frame was fully received, so framing is
  /// intact). That covers extent arrays truncated *inside* a complete
  /// frame too: the length prefix was honoured, so the inconsistency is
  /// semantic, not a framing loss.
  bool parse_extent_list(ByteReader& r, std::uint32_t count,
                         std::vector<Extent>& out, std::uint64_t& sum) {
    out.clear();
    out.reserve(count);
    sum = 0;
    std::uint64_t watermark = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t offset = r.u64();
      const std::uint32_t len = r.u32();
      out.push_back({offset, len});
      sum += len;
    }
    if (!r.ok()) {
      reply(Status::kInvalid);
      return false;
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].len == 0 || out[i].offset > UINT64_MAX - out[i].len ||
          (i > 0 && out[i].offset < watermark)) {
        reply(Status::kInvalid);
        return false;
      }
      watermark = out[i].end();
    }
    return true;
  }

  bool handle_read_list(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::uint32_t count = r.u32();
    if (!r.ok()) return proto_error();
    if (count == 0 || count > kMaxListExtents) {
      reply(Status::kInvalid);
      return true;
    }
    std::uint64_t sum = 0;
    if (!parse_extent_list(r, count, extents_, sum)) return true;
    if (sum > kMaxMessage / 2) {
      reply(Status::kInvalid);
      return true;
    }
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    if ((st.flags & kRead) == 0) {
      reply(Status::kInvalid);
      return true;
    }
    OpGuard guard(server_, tenant_);
    if (!guard.admitted()) {
      reply(Status::kQuotaExceeded);
      return true;
    }
    // Response: per-extent actual lengths, then the read bytes concatenated
    // (short extents contribute only their actual bytes). The store reads
    // every extent under one lock, so only the extent EOF cuts is short and
    // the ones after it are empty.
    out_.resize(static_cast<std::size_t>(sum));
    std::uint32_t crc = 0;
    const std::size_t n =
        server_.store_.preadv(st.object, extents_,
                              MutByteSpan(out_.data(), out_.size()),
                              crc_ ? &crc : nullptr);
    head_.clear();
    ByteWriter w(head_);
    w.u32(count);
    std::size_t left = n;
    for (const Extent& x : extents_) {
      const auto got = static_cast<std::size_t>(
          std::min<std::uint64_t>(x.len, left));
      w.u32(static_cast<std::uint32_t>(got));
      left -= got;
    }
    reply(Status::kOk, {head_, ByteSpan(out_.data(), n)}, crc);
    return true;
  }

  bool handle_write_list(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::uint32_t count = r.u32();
    if (!r.ok()) return proto_error();
    if (count == 0 || count > kMaxListExtents) {
      reply(Status::kInvalid);
      return true;
    }
    std::uint64_t sum = 0;
    if (!parse_extent_list(r, count, extents_, sum)) return true;
    // Zero-copy: the concatenated payload is scattered straight from the
    // request frame. A length mismatch is a fully-received-but-inconsistent
    // frame: reject without killing the session.
    const ByteSpan data = r.rest();
    if (data.size() != sum) {
      reply(Status::kInvalid);
      return true;
    }
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    if ((st.flags & kWrite) == 0) {
      reply(Status::kInvalid);
      return true;
    }
    OpGuard guard(server_, tenant_);
    if (!guard.admitted()) {
      reply(Status::kQuotaExceeded);
      return true;
    }
    std::uint64_t reserved = 0;
    if (tenant_ != nullptr) {
      // The extents are offset-sorted, so the last one bounds the new EOF.
      const std::uint64_t cur = server_.store_.size(st.object);
      const std::uint64_t end = extents_.back().end();
      reserved = end > cur ? end - cur : 0;
      if (reserved > 0 && !tenant_->try_charge_bytes(reserved)) {
        reply(Status::kQuotaExceeded);
        return true;
      }
    }
    const std::uint64_t growth =
        server_.store_.pwritev(st.object, extents_, data, whole_sums_);
    if (tenant_ != nullptr)
      tenant_->adjust_bytes(static_cast<std::int64_t>(growth) -
                            static_cast<std::int64_t>(reserved));
    head_.clear();
    ByteWriter(head_).u64(sum);
    reply(Status::kOk, {head_});
    return true;
  }

  bool handle_seek(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t off = r.i64();
    const auto whence = static_cast<Whence>(r.u8());
    if (!r.ok()) return proto_error();
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    std::int64_t base = 0;
    switch (whence) {
      case Whence::kSet: base = 0; break;
      case Whence::kCur: base = static_cast<std::int64_t>(st.fp); break;
      case Whence::kEnd:
        base = static_cast<std::int64_t>(server_.store_.size(st.object));
        break;
    }
    const std::int64_t pos = base + off;
    if (pos < 0) {
      reply(Status::kInvalid);
      return true;
    }
    st.fp = static_cast<std::uint64_t>(pos);
    Bytes body;
    ByteWriter w(body);
    w.i64(pos);
    reply(Status::kOk, {body});
    return true;
  }

  bool handle_stat(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    const auto meta = server_.mcat_.meta(path);
    if (!meta) {
      reply(Status::kNotFound);
      return true;
    }
    Bytes body;
    ByteWriter w(body);
    w.u64(server_.store_.exists(meta->id) ? server_.store_.size(meta->id) : 0);
    w.u64(meta->id);
    w.str(meta->resource);
    reply(Status::kOk, {body});
    return true;
  }

  bool handle_unlink(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    const auto id = server_.mcat_.unregister_object(path);
    if (!id) {
      reply(Status::kNotFound);
      return true;
    }
    const std::uint64_t freed = server_.store_.remove(*id);
    if (tenant_ != nullptr) {
      tenant_->uncharge_objects();
      tenant_->adjust_bytes(-static_cast<std::int64_t>(freed));
    }
    reply(Status::kOk);
    return true;
  }

  bool handle_mkcoll(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    reply(server_.mcat_.make_collection(path) ? Status::kOk : Status::kExists);
    return true;
  }

  bool handle_list(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    if (!server_.mcat_.collection_exists(path)) {
      reply(Status::kNotFound);
      return true;
    }
    const auto entries = server_.mcat_.list(path);
    Bytes body;
    ByteWriter w(body);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) w.str(unmap_path(e));
    reply(Status::kOk, {body});
    return true;
  }

  bool handle_set_attr(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::string key = r.str();
    const std::string value = r.str();
    if (!r.ok()) return proto_error();
    reply(server_.mcat_.set_attr(path, key, value) ? Status::kOk : Status::kNotFound);
    return true;
  }

  bool handle_get_attr(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::string key = r.str();
    if (!r.ok()) return proto_error();
    const auto value = server_.mcat_.get_attr(path, key);
    if (!value) {
      reply(Status::kNotFound);
      return true;
    }
    Bytes body;
    ByteWriter w(body);
    w.str(*value);
    reply(Status::kOk, {body});
    return true;
  }

  bool handle_scrub(ByteReader& r) {
    if (!r.ok()) return proto_error();
    const ScrubReport rep = server_.store_.scrub();
    Bytes body;
    ByteWriter w(body);
    w.u64(rep.objects);
    w.u64(rep.blocks);
    w.u64(rep.mismatched);
    w.u64(rep.quarantined);
    w.u64(rep.healed);
    reply(Status::kOk, {body});
    return true;
  }

  bool proto_error() {
    reply(Status::kProtocol);
    return false;
  }

  SrbServer& server_;
  std::unique_ptr<simnet::Socket> sock_;
  std::thread thread_;
  std::map<std::int32_t, FdState> fds_;
  std::int32_t next_fd_ = 3;
  std::atomic<bool> done_{false};
  // Tenant identity bound at kConnect (null = untenanted legacy session).
  TenantRegistry::Tenant* tenant_ = nullptr;
  std::string prefix_;  // "/tenants/<name>" namespace carve-out, or empty
  bool crc_ = false;    // per-frame CRC32C, negotiated at kConnect
  // Reused across requests: a read reply's store bytes, the fixed reply
  // head sent in front of them, a list verb's parsed extents, and the
  // checked write frame's whole-block CRCs (check_frame; empty when the
  // session runs without checksums, so the store hashes every block).
  FrameBuffer out_;
  Bytes head_;
  std::vector<Extent> extents_;
  std::vector<std::uint32_t> whole_sums_;
};

// ---------------------------------------------------------------------------
// SrbServer
// ---------------------------------------------------------------------------
SrbServer::SrbServer(simnet::Fabric& fabric, ServerConfig cfg)
    : fabric_(fabric),
      cfg_(std::move(cfg)),
      store_(cfg_.store),
      tenants_(cfg_.tenants),
      scheduler_(cfg_.tenants) {}

SrbServer::~SrbServer() { stop(); }

void SrbServer::start() {
  if (running_.exchange(true)) return;
  acceptor_ = fabric_.listen(cfg_.host, cfg_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SrbServer::accept_loop() {
  while (true) {
    auto sock = acceptor_->accept();
    if (!sock) break;
    reap_finished_sessions();
    auto session = std::make_shared<Session>(*this, std::move(*sock));
    {
      std::lock_guard lk(sessions_mu_);
      sessions_.push_back(session);
    }
    ++sessions_served_;
    session->run_async(session);
  }
}

// Joins and drops sessions whose loop has exited, so long-lived servers
// facing many short-lived clients (the multi-tenant ablation drives 10k)
// don't accumulate dead threads and fd tables.
void SrbServer::reap_finished_sessions() {
  std::vector<std::shared_ptr<Session>> dead;
  {
    std::lock_guard lk(sessions_mu_);
    auto it = sessions_.begin();
    while (it != sessions_.end()) {
      if ((*it)->finished()) {
        dead.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : dead) s->join();  // joins outside the lock
}

void SrbServer::stop() {
  if (!running_.exchange(false)) return;
  acceptor_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) s->force_close();
  for (auto& s : sessions) s->join();
}

}  // namespace remio::srb
