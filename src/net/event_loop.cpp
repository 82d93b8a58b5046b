#include "net/event_loop.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/coalesce.hpp"
#include "core/flow_control.hpp"

namespace tbon::net {
namespace {

/// Per-connection cap on bytes a sender may queue behind the socket before
/// NetLink::send blocks — the userspace analogue of a full SO_SNDBUF.
constexpr std::size_t kSendBudget = std::size_t{4} << 20;

/// How often the loop refreshes the net_threads gauge from /proc.
constexpr std::int64_t kThreadSampleNs = 250'000'000;

/// iovec entries per sendmsg call (comfortably under IOV_MAX).
constexpr std::size_t kIovBatch = 64;

std::string errno_string(int err) { return std::strerror(err); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError("fcntl(O_NONBLOCK) failed: " + errno_string(errno));
  }
}

/// OS threads in this process, from /proc/self/task (Linux); 0 on failure.
std::uint64_t count_process_threads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::uint64_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

thread_local int t_loop_marker = 0;

}  // namespace

// ---- NetLink ----------------------------------------------------------------

bool NetLink::send(const PacketPtr& packet) {
  if (!packet || conn_ == nullptr || conn_->loop_ == nullptr) return false;
  NetConn::SendItem item;
  item.packet = packet;
  // Budget charge is an O(1) estimate (payload + a small header allowance);
  // exact frame bytes are accounted when the frame is built and written.
  item.charge = packet->payload_bytes() + 64;
  // Control and telemetry packets bypass the budget the same way they
  // bypass credit gates: blocking the control plane behind a data backlog
  // would deadlock shutdown and starve heartbeats.
  const bool may_block = !flow_control_exempt(*packet);
  return conn_->loop_->enqueue(conn_, std::move(item), may_block);
}

bool NetLink::send_batch(std::span<const PacketPtr> packets) {
  if (packets.empty()) return true;
  // A one-packet batch keeps the plain single-frame path (and with it the
  // zero-copy writev lanes), byte-identical to the pre-batching wire form.
  if (packets.size() == 1) return send(packets.front());
  if (conn_ == nullptr || conn_->loop_ == nullptr) return false;
  NetConn::SendItem item;
  item.batch.assign(packets.begin(), packets.end());
  for (const PacketPtr& packet : packets) {
    item.charge += packet->payload_bytes() + 64;
  }
  // Batches only ever carry data packets (the coalescer exempts control and
  // telemetry), so they always count against the send budget.
  return conn_->loop_->enqueue(conn_, std::move(item), /*may_block=*/true);
}

void NetLink::close() {
  if (conn_ == nullptr || conn_->loop_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(conn_->mutex_);
    conn_->close_after_flush_ = true;
  }
  conn_->loop_->wake();
}

// ---- EventLoop: lifecycle ---------------------------------------------------

EventLoop::EventLoop(MetricsRegistry* metrics)
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)),
      metrics_(metrics) {
  if (!epoll_.valid() || !wake_fd_.valid()) {
    throw TransportError("event loop setup failed: " + errno_string(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    throw TransportError("epoll_ctl(wake) failed: " + errno_string(errno));
  }
}

EventLoop::~EventLoop() { stop(); }

void EventLoop::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  const bool first = !stopping_.exchange(true, std::memory_order_acq_rel);
  wake();
  if (thread_.joinable()) thread_.join();
  if (!first) return;
  // Loop thread is gone; tear down on the caller's thread.  Blocked senders
  // are woken and fail; EOF envelopes are best-effort (the runtimes are
  // usually being torn down alongside us).
  for (auto& [fd, conn] : conns_) {
    conn->closed_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(conn->mutex_);
    conn->queue_.clear();
    conn->queued_bytes_ = 0;
    conn->budget_.notify_all();
    const ChannelOptions& target = conn->target_;
    if (conn->channel_ && !conn->eof_notified_ && target.inbox) {
      if (target.inbox->try_push(Envelope{target.origin, target.slot, nullptr})) {
        conn->eof_notified_ = true;
      }
    }
  }
  conns_.clear();
  listeners_.clear();
  timers_.clear();
  parked_.clear();
  pending_eof_.clear();
}

bool EventLoop::drain(std::int64_t timeout_ms) {
  // Pre-start every send was written inline by the caller; on the loop
  // thread we cannot wait for ourselves.  Either way there is nothing to do.
  if (!started_.load(std::memory_order_acquire) || on_loop_thread()) return true;
  const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    auto flushed = std::make_shared<std::promise<bool>>();
    std::future<bool> verdict = flushed->get_future();
    post([this, flushed] {
      bool busy = false;
      for (auto& [fd, conn] : conns_) {
        if (conn->outgoing_.has_value()) {
          busy = true;
          break;
        }
        std::lock_guard<std::mutex> lock(conn->mutex_);
        if (!conn->queue_.empty()) {
          busy = true;
          break;
        }
      }
      flushed->set_value(!busy);
    });
    // Bounded wait: if the loop stops underneath us the op never runs and
    // an unbounded get() would hang.
    if (verdict.wait_for(std::chrono::milliseconds(50)) ==
            std::future_status::ready &&
        verdict.get()) {
      return true;
    }
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool EventLoop::on_loop_thread() const noexcept {
  return loop_thread_id_.load(std::memory_order_acquire) == &t_loop_marker;
}

void EventLoop::submit(std::function<void()> fn) {
  // Before start() the caller is the only thread touching loop state;
  // afterwards all mutation funnels through the ops queue.
  if (!started_.load(std::memory_order_acquire) || on_loop_thread()) {
    fn();
    return;
  }
  post(std::move(fn));
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    ops_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::post_at(std::int64_t deadline_ns, std::function<void()> fn) {
  submit([this, deadline_ns, fn = std::move(fn)]() mutable {
    timers_.emplace(deadline_ns, std::move(fn));
  });
}

// ---- EventLoop: registration ------------------------------------------------

ConnRef EventLoop::add_connection(Fd fd, ConnectionOptions options) {
  auto conn = std::make_shared<NetConn>();
  conn->fd_ = std::move(fd);
  conn->loop_ = this;
  conn->on_frame_ = std::move(options.on_frame);
  conn->on_close_ = std::move(options.on_close);
  conn->max_frame_ = options.max_frame;
  conn->deadline_ns_ = options.deadline_ns;
  submit([this, conn] { register_conn(conn); });
  return conn;
}

void EventLoop::open(Fd fd, ChannelOptions channel, const Install& install) {
  auto conn = std::make_shared<NetConn>();
  conn->fd_ = std::move(fd);
  conn->loop_ = this;
  promote(conn, std::move(channel));
  if (install) install(std::make_shared<NetLink>(conn));
  submit([this, conn] { register_conn(conn); });
}

void EventLoop::promote(const ConnRef& conn, ChannelOptions channel) {
  conn->channel_ = true;
  conn->target_ = std::move(channel);
  conn->max_frame_ = kMaxFrame;
  conn->on_frame_ = nullptr;
  conn->on_close_ = nullptr;
  conn->deadline_ns_ = 0;
}

std::shared_ptr<Link> EventLoop::link(const ConnRef& conn) {
  return std::make_shared<NetLink>(conn);
}

void EventLoop::register_conn(const ConnRef& conn) {
  if (conn->closed()) return;
  if (stopping_.load(std::memory_order_acquire)) {
    // Late registration during shutdown: stop()'s wake pass only covers
    // conns_ members, so a silently dropped conn would leave any sender
    // blocked on its budget condvar hanging forever.  Tear it down properly
    // (marks it closed, clears the queue, notifies budget_, surfaces EOF).
    connection_dead(conn, false);
    return;
  }
  try {
    set_nonblocking(conn->fd());
  } catch (const std::exception& error) {
    TBON_DEBUG("net conn setup failed: " << error.what());
    connection_dead(conn, !conn->channel_);
    return;
  }
  epoll_event ev{};
  ev.events = conn->read_enabled_ ? EPOLLIN : 0u;
  ev.data.fd = conn->fd();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) != 0) {
    TBON_DEBUG("epoll add failed: " << errno_string(errno));
    connection_dead(conn, !conn->channel_);
    return;
  }
  conn->registered_ = true;
  conns_.emplace(conn->fd(), conn);
  if (metrics_ != nullptr) {
    metrics_->net_connections.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->deadline_ns_ > 0) {
    timers_.emplace(conn->deadline_ns_, [this, weak = std::weak_ptr<NetConn>(conn)] {
      ConnRef locked = weak.lock();
      // Still un-promoted when the deadline fires: the peer never finished
      // (or never started) its handshake.
      if (locked && !locked->closed() && !locked->channel_) {
        TBON_DEBUG("handshake deadline expired on fd " << locked->fd());
        connection_dead(locked, true);
      }
    });
  }
}

void EventLoop::add_listener(Fd fd, std::function<void(Fd)> on_accept) {
  auto shared = std::make_shared<ListenerState>();
  shared->fd = std::move(fd);
  shared->on_accept = std::move(on_accept);
  submit([this, shared] {
    if (stopping_.load(std::memory_order_acquire)) return;
    set_nonblocking(shared->fd.get());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = shared->fd.get();
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, shared->fd.get(), &ev) != 0) {
      throw TransportError("epoll add listener failed: " + errno_string(errno));
    }
    const int key = shared->fd.get();
    listeners_.emplace(key, std::move(*shared));
  });
}

void EventLoop::close_connection(const ConnRef& conn) {
  submit([this, conn] { connection_dead(conn, false); });
}

// ---- EventLoop: send path ---------------------------------------------------

bool EventLoop::enqueue(const ConnRef& conn, NetConn::SendItem item, bool may_block) {
  {
    std::unique_lock<std::mutex> lock(conn->mutex_);
    if (conn->closed() || conn->close_after_flush_) return false;
    if (may_block && conn->queued_bytes_ > 0 &&
        conn->queued_bytes_ + item.charge > kSendBudget) {
      // An empty queue always admits one item: a single frame can legally be
      // larger than the whole budget (kMaxFrame >> kSendBudget), and
      // waiting for `queued + charge <= budget` on such a frame would never
      // be satisfied.
      conn->budget_.wait(lock, [&] {
        return conn->closed() || conn->queued_bytes_ == 0 ||
               conn->queued_bytes_ + item.charge <= kSendBudget;
      });
      if (conn->closed()) return false;
    }
    conn->queued_bytes_ += item.charge;
    if (metrics_ != nullptr) {
      update_max(metrics_->net_send_queue_peak, conn->queued_bytes_);
    }
    const bool was_empty = conn->queue_.empty();
    conn->queue_.push_back(std::move(item));
    // A non-empty queue means a previous wake is still pending or the loop
    // is actively draining this connection and re-checks the queue before
    // sleeping — either way another eventfd write would only add a syscall
    // per packet to the hot path.
    if (!was_empty) return true;
  }
  wake();
  return true;
}

void EventLoop::send_frame(const ConnRef& conn, Bytes frame) {
  NetConn::SendItem item;
  item.charge = frame.size() + 4;
  item.raw = std::move(frame);
  enqueue(conn, std::move(item), /*may_block=*/false);
}

bool EventLoop::build_outgoing(const ConnRef& conn) {
  NetConn::SendItem item;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    if (conn->queue_.empty()) return false;
    item = std::move(conn->queue_.front());
    conn->queue_.pop_front();
  }
  NetConn::Outgoing out;
  out.charge = item.charge;
  try {
    if (!item.batch.empty()) {
      // A coalesced run: one multi-packet batch frame.  Always flattened —
      // the batch encoding interleaves per-packet headers, so there is no
      // verbatim-relay segment list to preserve.
      out.flat = encode_batch_frame(item.batch);
      out.frame_size = static_cast<std::uint32_t>(out.flat.size());
      out.segments.push_back({out.flat.data(), out.flat.size()});
    } else if (item.packet != nullptr) {
      // The zero-copy lanes: wire-backed relays go out verbatim, owned
      // packets as header scratch + in-place payload segments.  The Outgoing
      // holds the packet and the writer so the segment pointers stay valid
      // across however many writev calls the frame takes.
      out.packet = item.packet;
      out.writer = std::make_unique<SegmentWriter>();
      item.packet->serialize_segments(*out.writer);
      out.segments = out.writer->segments();
      out.frame_size = out.writer->size();
    } else {
      // Raw handshake frame: already encoded, framed with the length prefix.
      out.flat = std::move(item.raw);
      out.frame_size = out.flat.size();
      out.segments.push_back({out.flat.data(), out.flat.size()});
    }
  } catch (const std::exception& error) {
    TBON_DEBUG("net frame build failed: " << error.what());
    connection_dead(conn, !conn->channel_);
    return false;
  }
  if (out.frame_size > kMaxFrame) {
    TBON_DEBUG("oversized outgoing frame dropped (" << out.frame_size << " bytes)");
    connection_dead(conn, !conn->channel_);
    return false;
  }
  const auto prefix = static_cast<std::uint32_t>(out.frame_size);
  std::memcpy(conn->out_header_.data(), &prefix, sizeof(prefix));
  out.segments.insert(out.segments.begin(),
                      {conn->out_header_.data(), conn->out_header_.size()});
  out.segment_index = 0;
  out.segment_offset = 0;
  conn->outgoing_ = std::move(out);
  return true;
}

void EventLoop::finish_outgoing(NetConn& conn) {
  if (metrics_ != nullptr) {
    metrics_->wire_bytes_out.fetch_add(conn.outgoing_->frame_size,
                                       std::memory_order_relaxed);
    metrics_->net_frames_out.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t charge = conn.outgoing_->charge;
  conn.outgoing_.reset();
  std::lock_guard<std::mutex> lock(conn.mutex_);
  conn.queued_bytes_ -= std::min(conn.queued_bytes_, charge);
  conn.budget_.notify_all();
}

void EventLoop::handle_writable(const ConnRef& conn) {
  if (conn->closed()) return;
  while (true) {
    if (!conn->outgoing_ && !build_outgoing(conn)) break;
    if (conn->closed()) return;  // build_outgoing may have killed the conn
    NetConn::Outgoing& out = *conn->outgoing_;
    iovec iov[kIovBatch];
    std::size_t iovcnt = 0;
    for (std::size_t i = out.segment_index;
         i < out.segments.size() && iovcnt < kIovBatch; ++i) {
      const auto& seg = out.segments[i];
      const std::size_t skip = (i == out.segment_index) ? out.segment_offset : 0;
      iov[iovcnt].iov_base = const_cast<std::byte*>(seg.data) + skip;
      iov[iovcnt].iov_len = seg.size - skip;
      ++iovcnt;
    }
    // MSG_NOSIGNAL: a peer that exited is an EPIPE, which takes the
    // connection_dead -> EOF envelope -> recovery path, not a SIGPIPE that
    // kills this process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(conn->fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full mid-frame: keep the cursor, ask for EPOLLOUT.
        if (metrics_ != nullptr) {
          metrics_->net_partial_writes.fetch_add(1, std::memory_order_relaxed);
        }
        if (!conn->want_write_) {
          conn->want_write_ = true;
          update_interest(*conn);
        }
        return;
      }
      TBON_DEBUG("net write failed: " << errno_string(errno));
      connection_dead(conn, !conn->channel_);
      return;
    }
    std::size_t advanced = static_cast<std::size_t>(n);
    while (advanced > 0) {
      const auto& seg = out.segments[out.segment_index];
      const std::size_t remain = seg.size - out.segment_offset;
      if (advanced >= remain) {
        advanced -= remain;
        ++out.segment_index;
        out.segment_offset = 0;
      } else {
        out.segment_offset += advanced;
        advanced = 0;
      }
    }
    if (out.segment_index == out.segments.size()) finish_outgoing(*conn);
  }
  // Queue fully drained.
  if (conn->want_write_) {
    conn->want_write_ = false;
    update_interest(*conn);
  }
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    close_now = conn->close_after_flush_ && conn->queue_.empty();
  }
  if (close_now && !conn->outgoing_) {
    // Half-close like FdLink::close(): the peer's reader sees EOF, and our
    // read side stays open until it does the same.
    shutdown_write(conn->fd());
  }
}

// ---- EventLoop: receive path ------------------------------------------------

void EventLoop::handle_readable(const ConnRef& conn) {
  while (!conn->closed() && conn->read_enabled_) {
    if (!conn->reading_payload_) {
      // The header may already be complete from a previous readv's spillover
      // (see the payload branch); only hit the kernel when it is not.
      if (conn->header_have_ < conn->header_.size()) {
        const ssize_t n = ::read(conn->fd(), conn->header_.data() + conn->header_have_,
                                 conn->header_.size() - conn->header_have_);
        if (n == 0) {
          connection_dead(conn, !conn->channel_);
          return;
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          connection_dead(conn, !conn->channel_);
          return;
        }
        conn->header_have_ += static_cast<std::size_t>(n);
        if (conn->header_have_ < conn->header_.size()) continue;
      }
      std::uint32_t size = 0;
      std::memcpy(&size, conn->header_.data(), sizeof(size));
      if (size == 0 || size > conn->max_frame_) {
        // A hostile or garbage length prefix: drop the connection instead
        // of allocating whatever it claims.
        TBON_DEBUG("bad frame size " << size << " on fd " << conn->fd());
        connection_dead(conn, !conn->channel_);
        return;
      }
      conn->payload_.resize(size);
      conn->payload_have_ = 0;
      conn->reading_payload_ = true;
    } else {
      // Pull the next frame's length prefix in the same syscall as the
      // payload tail: in steady-state bulk relay this halves the reads per
      // frame (the separate 4-byte header read disappears).
      iovec iov[2];
      iov[0].iov_base = conn->payload_.data() + conn->payload_have_;
      iov[0].iov_len = conn->payload_.size() - conn->payload_have_;
      iov[1].iov_base = conn->header_.data();
      iov[1].iov_len = conn->header_.size();
      const ssize_t n = ::readv(conn->fd(), iov, 2);
      if (n == 0) {
        connection_dead(conn, !conn->channel_);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        connection_dead(conn, !conn->channel_);
        return;
      }
      const std::size_t got = static_cast<std::size_t>(n);
      const std::size_t payload_part = std::min(got, iov[0].iov_len);
      conn->payload_have_ += payload_part;
      if (conn->payload_have_ < conn->payload_.size()) continue;
      Bytes frame = std::move(conn->payload_);
      conn->payload_ = Bytes{};
      conn->reading_payload_ = false;
      conn->header_have_ = got - payload_part;  // next frame's prefix spillover
      if (!deliver_frame(conn, std::move(frame))) return;
    }
  }
}

bool EventLoop::deliver_frame(const ConnRef& conn, Bytes frame) {
  if (metrics_ != nullptr) {
    metrics_->wire_bytes_in.fetch_add(frame.size(), std::memory_order_relaxed);
    metrics_->net_frames_in.fetch_add(1, std::memory_order_relaxed);
  }
  if (!conn->channel_) {
    if (conn->on_frame_) {
      // Keep the callback alive across the call: it may promote the
      // connection, which replaces conn->on_frame_ under our feet.
      const auto callback = conn->on_frame_;
      try {
        callback(conn, std::move(frame));
      } catch (const std::exception& error) {
        // A malformed handshake frame (CodecError from the wire decoders,
        // or a validation failure in the callback) costs exactly one
        // connection, never the loop.
        TBON_DEBUG("handshake frame rejected: " << error.what());
        connection_dead(conn, true);
        return false;
      }
    }
    return !conn->closed();
  }
  try {
    auto envelope = decode_channel_frame(std::move(frame), conn->target_, metrics_);
    return !envelope || deliver_envelope(conn, std::move(*envelope));
  } catch (const std::exception& error) {
    TBON_DEBUG("net frame decode failed: " << error.what());
    connection_dead(conn, false);
    return false;
  }
}

bool EventLoop::deliver_envelope(const ConnRef& conn, Envelope envelope) {
  if (conn->target_.inbox->try_push(envelope)) return true;
  // Inbox full: park the envelope and mask EPOLLIN so the kernel buffer
  // (and then the peer's credit window) absorbs the backlog.  retry_parked
  // re-enables reads once the runtime drains.
  conn->parked_ = std::move(envelope);
  conn->read_enabled_ = false;
  update_interest(*conn);
  parked_.push_back(conn);
  return false;
}

void EventLoop::retry_parked() {
  if (!parked_.empty()) {
    std::vector<ConnRef> still;
    std::vector<ConnRef> ready;
    for (ConnRef& conn : parked_) {
      if (conn->closed() || !conn->parked_) continue;
      if (conn->target_.inbox->try_push(*conn->parked_)) {
        conn->parked_.reset();
        conn->read_enabled_ = true;
        update_interest(*conn);
        ready.push_back(std::move(conn));
      } else {
        still.push_back(std::move(conn));
      }
    }
    parked_ = std::move(still);
    // Drain whatever accumulated in the kernel while reads were masked.
    for (const ConnRef& conn : ready) handle_readable(conn);
  }
  if (!pending_eof_.empty()) {
    std::vector<PendingEof> still;
    for (PendingEof& eof : pending_eof_) {
      if (!eof.inbox->try_push(Envelope{eof.origin, eof.slot, nullptr})) {
        still.push_back(std::move(eof));
      }
    }
    pending_eof_ = std::move(still);
  }
}

// ---- EventLoop: teardown of one connection ----------------------------------

void EventLoop::connection_dead(const ConnRef& conn, bool handshake_failure) {
  if (conn->closed_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(conn->mutex_);
    conn->queue_.clear();
    conn->queued_bytes_ = 0;
    conn->budget_.notify_all();
  }
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr);
  conn->registered_ = false;
  conns_.erase(conn->fd());
  if (metrics_ != nullptr) {
    if (handshake_failure) {
      metrics_->net_handshakes_failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (conn->channel_) {
    if (!conn->eof_notified_) {
      conn->eof_notified_ = true;
      // The EOF envelope is what triggers recovery; it must not be lost,
      // and it must not block the loop — best effort now, retried from the
      // loop until the inbox has room.
      const ChannelOptions& target = conn->target_;
      if (!target.inbox->try_push(Envelope{target.origin, target.slot, nullptr})) {
        pending_eof_.push_back(PendingEof{target.inbox, target.origin, target.slot});
      }
    }
  } else if (conn->on_close_) {
    const auto callback = std::move(conn->on_close_);
    conn->on_close_ = nullptr;
    try {
      callback(conn);
    } catch (const std::exception& error) {
      TBON_DEBUG("net on_close failed: " << error.what());
    }
  }
  conn->parked_.reset();
  conn->outgoing_.reset();
  conn->fd_.reset();
}

void EventLoop::update_interest(NetConn& conn) {
  epoll_event ev{};
  ev.events = (conn.read_enabled_ ? EPOLLIN : 0u) |
              (conn.want_write_ ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd();
  if (!conn.registered_) {
    // Deregistered by the masked-HUP path in run(); re-arm so the pending
    // data / EOF the peer left behind gets read.
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn.fd(), &ev) == 0) {
      conn.registered_ = true;
    }
    return;
  }
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd(), &ev);
}

// ---- EventLoop: the loop ----------------------------------------------------

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
  if (metrics_ != nullptr) {
    metrics_->net_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::drain_wake() {
  std::uint64_t value = 0;
  while (::read(wake_fd_.get(), &value, sizeof(value)) > 0) {
  }
}

void EventLoop::run_ops() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    batch.swap(ops_);
  }
  for (auto& op : batch) {
    try {
      op();
    } catch (const std::exception& error) {
      TBON_DEBUG("event loop op failed: " << error.what());
    }
  }
}

void EventLoop::fire_timers(std::int64_t now) {
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    try {
      fn();
    } catch (const std::exception& error) {
      TBON_DEBUG("event loop timer failed: " << error.what());
    }
  }
}

int EventLoop::poll_timeout_ms() const {
  // Parked envelopes / pending EOFs poll the inbox on a short leash; the
  // inbox has no cross-thread wake channel back to us.
  if (!parked_.empty() || !pending_eof_.empty()) return 2;
  if (timers_.empty()) return 500;
  const std::int64_t delta = timers_.begin()->first - now_ns();
  if (delta <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>(delta / 1'000'000 + 1, 500));
}

void EventLoop::sample_threads() {
  if (metrics_ != nullptr) {
    const std::uint64_t count = count_process_threads();
    if (count > 0) {
      metrics_->net_threads.store(count, std::memory_order_relaxed);
    }
  }
  timers_.emplace(now_ns() + kThreadSampleNs, [this] { sample_threads(); });
}

void EventLoop::flush_sends() {
  if (conns_.empty()) return;
  std::vector<ConnRef> flushable;
  flushable.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    bool has_work = conn->outgoing_.has_value();
    if (!has_work) {
      std::lock_guard<std::mutex> lock(conn->mutex_);
      has_work = !conn->queue_.empty() || conn->close_after_flush_;
    }
    if (has_work && !conn->want_write_) flushable.push_back(conn);
  }
  for (const ConnRef& conn : flushable) handle_writable(conn);
}

void EventLoop::run() {
  loop_thread_id_.store(&t_loop_marker, std::memory_order_release);
  sample_threads();
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    run_ops();
    retry_parked();
    fire_timers(now_ns());
    flush_sends();
    const int n =
        ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()),
                     poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      TBON_DEBUG("epoll_wait failed: " << errno_string(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        drain_wake();
        continue;
      }
      if (auto listener = listeners_.find(fd); listener != listeners_.end()) {
        while (true) {
          const int client = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
          if (client < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN, or a transient per-connection error
          }
          // Handshake replies and credit grants must not wait out Nagle.
          const int nodelay = 1;
          ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof(nodelay));
          if (metrics_ != nullptr) {
            metrics_->net_accepts.fetch_add(1, std::memory_order_relaxed);
          }
          try {
            listener->second.on_accept(Fd(client));
          } catch (const std::exception& error) {
            TBON_DEBUG("net accept handler failed: " << error.what());
          }
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const ConnRef conn = it->second;
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(conn);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      if (!conn->closed() && !conn->read_enabled_ && !conn->want_write_ &&
          (events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        // HUP/ERR are delivered even with a 0 interest mask, and
        // handle_readable no-ops while reads are masked — level-triggered,
        // the event would repeat every epoll_wait and spin the loop hot
        // until the inbox drains.  Drop the fd from the interest set
        // instead; retry_parked() re-adds it via update_interest and then
        // drains whatever the peer left behind before the EOF surfaces.
        // (With want_write_ set the interest mask is non-zero and the write
        // path consumes the event: the next sendmsg fails and tears the
        // connection down.)
        if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr) ==
            0) {
          conn->registered_ = false;
        }
        continue;
      }
      handle_readable(conn);
    }
  }
  loop_thread_id_.store(nullptr, std::memory_order_release);
}

}  // namespace tbon::net
