// The per-node socket engine of the remote instantiation.
//
// One EventLoop per process owns ALL of that node's socket I/O on a single
// epoll-driven thread — it is remote mode's SocketPump (core/socket_pump.hpp),
// where process mode's ReaderPump spawns one blocking reader thread per fd,
// so a remote node's fd count never shows up in its thread count
// (test_net.cpp asserts exactly that).  Filter work never runs here: packets
// are delivered into the NodeRuntime's inbox and filters execute on the
// runtime thread or the FilterExecutor pool, so the loop's only job is
// moving frames.
//
// The loop never blocks:
//  * reads are non-blocking with an incremental header/payload state
//    machine; a full inbox parks the envelope and masks EPOLLIN for that
//    connection until the runtime drains (short-timeout retry);
//  * writes go through a per-connection send queue drained with
//    scatter-gather sendmsg (the zero-copy lanes: owned payload segments are
//    written in place, wire-backed relays verbatim); partial writes keep a
//    segment cursor and arm EPOLLOUT, and a dead peer is an EPIPE that
//    surfaces as the channel's EOF, never a SIGPIPE;
//  * senders on other threads (runtime, back-end application code) enqueue
//    via NetLink and block only against a byte budget — the moral
//    equivalent of a full kernel socket buffer — never against the loop;
//  * credit grants (kTagCredit) are consumed on this thread against the
//    connection's CreditSink.  That is safe precisely because this thread
//    never waits for credits: blocking acquisition happens inside
//    FlowControlledLink on sender threads, which the grant wakes.
//
// Connections start in *frame-callback* mode (used for handshakes: small
// max-frame cap, optional deadline, whole frames handed to a callback on
// the loop thread) and are promoted to *channel* mode once the handshake
// completes; open() registers an already-handshaked socket straight in
// channel mode.  Channel frames go through decode_channel_frame, as in the
// reader pump.  An eventfd wake channel makes enqueues and cross-thread
// posts visible to a sleeping epoll_wait.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "core/socket_pump.hpp"
#include "net/wire.hpp"
#include "telemetry/metrics.hpp"
#include "transport/fd.hpp"

namespace tbon::net {

class EventLoop;
class NetConn;
using ConnRef = std::shared_ptr<NetConn>;

/// Options for a connection in frame-callback (pre-handshake) mode.
struct ConnectionOptions {
  /// Whole decoded frames, on the loop thread.  May call promote(),
  /// send_frame(), close_connection() on its EventLoop.
  std::function<void(const ConnRef&, Bytes)> on_frame;
  /// EOF, error, or deadline expiry before promotion (loop thread).
  std::function<void(const ConnRef&)> on_close;
  /// Pre-handshake frame cap (a hostile length prefix closes the
  /// connection instead of ballooning memory).
  std::size_t max_frame = kMaxHandshakeFrame;
  /// Absolute now_ns() deadline for promotion; 0 = none.  Expiry counts
  /// into net_handshakes_failed and closes the connection.
  std::int64_t deadline_ns = 0;
};

/// One socket owned by the loop.  Opaque outside this subsystem: callers
/// hold ConnRefs and talk to the EventLoop (or the Link it hands out).
class NetConn {
 public:
  int fd() const noexcept { return fd_.get(); }
  bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

 private:
  friend class EventLoop;
  friend class NetLink;

  struct SendItem {
    PacketPtr packet;        ///< packet-plane send, or ...
    Bytes raw;               ///< ... a pre-framed handshake payload, or ...
    /// ... a coalesced run of data packets, encoded into one multi-packet
    /// batch frame when it reaches the queue head.
    std::vector<PacketPtr> batch;
    std::size_t charge = 0;  ///< budget bytes this item holds
  };

  /// An in-flight frame: built lazily when an item reaches the queue head,
  /// kept alive (writer scratch + packet payload) until fully written.
  struct Outgoing {
    PacketPtr packet;
    Bytes flat;
    std::unique_ptr<SegmentWriter> writer;
    std::vector<SegmentWriter::Segment> segments;
    std::uint32_t frame_size = 0;
    std::size_t segment_index = 0;   ///< -1th entry is the length prefix
    std::size_t segment_offset = 0;
    std::size_t charge = 0;
  };

  Fd fd_;
  EventLoop* loop_ = nullptr;

  // Read state machine (loop thread only).
  std::array<std::byte, 4> header_{};
  std::size_t header_have_ = 0;
  Bytes payload_;
  std::size_t payload_have_ = 0;
  bool reading_payload_ = false;
  std::size_t max_frame_ = kMaxHandshakeFrame;

  // Mode (loop thread only).
  bool channel_ = false;
  ChannelOptions target_;  ///< where channel frames go
  std::function<void(const ConnRef&, Bytes)> on_frame_;
  std::function<void(const ConnRef&)> on_close_;
  std::int64_t deadline_ns_ = 0;

  // Delivery backpressure (loop thread only).
  std::optional<Envelope> parked_;

  // Send queue (shared with sender threads).
  std::mutex mutex_;
  std::condition_variable budget_;
  std::deque<SendItem> queue_;
  std::size_t queued_bytes_ = 0;
  bool close_after_flush_ = false;

  // Write state (loop thread only).
  std::optional<Outgoing> outgoing_;
  std::array<std::byte, 4> out_header_{};
  bool want_write_ = false;
  bool read_enabled_ = true;
  bool eof_notified_ = false;
  // In the epoll interest set.  Cleared when the loop deregisters a
  // read-masked conn on EPOLLHUP/EPOLLERR (the events are level-triggered
  // and ignore a 0 interest mask); update_interest re-adds it once reads
  // are unmasked.
  bool registered_ = false;

  std::atomic<bool> closed_{false};
};

/// Link implementation over a loop-owned connection: send() enqueues on the
/// connection's queue and wakes the loop; close() flushes then half-closes.
/// Safe to call from any thread; never blocks the loop.
class NetLink final : public Link {
 public:
  explicit NetLink(ConnRef conn) : conn_(std::move(conn)) {}
  bool send(const PacketPtr& packet) override;
  bool send_batch(std::span<const PacketPtr> packets) override;
  void close() override;

 private:
  ConnRef conn_;
};

class EventLoop final : public SocketPump {
 public:
  /// `metrics`, when given, receives the net_* counters and gauges and must
  /// outlive the loop.
  explicit EventLoop(MetricsRegistry* metrics = nullptr);
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawn the loop thread.  Connections and listeners may be added both
  /// before (wiring a child process's tree edges) and after (adoption).
  void start() override;

  /// Stop and join (idempotent).  Pending queues are dropped; blocked
  /// senders are woken and fail.
  void stop() override;

  /// Block until every connection's send queue and in-flight frame have
  /// been handed to the kernel, or `timeout_ms` elapses.  Call before
  /// stop() on a node that is exiting: NetLink::send only enqueues, so
  /// without a drain the last frames of the shutdown handshake (final
  /// telemetry record, shutdown ack) race the queue-dropping teardown.
  /// Bytes accepted by the kernel survive process exit — TCP flushes the
  /// socket buffer before FIN — so queue-empty is the full guarantee.
  /// Returns false on timeout or if the loop stopped underneath us.
  bool drain(std::int64_t timeout_ms) override;

  /// Take ownership of a connected socket in frame-callback mode.
  ConnRef add_connection(Fd fd, ConnectionOptions options);

  /// Take ownership of a connected, handshaked socket directly in channel
  /// mode.  The socket joins the epoll set only after `install` returns.
  void open(Fd fd, ChannelOptions channel, const Install& install) override;

  /// Promote a frame-callback connection to channel mode.  Loop thread (a
  /// frame callback) or pre-start only.
  void promote(const ConnRef& conn, ChannelOptions channel);

  /// The send link of any connection (usable in either mode).
  std::shared_ptr<Link> link(const ConnRef& conn);

  /// Queue one raw length-framed payload (handshake replies).
  void send_frame(const ConnRef& conn, Bytes frame);

  /// Take ownership of a listening socket; `on_accept` runs on the loop
  /// thread once per connected client.
  void add_listener(Fd fd, std::function<void(Fd)> on_accept);

  /// Close a connection: wakes blocked senders, drops its queue, and (in
  /// channel mode) delivers the EOF envelope exactly once.
  void close_connection(const ConnRef& conn);

  /// Run `fn` on the loop thread (after start; FIFO with other ops).
  void post(std::function<void()> fn);

  /// Run `fn` on the loop thread once now_ns() passes `deadline_ns`.
  void post_at(std::int64_t deadline_ns, std::function<void()> fn);

  MetricsRegistry* metrics() const noexcept { return metrics_; }

  /// True when called from the loop thread.
  bool on_loop_thread() const noexcept;

 private:
  friend class NetLink;

  void run();
  void wake();
  void drain_wake();
  void run_ops();
  /// Run `fn` inline when safe (pre-start, or already on the loop thread),
  /// else post it.
  void submit(std::function<void()> fn);
  void register_conn(const ConnRef& conn);
  void handle_readable(const ConnRef& conn);
  void handle_writable(const ConnRef& conn);
  bool deliver_frame(const ConnRef& conn, Bytes frame);
  bool deliver_envelope(const ConnRef& conn, Envelope envelope);
  void retry_parked();
  bool build_outgoing(const ConnRef& conn);
  void finish_outgoing(NetConn& conn);
  void connection_dead(const ConnRef& conn, bool handshake_failure);
  void update_interest(NetConn& conn);
  void fire_timers(std::int64_t now);
  int poll_timeout_ms() const;
  void sample_threads();
  void flush_sends();
  bool enqueue(const ConnRef& conn, NetConn::SendItem item, bool may_block);

  Fd epoll_;
  Fd wake_fd_;
  MetricsRegistry* metrics_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<const void*> loop_thread_id_{nullptr};

  std::mutex ops_mutex_;
  std::deque<std::function<void()>> ops_;

  // Loop-thread state.
  std::unordered_map<int, ConnRef> conns_;
  struct ListenerState {
    Fd fd;
    std::function<void(Fd)> on_accept;
  };
  std::unordered_map<int, ListenerState> listeners_;
  std::multimap<std::int64_t, std::function<void()>> timers_;
  std::vector<ConnRef> parked_;
  /// Channel EOF envelopes that found their inbox full (retried; the EOF
  /// drives recovery and must be delivered without ever blocking the loop).
  struct PendingEof {
    InboxPtr inbox;
    Origin origin;
    std::uint32_t slot;
  };
  std::vector<PendingEof> pending_eof_;
};

}  // namespace tbon::net
