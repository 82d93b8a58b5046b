// Adaptive small-packet batching — per-channel coalescing of data packets
// into multi-packet wire frames.
//
// The paper's flagship workload (Paradyn startup, §2.2) is millions of tiny
// packets, where per-packet framing, wakeups and credit accounting dominate.
// A CoalescingLink decorates a channel's raw link and aggregates data
// packets, flushing as one multi-packet frame when any trigger fires:
//
//  * size      — buffered bytes or packet count reach the configured cap;
//  * deadline  — the oldest buffered packet has waited max_delay (a
//                BatchFlusher thread services deadlines, since back-end
//                application threads have no event loop of their own);
//  * pressure  — the channel's credit window is exhausted at the end of a
//                send call: anything still buffered must reach the receiver
//                or it can never be consumed, granted against, and the
//                sender unblocked;
//  * bypass    — a control or telemetry packet (recovery and shutdown
//                latency stay untouched) or, in adaptive mode, a payload at
//                or above the cutoff (the 64 KiB zero-copy path stays a
//                single-packet frame) flushes the buffer and goes alone.
//
// Credits stay per-packet: FlowControlledLink wraps the coalescer, so every
// data packet acquires its credit *before* being buffered, and a batch
// frame simply carries several already-accounted packets (granted back
// per-packet by the receiver as each one is consumed).
//
// The wire form is self-describing: a frame whose first u32 is kBatchMarker
// (never a valid stream id) is a batch — see encode_batch_frame().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/buffer.hpp"
#include "core/runtime.hpp"

namespace tbon {

class CreditGate;

/// Upper bound on packets per batch frame; a decoded count above this is
/// malformed (a hostile count must not pre-reserve unbounded memory).
inline constexpr std::uint32_t kMaxBatchPackets = 1u << 16;

/// Batching knobs, in the typed-builder style of TopologyOptions: start from
/// a factory, chain setters, hand the result to NetworkOptions::batching.
///
///   options.batching = BatchingOptions::on()
///                          .max_packets(128)
///                          .max_delay(std::chrono::microseconds(250));
///
/// Default-constructed (and ::off()) batching is disabled and every send
/// behaves exactly as before this subsystem existed.
class BatchingOptions {
 public:
  BatchingOptions() = default;

  /// Batching disabled; all sends are single-packet frames (the default).
  static BatchingOptions off() { return BatchingOptions(); }

  /// Batching enabled with the default thresholds: 16 KiB / 64 packets /
  /// 1 ms deadline, adaptive large-payload bypass at 4 KiB.
  static BatchingOptions on() {
    BatchingOptions o;
    o.enabled_ = true;
    return o;
  }

  /// Flush when this many payload bytes are buffered.
  BatchingOptions& max_bytes(std::size_t bytes) {
    max_bytes_ = bytes;
    return *this;
  }

  /// Flush when this many packets are buffered (clamped to kMaxBatchPackets).
  BatchingOptions& max_packets(std::size_t packets) {
    max_packets_ = packets < kMaxBatchPackets ? packets : kMaxBatchPackets;
    if (max_packets_ == 0) max_packets_ = 1;
    return *this;
  }

  /// Flush the oldest buffered packet after this long (the deadline timer).
  BatchingOptions& max_delay(std::chrono::nanoseconds delay) {
    max_delay_ns_ = delay.count() > 0 ? delay.count() : 0;
    return *this;
  }

  /// Adaptive mode: payloads at or above adaptive_cutoff() bypass the
  /// buffer and go out alone, keeping the large-payload zero-copy path.
  BatchingOptions& adaptive(bool on) {
    adaptive_ = on;
    return *this;
  }

  /// Payload size at which adaptive mode stops coalescing.
  BatchingOptions& adaptive_cutoff(std::size_t bytes) {
    adaptive_cutoff_ = bytes;
    return *this;
  }

  bool enabled() const noexcept { return enabled_; }
  std::size_t max_bytes() const noexcept { return max_bytes_; }
  std::size_t max_packets() const noexcept { return max_packets_; }
  std::int64_t max_delay_ns() const noexcept { return max_delay_ns_; }
  bool adaptive() const noexcept { return adaptive_; }
  std::size_t adaptive_cutoff() const noexcept { return adaptive_cutoff_; }

  /// Wire form for shipping the options to remote node processes.
  void serialize(BinaryWriter& writer) const;
  static BatchingOptions deserialize(BinaryReader& reader);

 private:
  bool enabled_ = false;
  std::size_t max_bytes_ = 16 * 1024;
  std::size_t max_packets_ = 64;
  std::int64_t max_delay_ns_ = 1'000'000;  // 1 ms
  bool adaptive_ = true;
  std::size_t adaptive_cutoff_ = 4096;
};

// ---- batch wire frame -------------------------------------------------------

/// True when `frame` begins with kBatchMarker (a multi-packet frame).
bool is_batch_frame(std::span<const std::byte> frame) noexcept;

/// Encode packets into one batch frame payload (no outer length prefix):
/// u32 kBatchMarker, u32 count, then count x (u32 length + packet bytes).
Bytes encode_batch_frame(std::span<const PacketPtr> packets);

/// Decode a batch frame.  All-or-nothing: every packet is validated before
/// any is returned, so a malformed frame has no side effects — the caller
/// drops it without delivering envelopes or minting credits.  Rejects empty
/// batches, counts above kMaxBatchPackets, length/size mismatches, trailing
/// bytes, and control/telemetry packets smuggled inside a batch (throws
/// CodecError).  Decoded packets alias the frame buffer.
std::vector<PacketPtr> decode_batch_frame(Bytes frame);

// ---- coalescer --------------------------------------------------------------

class BatchFlusher;

/// Link decorator that buffers data packets and forwards them to the inner
/// link as multi-packet batches (inner->send_batch).  Thread-safe like every
/// Link.  Wrap it *inside* FlowControlledLink so credits are accounted
/// per-packet before buffering; give it the same channel's CreditGate so it
/// can flush on window exhaustion.
class CoalescingLink final : public Link {
 public:
  /// `flusher`, when given, services this link's deadline timer.  `gate`,
  /// when given, triggers the credit-pressure flush.  `metrics`, when given,
  /// receives the batch_* counters and must outlive the link.
  CoalescingLink(std::shared_ptr<Link> inner, BatchingOptions options,
                 MetricsRegistry* metrics = nullptr,
                 std::shared_ptr<CreditGate> gate = nullptr,
                 std::shared_ptr<BatchFlusher> flusher = nullptr);

  bool send(const PacketPtr& packet) override;
  bool send_batch(std::span<const PacketPtr> packets) override;
  void close() override;

  /// Flush whatever is buffered now (counted as an eager flush).
  bool flush() override;

  /// Flush if the deadline has passed; returns the (re)armed deadline in
  /// now_ns() terms, or 0 when nothing is buffered.  BatchFlusher only.
  std::int64_t flush_due(std::int64_t now_ns);

 private:
  enum class FlushReason { kSize, kDeadline, kPressure, kEager };

  bool flush_locked(FlushReason reason);

  std::mutex mutex_;
  std::shared_ptr<Link> inner_;
  BatchingOptions options_;
  MetricsRegistry* metrics_;
  std::shared_ptr<CreditGate> gate_;
  // Weak on purpose: the flusher's service thread can hold the last
  // shared_ptr to a link mid-teardown, and a link holding the last strong
  // flusher reference would then run ~BatchFlusher — and join the service
  // thread — *on* the service thread.
  std::weak_ptr<BatchFlusher> flusher_;
  std::vector<PacketPtr> buffer_;
  std::size_t buffered_bytes_ = 0;
  std::int64_t deadline_ns_ = 0;  ///< 0 = nothing buffered
  bool closed_ = false;
};

/// One deadline-service thread per process: coalescing links register here,
/// and the thread sleeps until the earliest armed deadline, flushing links
/// that are due.  Needed because a back-end's sends happen on application
/// threads with no event loop to post timers on.  The thread starts lazily
/// on the first attach — create the flusher before forking, attach after.
class BatchFlusher : public std::enable_shared_from_this<BatchFlusher> {
 public:
  BatchFlusher() = default;
  ~BatchFlusher() { stop(); }

  BatchFlusher(const BatchFlusher&) = delete;
  BatchFlusher& operator=(const BatchFlusher&) = delete;

  /// Register a link for deadline service (weak: links may die first).
  void attach(const std::shared_ptr<CoalescingLink>& link);

  /// A link armed a deadline; wake the service thread if it is earlier than
  /// the current wake target.
  void note_armed(std::int64_t deadline_ns);

  /// Stop and join the service thread (idempotent; destructor calls it).
  void stop();

 private:
  void run(const std::stop_token& token);

  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::vector<std::weak_ptr<CoalescingLink>> links_;
  std::int64_t next_wake_ns_ = 0;  ///< 0 = nothing armed
  bool started_ = false;
  bool stopped_ = false;
  std::jthread thread_;
};

}  // namespace tbon
