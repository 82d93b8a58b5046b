#include "core/coalesce.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/archive.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/flow_control.hpp"
#include "core/packet.hpp"
#include "core/protocol.hpp"

namespace tbon {

void BatchingOptions::serialize(BinaryWriter& writer) const {
  writer.put(static_cast<std::uint8_t>(enabled_ ? 1 : 0));
  writer.put(static_cast<std::uint64_t>(max_bytes_));
  writer.put(static_cast<std::uint64_t>(max_packets_));
  writer.put(static_cast<std::int64_t>(max_delay_ns_));
  writer.put(static_cast<std::uint8_t>(adaptive_ ? 1 : 0));
  writer.put(static_cast<std::uint64_t>(adaptive_cutoff_));
}

BatchingOptions BatchingOptions::deserialize(BinaryReader& reader) {
  BatchingOptions o;
  o.enabled_ = reader.get<std::uint8_t>() != 0;
  o.max_bytes_ = static_cast<std::size_t>(reader.get<std::uint64_t>());
  o.max_packets_ = static_cast<std::size_t>(reader.get<std::uint64_t>());
  o.max_delay_ns_ = reader.get<std::int64_t>();
  o.adaptive_ = reader.get<std::uint8_t>() != 0;
  o.adaptive_cutoff_ = static_cast<std::size_t>(reader.get<std::uint64_t>());
  return o;
}

// ---- batch wire frame -------------------------------------------------------

bool is_batch_frame(std::span<const std::byte> frame) noexcept {
  if (frame.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t head = 0;
  std::memcpy(&head, frame.data(), sizeof(head));
  return head == kBatchMarker;
}

namespace {

constexpr std::size_t kU32 = sizeof(std::uint32_t);

/// Bytes to reserve for a packet's wire form.  Exact for a wire-backed
/// packet.  For an owned one: stream id, tag, source rank, the prefixed
/// format string, the payload and a u32 prefix per field, which is 4 bytes
/// over per scalar field and short only of a string vector's per-string
/// prefixes.
std::size_t wire_size_estimate(const Packet& packet) {
  if (packet.has_wire()) return packet.wire().size();
  return 4 * kU32 + packet.format().to_string().size() + kU32 * packet.arity() +
         packet.payload_bytes();
}

}  // namespace

Bytes encode_batch_frame(std::span<const PacketPtr> packets) {
  std::size_t estimate = 2 * kU32;
  for (const PacketPtr& packet : packets) estimate += kU32 + wire_size_estimate(*packet);
  BinaryWriter writer;
  writer.reserve(estimate);
  writer.put(kBatchMarker);
  writer.put(static_cast<std::uint32_t>(packets.size()));
  for (const PacketPtr& packet : packets) {
    // Serialize in place, then patch the entry's length prefix.
    const std::size_t prefix = writer.size();
    writer.put(std::uint32_t{0});
    packet->serialize(writer);
    writer.patch(prefix, static_cast<std::uint32_t>(writer.size() - prefix - kU32));
  }
  return writer.take();
}

std::vector<PacketPtr> decode_batch_frame(Bytes frame) {
  const auto buffer = std::make_shared<const Buffer>(std::move(frame));
  BinaryReader reader(buffer->span());
  if (reader.get<std::uint32_t>() != kBatchMarker) {
    throw CodecError("not a batch frame");
  }
  const auto count = reader.get<std::uint32_t>();
  if (count == 0) throw CodecError("batch frame with zero packets");
  if (count > kMaxBatchPackets) {
    throw CodecError("batch frame count " + std::to_string(count) + " exceeds cap");
  }
  std::vector<PacketPtr> packets;
  packets.reserve(std::min<std::size_t>(count, reader.remaining() / 12 + 1));
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto length = reader.get<std::uint32_t>();
    const std::size_t offset = reader.position();
    reader.skip(length);  // throws CodecError when truncated
    PacketPtr packet = Packet::deserialize_view(BufferView(buffer, offset, length));
    // deserialize_view trims trailing bytes; a trimmed packet means the
    // declared length and the packet's wire form disagree.
    if (packet->wire().size() != length) {
      throw CodecError("batch entry length mismatch");
    }
    // Control and telemetry never ride in batches (the coalescer flushes
    // around them); in particular a credit grant smuggled into a batch must
    // not reach a CreditSink.
    if (packet->stream_id() == kControlStream ||
        packet->stream_id() == kTelemetryStream) {
      throw CodecError("control packet inside batch frame");
    }
    packets.push_back(std::move(packet));
  }
  if (!reader.exhausted()) throw CodecError("trailing bytes after batch frame");
  return packets;
}

// ---- coalescer --------------------------------------------------------------

CoalescingLink::CoalescingLink(std::shared_ptr<Link> inner, BatchingOptions options,
                               MetricsRegistry* metrics,
                               std::shared_ptr<CreditGate> gate,
                               std::shared_ptr<BatchFlusher> flusher)
    : inner_(std::move(inner)),
      options_(options),
      metrics_(metrics),
      gate_(std::move(gate)),
      flusher_(std::move(flusher)) {}

bool CoalescingLink::send(const PacketPtr& packet) {
  return send_batch({&packet, 1});
}

bool CoalescingLink::send_batch(std::span<const PacketPtr> packets) {
  if (packets.empty()) return true;
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return false;
  bool ok = true;
  for (const PacketPtr& packet : packets) {
    const bool bypass =
        flow_control_exempt(*packet) ||
        (options_.adaptive() && packet->payload_bytes() >= options_.adaptive_cutoff());
    if (bypass) {
      // Flush first so the bypassing packet does not overtake buffered ones.
      ok = flush_locked(FlushReason::kEager) && ok;
      ok = inner_->send(packet) && ok;
      continue;
    }
    buffer_.push_back(packet);
    buffered_bytes_ += packet->payload_bytes();
    if (buffer_.size() >= options_.max_packets() ||
        buffered_bytes_ >= options_.max_bytes() || options_.max_delay_ns() == 0) {
      ok = flush_locked(FlushReason::kSize) && ok;
    }
  }
  // Checked once per call, not per packet: FlowControlledLink hands a run
  // over only once the run has drained the window, so every packet of it
  // would see an empty window and leave as its own frame.  Each packet here
  // already holds its credit; with the window empty, everything buffered
  // must reach the receiver or it can never be consumed and granted against.
  if (gate_ != nullptr && !buffer_.empty() && gate_->available() == 0) {
    ok = flush_locked(FlushReason::kPressure) && ok;
  }
  bool newly_armed = false;
  if (!buffer_.empty() && deadline_ns_ == 0) {
    deadline_ns_ = now_ns() + options_.max_delay_ns();
    newly_armed = true;
  }
  const std::int64_t deadline = deadline_ns_;
  const auto flusher = flusher_.lock();
  lock.unlock();
  if (newly_armed && flusher != nullptr) flusher->note_armed(deadline);
  return ok;
}

void CoalescingLink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  flush_locked(FlushReason::kEager);
  closed_ = true;
  inner_->close();
}

bool CoalescingLink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return false;
  return flush_locked(FlushReason::kEager);
}

std::int64_t CoalescingLink::flush_due(std::int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (deadline_ns_ != 0 && now_ns >= deadline_ns_) {
    flush_locked(FlushReason::kDeadline);
  }
  return deadline_ns_;
}

bool CoalescingLink::flush_locked(FlushReason reason) {
  deadline_ns_ = 0;
  if (buffer_.empty()) return true;
  std::vector<PacketPtr> out;
  out.swap(buffer_);
  buffered_bytes_ = 0;
  if (metrics_ != nullptr) {
    metrics_->observe_batch_flush(out.size());
    MetricsRegistry::Counter* cause = nullptr;
    switch (reason) {
      case FlushReason::kSize: cause = &metrics_->batch_flush_size; break;
      case FlushReason::kDeadline: cause = &metrics_->batch_flush_deadline; break;
      case FlushReason::kPressure: cause = &metrics_->batch_flush_pressure; break;
      case FlushReason::kEager: cause = &metrics_->batch_flush_eager; break;
    }
    cause->fetch_add(1, std::memory_order_relaxed);
  }
  return inner_->send_batch(out);
}

// ---- deadline service -------------------------------------------------------

void BatchFlusher::attach(const std::shared_ptr<CoalescingLink>& link) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return;
  links_.push_back(link);
  if (!started_) {
    started_ = true;
    thread_ = std::jthread([this](const std::stop_token& token) { run(token); });
  }
}

void BatchFlusher::note_armed(std::int64_t deadline_ns) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (next_wake_ns_ != 0 && next_wake_ns_ <= deadline_ns) return;
    next_wake_ns_ = deadline_ns;
  }
  cv_.notify_all();
}

void BatchFlusher::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (thread_.joinable()) {
    thread_.request_stop();
    cv_.notify_all();
    thread_.join();
  }
}

void BatchFlusher::run(const std::stop_token& token) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!token.stop_requested() && !stopped_) {
    if (next_wake_ns_ == 0) {
      cv_.wait(lock, [&] {
        return stopped_ || token.stop_requested() || next_wake_ns_ != 0;
      });
      continue;
    }
    const std::int64_t now = now_ns();
    if (next_wake_ns_ > now) {
      cv_.wait_for(lock, std::chrono::nanoseconds(next_wake_ns_ - now));
      continue;
    }
    next_wake_ns_ = 0;
    const auto links = links_;  // service outside the lock: flushes may block
    lock.unlock();
    std::int64_t earliest = 0;
    bool any_dead = false;
    const std::int64_t service_now = now_ns();
    for (const auto& weak : links) {
      const auto link = weak.lock();
      if (link == nullptr) {
        any_dead = true;
        continue;
      }
      const std::int64_t due = link->flush_due(service_now);
      if (due != 0 && (earliest == 0 || due < earliest)) earliest = due;
    }
    lock.lock();
    if (any_dead) {
      std::erase_if(links_, [](const auto& weak) { return weak.expired(); });
    }
    if (earliest != 0 && (next_wake_ns_ == 0 || earliest < next_wake_ns_)) {
      next_wake_ns_ = earliest;
    }
  }
}

}  // namespace tbon
