#include "core/fd_link.hpp"

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/protocol.hpp"

namespace tbon {

bool FdLink::send(const PacketPtr& packet) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return false;
  try {
    // Wire-backed packets (a relay hop) go out as one verbatim segment;
    // owned packets writev header scratch + in-place payload segments.  The
    // packet stays alive across the call, which is what keeps the segment
    // list's external pointers valid.
    SegmentWriter writer;
    packet->serialize_segments(writer);
    write_frame_segments(fd_, writer.segments(), writer.size());
    if (metrics_ != nullptr) {
      metrics_->wire_bytes_out.fetch_add(writer.size(), std::memory_order_relaxed);
    }
    return true;
  } catch (const TransportError& error) {
    TBON_DEBUG("fd link send failed: " << error.what());
    closed_ = true;
    return false;
  }
}

bool FdLink::send_batch(std::span<const PacketPtr> packets) {
  if (packets.empty()) return true;
  // A one-packet batch gains nothing over the plain (zero-copy)
  // single-frame path, and keeps single sends byte-identical to the
  // pre-batching wire form.
  if (packets.size() == 1) return send(packets.front());
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return false;
  try {
    const Bytes frame = encode_batch_frame(packets);
    write_frame(fd_, frame);
    if (metrics_ != nullptr) {
      metrics_->wire_bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
    }
    return true;
  } catch (const TransportError& error) {
    TBON_DEBUG("fd link batch send failed: " << error.what());
    closed_ = true;
    return false;
  }
}

void FdLink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!closed_) {
    closed_ = true;
    shutdown_write(fd_);
  }
}

namespace {

/// Apply (or reject) an in-band credit grant on the reader thread.
void consume_credit_frame(const Packet& packet, const CreditSink& sink,
                          MetricsRegistry* metrics) {
  try {
    const std::uint32_t count = credit_packet_count(packet);
    const std::uint32_t channel = credit_packet_channel(packet);
    if (!sink.gate || channel != sink.channel_id) {
      throw CodecError("stale or unsinkable credit grant");
    }
    sink.gate->grant(count);
  } catch (const std::exception& error) {
    // Malformed, stale or unsinkable: count and drop.  Never let a hostile
    // grant frame tear down the reader (and with it the whole channel).
    TBON_DEBUG("rejecting credit grant: " << error.what());
    if (metrics != nullptr) {
      metrics->fc_invalid_grants.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace

std::jthread start_fd_reader(int fd, InboxPtr inbox, Origin origin,
                             std::uint32_t child_slot, MetricsRegistry* metrics,
                             CreditSink credit_sink) {
  return std::jthread([fd, inbox = std::move(inbox), origin, child_slot, metrics,
                       credit_sink = std::move(credit_sink)] {
    try {
      while (auto frame = read_frame(fd)) {
        if (metrics != nullptr) {
          metrics->wire_bytes_in.fetch_add(frame->size(), std::memory_order_relaxed);
        }
        if (is_batch_frame(*frame)) {
          std::vector<PacketPtr> packets;
          try {
            packets = decode_batch_frame(std::move(*frame));
          } catch (const CodecError& error) {
            // Frame boundaries are intact (length-prefixed stream), so a
            // malformed batch is dropped whole — no envelopes, no credits —
            // and the reader keeps going.
            TBON_DEBUG("dropping malformed batch frame: " << error.what());
            if (metrics != nullptr) {
              metrics->batch_frames_rejected.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          if (metrics != nullptr) {
            metrics->batch_frames_in.fetch_add(1, std::memory_order_relaxed);
            metrics->batch_packets_in.fetch_add(packets.size(),
                                                std::memory_order_relaxed);
          }
          inbox->push(Envelope{
              origin, child_slot, nullptr,
              std::make_shared<const std::vector<PacketPtr>>(std::move(packets))});
          continue;
        }
        // Promote the frame to a refcounted buffer and let the packet alias
        // it: no payload copy here, and none later if the packet is only
        // routed onward (the frame is relayed verbatim).
        auto buffer = std::make_shared<const Buffer>(std::move(*frame));
        const PacketPtr packet =
            Packet::deserialize_view(BufferView(buffer, 0, buffer->size()));
        if (packet->stream_id() == kControlStream && packet->tag() == kTagCredit) {
          consume_credit_frame(*packet, credit_sink, metrics);
          continue;
        }
        inbox->push(Envelope{origin, child_slot, packet});
      }
    } catch (const std::exception& error) {
      TBON_DEBUG("fd reader stopping: " << error.what());
    }
    // EOF (orderly or not): tell the runtime the peer is gone.
    inbox->push(Envelope{origin, child_slot, nullptr});
  });
}

}  // namespace tbon
