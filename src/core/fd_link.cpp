#include "core/fd_link.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/coalesce.hpp"

namespace tbon {
namespace {

/// Sends packets as serialized frames on a file descriptor.  Thread-safe: a
/// back-end's application thread and its runtime share one.  Does not own
/// the fd; the pump keeps it open until its reader is done.
class FdLink final : public Link {
 public:
  /// `metrics`, when given, receives wire_bytes_out accounting (frame
  /// payload bytes actually written); it must outlive the link.
  FdLink(int fd, MetricsRegistry* metrics) : fd_(fd), metrics_(metrics) {}

  bool send(const PacketPtr& packet) override;
  /// Write all packets as one multi-packet batch frame (single syscall); the
  /// peer's reader delivers them as one batch envelope.
  bool send_batch(std::span<const PacketPtr> packets) override;
  void close() override;

 private:
  std::mutex mutex_;
  int fd_;
  MetricsRegistry* metrics_;
  bool closed_ = false;
};

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

/// A reader thread's whole life: frames from `fd` become envelopes until EOF
/// or a transport or decode error, then the EOF envelope.
void read_channel(int fd, const ChannelOptions& channel, MetricsRegistry* metrics) {
  try {
    FrameReader reader(fd);
    while (auto frame = reader.next()) {
      if (metrics != nullptr) {
        metrics->wire_bytes_in.fetch_add(frame->size(), std::memory_order_relaxed);
      }
      if (auto envelope = decode_channel_frame(std::move(*frame), channel, metrics)) {
        channel.inbox->push(std::move(*envelope));
      }
    }
  } catch (const std::exception& error) {
    TBON_DEBUG("fd reader stopping: " << error.what());
  }
  // EOF (orderly or not): tell the runtime the peer is gone.
  channel.inbox->push(Envelope{channel.origin, channel.slot, nullptr});
}

}  // namespace

void ReaderPump::open(Fd fd, ChannelOptions channel, const Install& install) {
  const int raw = fd.get();
  if (install) install(std::make_shared<FdLink>(raw, metrics_));
  std::lock_guard<std::mutex> lock(mutex_);
  fds_.push_back(std::move(fd));
  readers_.emplace_back([raw, channel = std::move(channel), metrics = metrics_] {
    read_channel(raw, channel, metrics);
  });
}

void ReaderPump::stop() {
  std::vector<std::jthread> readers;
  std::vector<Fd> fds;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    readers.swap(readers_);
    fds.swap(fds_);
  }
  readers.clear();  // join before the fds close under them
}

}  // namespace tbon
