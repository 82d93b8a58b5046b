// Links over OS file descriptors — the multi-process transport.
//
// Each tree edge is one full-duplex socketpair.  The sending half (FdLink)
// writes packets as length-prefixed frames — wire-backed packets (a relay
// hop) verbatim, owned ones as writev scatter-gather segments; the receiving
// half is a reader thread that decodes frames into packets aliasing the
// frame buffer and pushes envelopes into the owning node's inbox, so
// NodeRuntime is oblivious to the transport.  Kernel socket buffers provide
// the back-pressure that bounded queues provide in-process.
#pragma once

#include <mutex>
#include <thread>

#include "core/runtime.hpp"
#include "transport/fd.hpp"

namespace tbon {

/// Sends packets as serialized frames on a file descriptor.
/// Thread-safe: a back-end's application thread and its runtime share one.
class FdLink final : public Link {
 public:
  /// Does not own the fd; the owner keeps it open until links and readers
  /// are done.  `metrics`, when given, receives wire_bytes_out accounting
  /// (frame payload bytes actually written); it must outlive the link.
  explicit FdLink(int fd, MetricsRegistry* metrics = nullptr)
      : fd_(fd), metrics_(metrics) {}

  bool send(const PacketPtr& packet) override;
  /// Write all packets as one multi-packet batch frame (single syscall);
  /// the peer's reader delivers them as one batch envelope.
  bool send_batch(std::span<const PacketPtr> packets) override;
  void close() override;

 private:
  std::mutex mutex_;
  int fd_;
  MetricsRegistry* metrics_;
  bool closed_ = false;
};

/// Adapter giving several owners (a back-end handle and its runtime) one
/// shared, mutex-protected FdLink — two independent FdLinks on the same fd
/// could interleave partial frames.
class SharedLink final : public Link {
 public:
  explicit SharedLink(std::shared_ptr<Link> inner) : inner_(std::move(inner)) {}
  bool send(const PacketPtr& packet) override { return inner_->send(packet); }
  bool send_batch(std::span<const PacketPtr> packets) override {
    return inner_->send_batch(packets);
  }
  bool flush() override { return inner_->flush(); }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<Link> inner_;
};

class CreditGate;

/// Where a reader thread delivers in-band flow-control credit grants: the
/// gate guarding the *opposite* direction of the same fd (what this process
/// sends on it).  Applying grants on the reader thread — never the event
/// loop, which may itself be blocked on those credits — keeps the credit
/// control plane deadlock-free.  Grants with a mismatched channel id, or
/// malformed ones, are rejected and counted (fc_invalid_grants).
struct CreditSink {
  std::shared_ptr<CreditGate> gate;
  std::uint32_t channel_id = 0;
};

/// Start a reader thread: frames from `fd` become envelopes in `inbox`
/// tagged (origin, child_slot); EOF or a transport error becomes the null
/// EOF envelope.  `metrics`, when given, receives wire_bytes_in accounting
/// and must outlive the thread.  kTagCredit control frames are consumed
/// in-place against `credit_sink` (or dropped when no sink), never enqueued.
std::jthread start_fd_reader(int fd, InboxPtr inbox, Origin origin,
                             std::uint32_t child_slot,
                             MetricsRegistry* metrics = nullptr,
                             CreditSink credit_sink = {});

}  // namespace tbon
