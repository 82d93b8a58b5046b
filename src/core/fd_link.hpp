// Process mode's socket pump: one reader thread per socket.
//
// Each tree edge is one full-duplex socketpair (a re-adopted orphan's is a
// rendezvous TCP connection).  The sending half writes packets as
// length-prefixed frames from the sending thread — wire-backed packets (a
// relay hop) verbatim, owned ones as writev scatter-gather segments, each
// frame in one sendmsg; the receiving half is a reader thread that decodes
// frames with decode_channel_frame and pushes the envelopes into the node's
// inbox.  In steady state the reader makes one readv per frame: it reads
// each body together with the next frame's length prefix (FrameReader).
// Kernel socket buffers provide the back-pressure that bounded queues
// provide in-process.
#pragma once

#include <mutex>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/socket_pump.hpp"
#include "transport/fd.hpp"

namespace tbon {

/// Process mode's SocketPump.  Each socket gets a blocking reader thread,
/// so an interior node reads its child edges in parallel; its raw links
/// write in the sending thread, so a send that returned is in the kernel.
class ReaderPump final : public SocketPump {
 public:
  /// `metrics`, when given, receives the wire and decoder counters; it must
  /// outlive the pump.
  explicit ReaderPump(MetricsRegistry* metrics = nullptr) : metrics_(metrics) {}
  ~ReaderPump() override { stop(); }

  /// The raw link is thread-safe (a back-end's application thread and its
  /// runtime share one); the reader starts as soon as `install` returns.
  void open(Fd fd, ChannelOptions channel, const Install& install) override;
  /// Nothing to start: every reader starts in open().
  void start() override {}
  /// Nothing to drain: a send returns once its frame is in the kernel.
  bool drain(std::int64_t /*timeout_ms*/) override { return true; }
  /// Join every reader — each ends at its peer's EOF — and only then close
  /// the sockets they read.
  void stop() override;

 private:
  MetricsRegistry* metrics_;
  std::mutex mutex_;
  std::vector<Fd> fds_;
  std::vector<std::jthread> readers_;
};

}  // namespace tbon
