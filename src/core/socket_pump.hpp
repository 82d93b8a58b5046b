// The socket pump: the one mechanism the forked instantiations do not share.
//
// Process and remote mode fork one OS process per node and run the same
// node-process body (Network::run_node), the same orphan adopter and the
// same frame decoder on top of a pump.  Only the pump moves bytes between
// the node's sockets and its runtime, and the instantiation picks it:
//  * process mode: ReaderPump (core/fd_link.hpp), one blocking reader thread
//    per socket and links that write from the sending thread;
//  * remote mode: net::EventLoop (net/event_loop.hpp), every socket of the
//    process on one epoll thread and links that enqueue onto it.
// Both decode frames with decode_channel_frame, so NodeRuntime cannot tell
// the transports apart.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/buffer.hpp"
#include "core/runtime.hpp"
#include "transport/fd.hpp"

namespace tbon {

class CreditGate;

/// Where a pump applies the in-band flow-control credit grants (kTagCredit
/// frames) arriving on a socket: the gate guarding the *opposite* direction
/// of the same socket (what this process sends on it).  The pump applies
/// them on its own thread — never the runtime's event loop, which may itself
/// be blocked on those credits — which keeps the credit control plane
/// deadlock-free.
struct CreditSink {
  std::shared_ptr<CreditGate> gate;
  std::uint32_t channel_id = 0;
};

/// Where a socket channel's frames go.
struct ChannelOptions {
  InboxPtr inbox;
  Origin origin = Origin::kChild;
  /// Child slot (Origin::kChild) or parent-channel epoch (Origin::kParent).
  std::uint32_t slot = 0;
  /// Gate credited by in-band kTagCredit grants arriving on this socket.
  CreditSink credits;
};

/// Decode one frame read from a channel socket.  A batch frame becomes one
/// batch envelope; a credit grant is applied to `channel.credits`; anything
/// else becomes a packet envelope aliasing the frame (no payload copy).
/// Returns nullopt when the frame yields no envelope:
///  * a grant — a grant never becomes an envelope; a malformed, stale (wrong
///    channel id) or unsinkable one is dropped and counted in
///    fc_invalid_grants;
///  * a malformed batch — frame boundaries are intact, so it is dropped
///    whole (no envelopes, no credits) and counted in batch_frames_rejected.
/// Throws for an undecodable packet frame, which costs the channel.
/// `metrics` may be null.
std::optional<Envelope> decode_channel_frame(Bytes frame, const ChannelOptions& channel,
                                             MetricsRegistry* metrics);

/// Moves frames between one node process's sockets and its runtime.
class SocketPump {
 public:
  using Install = std::function<void(std::shared_ptr<Link>)>;

  SocketPump() = default;
  virtual ~SocketPump() = default;
  SocketPump(const SocketPump&) = delete;
  SocketPump& operator=(const SocketPump&) = delete;

  /// Take ownership of connected socket `fd` as a packet-plane channel: hand
  /// its raw send link to `install` (which may be empty when nothing sends
  /// on the channel), and only then start reading.  Whatever `install`
  /// queues (an adoption or wiring marker) therefore precedes the peer's
  /// first frame.  EOF or a transport error reaches the inbox as one null
  /// EOF envelope.  Callable from any thread, before or after start().
  virtual void open(Fd fd, ChannelOptions channel, const Install& install) = 0;

  /// Begin moving bytes on the channels opened so far (and any opened later).
  virtual void start() = 0;

  /// Block until every accepted send has been handed to the kernel, or
  /// `timeout_ms` elapses (false).  Call before stop() on an exiting node:
  /// its last frames (final telemetry record, shutdown ack) must not be
  /// dropped by the teardown.
  virtual bool drain(std::int64_t timeout_ms) = 0;

  /// Stop moving bytes and release every socket (idempotent).
  virtual void stop() = 0;
};

}  // namespace tbon
