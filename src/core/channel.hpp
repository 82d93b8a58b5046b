// The channel stack: how every tree channel is built, in all three
// instantiations.
//
// A tree edge is a pair of FIFO channels (paper §2.1), one per direction.
// Whatever carries a direction — an in-process inbox queue (threaded), or a
// socket moved by the node process's socket pump (process and remote; see
// core/socket_pump.hpp) — and whenever the edge was made — start-up, dynamic
// attach, re-adoption after a failure, planned re-home — its sender sends
// through the same decorator stack:
//
//     FlowControlledLink( CoalescingLink( raw ) )   + the direction's CreditGate
//
// ChannelFactory is the only code that assembles it, so no wiring site can
// drift from it.  It owns:
//  * the decorator order: every data packet takes its credit before it is
//    buffered, and the coalescer holds the gate so an exhausted window forces
//    a flush;
//  * which layers exist: flow control and batching come from the network's
//    options alone — there is no per-edge switch;
//  * the batch cap of a flow-controlled stack: at most one grant quantum, so
//    a sender fills its next frame while the receiver grants the last one;
//  * the gate and its drain hook (a grant wakes the sender's event loop so
//    drop_oldest rings are pumped), and registering the stack with the sender
//    runtime that pumps it;
//  * kernel socket-buffer sizing on fd and TCP edges;
//  * how the receiver returns credits: a direct call into the shared gate
//    when both ends share an address space, an in-band kTagCredit frame on
//    the socket otherwise (the sender's pump applies it to the gate).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/runtime.hpp"
#include "core/tenant.hpp"

namespace tbon {

class NodeRuntime;

/// Builds the channel stacks of one process: a network's front-end side, or
/// one node process.  Cheap to copy; copies share the deadline flusher.
///
/// Throughout, `origin`/`slot` describe the channel as the *receiving*
/// runtime sees it (Origin::kChild + child slot, or Origin::kParent + the
/// parent-channel epoch), and `app_edge` marks the edge application threads
/// send on: there the fail_fast policy throws FlowControlError at the caller,
/// elsewhere it sheds and counts.
class ChannelFactory {
 public:
  /// Flow control and batching off: every stack is its raw link.
  ChannelFactory() = default;

  /// With batching on, owns this process's deadline flusher.  Its thread
  /// starts with the first stack built, so a factory made before fork() is
  /// safe as long as it builds nothing until after.
  ChannelFactory(const FlowControlOptions& flow_control, const BatchingOptions& batching);

  /// The credit window both ends of a remote link handshake on; 0 = off.
  std::uint32_t credit_window() const noexcept {
    return flow_control_.enabled ? flow_control_.window() : 0;
  }

  /// The flow-control options every stack this factory builds runs under.
  const FlowControlOptions& flow_control() const noexcept { return flow_control_; }

  /// A channel in this process from runtime `sender` into `receiver`'s
  /// inbox.  Installs the receiver's granter: a direct call into the gate.
  std::shared_ptr<Link> inproc(NodeRuntime& sender, NodeRuntime& receiver,
                               Origin origin, std::uint32_t slot,
                               bool app_edge = false) const;

  /// The gate of a socket channel `sender` sends on, made before the raw
  /// link: the peer's grant frames arrive on the same socket, and the pump
  /// that applies them (CreditSink) needs the gate first.  Sizes the socket's kernel buffers for one window.  `reuse`
  /// re-baselines an existing gate to a full window instead (an orphan's new
  /// parent edge: its back-end handle may be parked on that gate mid-send).
  /// Null when flow control is off.
  std::shared_ptr<CreditGate> socket_gate(
      int fd, NodeRuntime& sender,
      const std::shared_ptr<CreditGate>& reuse = nullptr) const;

  /// The stack over a socket channel's raw link (the one its pump's open()
  /// hands out).
  std::shared_ptr<Link> socket_stack(std::shared_ptr<Link> raw, NodeRuntime& sender,
                                     const std::shared_ptr<CreditGate>& gate,
                                     bool app_edge = false) const;

  /// Install `runtime`'s granter for what it consumes from socket channel
  /// (origin, slot): kTagCredit frames sent on `link`.  The frame is exempt
  /// control traffic, so it passes any wrapper unimpeded and never blocks
  /// the granting thread.
  void grant_in_band(NodeRuntime& runtime, Origin origin, std::uint32_t slot,
                     std::shared_ptr<Link> link) const;

 private:
  std::shared_ptr<CreditGate> make_gate(NodeRuntime& sender) const;
  std::shared_ptr<Link> build(std::shared_ptr<Link> raw, NodeRuntime& sender,
                              const std::shared_ptr<CreditGate>& gate,
                              bool app_edge) const;
  static void set_granter(NodeRuntime& runtime, Origin origin, std::uint32_t slot,
                          std::function<void(std::uint32_t)> granter);

  FlowControlOptions flow_control_;
  BatchingOptions batching_;
  std::shared_ptr<BatchFlusher> flusher_;
};

}  // namespace tbon
