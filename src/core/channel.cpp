#include "core/channel.hpp"

#include <algorithm>

#include "core/node.hpp"
#include "core/protocol.hpp"
#include "transport/fd.hpp"

namespace tbon {

ChannelFactory::ChannelFactory(const FlowControlOptions& flow_control,
                               const BatchingOptions& batching)
    : flow_control_(flow_control),
      batching_(batching),
      flusher_(batching.enabled() ? std::make_shared<BatchFlusher>() : nullptr) {}

std::shared_ptr<CreditGate> ChannelFactory::make_gate(NodeRuntime& sender) const {
  if (!flow_control_.enabled) return nullptr;
  auto gate = std::make_shared<CreditGate>(flow_control_.window());
  if (flow_control_.policy == FlowControlPolicy::kDropOldest) {
    // Wake the sender's event loop (a no-op marker envelope) so its pending
    // rings are pumped right after a grant lands.  Only drop_oldest keeps
    // pending rings; under the other policies the wake-up would find nothing
    // to pump.  try_push: a full inbox is an awake inbox.
    gate->set_drain_hook([inbox = sender.inbox(), marker = make_attach_marker_packet()] {
      inbox->try_push(Envelope{Origin::kParent, 0, marker});
    });
  }
  return gate;
}

std::shared_ptr<Link> ChannelFactory::build(std::shared_ptr<Link> raw, NodeRuntime& sender,
                                            const std::shared_ptr<CreditGate>& gate,
                                            bool app_edge) const {
  MetricsRegistry* metrics = &sender.metrics();
  std::shared_ptr<Link> link = std::move(raw);
  if (batching_.enabled()) {
    // On a flow-controlled channel a batch holds at most one grant quantum.
    // The receiver returns credits a quantum at a time as it consumes, so a
    // frame as large as the whole window (the defaults: 64 credits, 64
    // packets) leaves its sender without credits until that frame has been
    // consumed and granted: stop-and-wait, one frame per credit round trip,
    // at a rate set by the round trip's thread wake-ups.  At one quantum the
    // sender fills its next frame while the previous one is being granted.
    BatchingOptions batching = batching_;
    if (gate != nullptr) {
      batching.max_packets(std::min<std::size_t>(batching.max_packets(),
                                                 flow_control_.grant_quantum()));
    }
    auto coalescer =
        std::make_shared<CoalescingLink>(std::move(link), batching, metrics, gate, flusher_);
    flusher_->attach(coalescer);
    link = std::move(coalescer);
  }
  if (gate == nullptr) return link;
  auto controlled = std::make_shared<FlowControlledLink>(
      std::move(link), gate, flow_control_, metrics, app_edge, sender.tenants());
  sender.register_fc_link(controlled);
  return controlled;
}

void ChannelFactory::set_granter(NodeRuntime& runtime, Origin origin, std::uint32_t slot,
                                 std::function<void(std::uint32_t)> granter) {
  if (origin == Origin::kParent) {
    runtime.set_parent_granter(std::move(granter));
  } else {
    runtime.set_child_granter(slot, std::move(granter));
  }
}

std::shared_ptr<Link> ChannelFactory::inproc(NodeRuntime& sender, NodeRuntime& receiver,
                                             Origin origin, std::uint32_t slot,
                                             bool app_edge) const {
  const auto gate = make_gate(sender);
  if (gate != nullptr) {
    set_granter(receiver, origin, slot, [gate](std::uint32_t n) { gate->grant(n); });
  }
  return build(std::make_shared<InprocLink>(receiver.inbox(), origin, slot), sender, gate,
               app_edge);
}

std::shared_ptr<CreditGate> ChannelFactory::socket_gate(
    int fd, NodeRuntime& sender, const std::shared_ptr<CreditGate>& reuse) const {
  if (!flow_control_.enabled) return nullptr;
  // Enough kernel buffer for one window of typical frames, clamped so the
  // defaults never shrink below what the zero-copy bulk path needs nor
  // balloon into an unaccounted queue.
  set_socket_buffers(fd, std::clamp<std::size_t>(std::size_t{flow_control_.window()} * 8192,
                                                 std::size_t{256} << 10,
                                                 std::size_t{4} << 20));
  if (reuse == nullptr) return make_gate(sender);
  reuse->reset();
  return reuse;
}

std::shared_ptr<Link> ChannelFactory::socket_stack(std::shared_ptr<Link> raw,
                                                   NodeRuntime& sender,
                                                   const std::shared_ptr<CreditGate>& gate,
                                                   bool app_edge) const {
  return build(std::move(raw), sender, gate, app_edge);
}

void ChannelFactory::grant_in_band(NodeRuntime& runtime, Origin origin, std::uint32_t slot,
                                   std::shared_ptr<Link> link) const {
  if (!flow_control_.enabled) return;
  set_granter(runtime, origin, slot, [link = std::move(link)](std::uint32_t n) {
    link->send(make_credit_packet(n));
  });
}

}  // namespace tbon
