// Runtime plumbing shared by the threaded and multi-process networks:
// envelopes (packet + origin), links (one direction of a FIFO channel) and
// per-node metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/queue.hpp"
#include "core/packet.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {

/// Where an envelope entered the node.
enum class Origin : std::uint8_t { kParent, kChild };

/// One unit of work in a node's inbox.  A null packet is the EOF marker:
/// the peer on that side closed its end of the channel (used for failure
/// detection and teardown) — unless `batch` is set, in which case the
/// envelope carries a coalesced multi-packet batch (packet stays null) and
/// must be checked before the EOF interpretation.
struct Envelope {
  Origin origin = Origin::kParent;
  /// Child slot when origin == kChild; the sender's parent-channel epoch
  /// when origin == kParent (re-adoption discards envelopes from a previous
  /// parent by comparing this against the receiver's current epoch).
  std::uint32_t child_slot = 0;
  PacketPtr packet;
  /// A coalesced batch delivered as one unit (one wire frame / one queue
  /// slot).  Never empty when set; never contains control or telemetry
  /// packets (the coalescer flushes around those).
  std::shared_ptr<const std::vector<PacketPtr>> batch;
};

using Inbox = BoundedQueue<Envelope>;
using InboxPtr = std::shared_ptr<Inbox>;

/// The sending half of one direction of a FIFO channel.
class Link {
 public:
  virtual ~Link() = default;

  /// Enqueue a packet; returns false when the peer is gone.
  virtual bool send(const PacketPtr& packet) = 0;

  /// Enqueue several packets, preserving order.  Transports that can encode
  /// a multi-packet wire frame override this (FdLink, NetLink, InprocLink);
  /// the default is semantically identical per-packet sends.  Returns false
  /// when any send failed (the peer is gone).
  virtual bool send_batch(std::span<const PacketPtr> packets) {
    bool ok = true;
    for (const PacketPtr& packet : packets) ok = send(packet) && ok;
    return ok;
  }

  /// Deliver anything buffered inside the link stack right now.  Most links
  /// transmit on send and have nothing to do; a coalescing link overrides
  /// this to emit its buffer.  Returns false when the peer is gone.
  virtual bool flush() { return true; }

  /// Signal EOF to the peer (idempotent).
  virtual void close() = 0;
};

/// Links are shared: a back-end handle and its leaf runtime send through one
/// stack, and a runtime keeps the stack its channel factory returned.
using LinkPtr = std::shared_ptr<Link>;

/// In-process link: pushes envelopes straight into the peer node's inbox.
/// Multicast through several InprocLinks shares one immutable Packet object
/// — the "counted packet references" / zero-copy path of the paper.
class InprocLink final : public Link {
 public:
  /// `origin`/`child_slot` describe how the *receiver* sees this link.
  InprocLink(InboxPtr target, Origin origin, std::uint32_t child_slot)
      : target_(std::move(target)), origin_(origin), child_slot_(child_slot) {}

  bool send(const PacketPtr& packet) override {
    return target_->push(Envelope{origin_, child_slot_, packet});
  }

  bool send_batch(std::span<const PacketPtr> packets) override {
    if (packets.empty()) return true;
    if (packets.size() == 1) return send(packets.front());
    auto batch = std::make_shared<const std::vector<PacketPtr>>(packets.begin(),
                                                                packets.end());
    return target_->push(Envelope{origin_, child_slot_, nullptr, std::move(batch)});
  }

  void close() override {
    if (!closed_.exchange(true)) {
      // EOF marker; a failed push means the peer is already gone.
      target_->push(Envelope{origin_, child_slot_, nullptr});
    }
  }

 private:
  InboxPtr target_;
  Origin origin_;
  std::uint32_t child_slot_;
  std::atomic<bool> closed_{false};
};

/// Counters maintained by every node; readable live (relaxed atomics).
/// Historically a six-field struct, now the full telemetry registry —
/// same update discipline, many more instruments.
using NodeMetrics = MetricsRegistry;

/// Plain-value snapshot of NodeMetrics (now the full telemetry record;
/// the original six fields kept their names).
using NodeMetricsSnapshot = NodeTelemetry;

}  // namespace tbon
