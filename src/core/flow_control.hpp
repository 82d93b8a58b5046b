// Credit-based flow control for tree channels.
//
// Every data-carrying channel direction gets a CreditGate holding a window
// of send credits.  The sender consumes one credit per application packet;
// the receiving NodeRuntime returns credits after consuming packets (in
// grant_quantum() chunks, so grants cost O(window) not O(packet)).  Threaded
// channels share the gate object and grant by direct call; socket channels
// return credits in-band with kTagCredit control frames that the sender's
// socket pump applies (never the possibly-blocked event-loop thread — this
// is what keeps the control plane deadlock-free).
//
// Control-stream and telemetry-stream packets are exempt: shutdown,
// heartbeats, credit grants themselves and metrics always flow, so a
// saturated data plane can never wedge the protocol that un-saturates it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/queue.hpp"
#include "core/protocol.hpp"
#include "core/runtime.hpp"
#include "core/tenant.hpp"

namespace tbon {

class MetricsRegistry;

/// What a sender does when the channel's credit window is exhausted.
enum class FlowControlPolicy : std::uint8_t {
  kBlock,       ///< wait for credits (bounded by block_timeout_ms, then shed)
  kDropOldest,  ///< queue in a bounded ring, evicting the oldest packet
  kFailFast,    ///< throw FlowControlError at application send sites
};

constexpr const char* to_string(FlowControlPolicy policy) noexcept {
  switch (policy) {
    case FlowControlPolicy::kBlock: return "block";
    case FlowControlPolicy::kDropOldest: return "drop_oldest";
    case FlowControlPolicy::kFailFast: return "fail_fast";
  }
  return "?";
}

/// Per-network flow-control configuration (NetworkOptions::flow_control).
struct FlowControlOptions {
  bool enabled = false;
  /// Credit window: max application packets in flight per channel direction.
  std::uint32_t capacity = 64;
  /// Receiver returns credits once consumption drops outstanding credit to
  /// this level (0 = auto: capacity / 2).
  std::uint32_t low_watermark = 0;
  FlowControlPolicy policy = FlowControlPolicy::kBlock;
  /// Upper bound on one blocked send (block policy); on expiry the packet is
  /// shed and counted rather than deadlocking the caller.
  int block_timeout_ms = 5000;

  /// The credit window a gate is created with (a capacity of 0 clamps to 1).
  std::uint32_t window() const noexcept { return capacity ? capacity : 1; }
  std::uint32_t effective_low() const noexcept {
    const std::uint32_t w = window();
    const std::uint32_t low = low_watermark ? low_watermark : w / 2;
    return low < w ? low : w - 1;
  }
  /// Credits returned per grant: enough to refill from the low watermark.
  std::uint32_t grant_quantum() const noexcept {
    const std::uint32_t q = window() - effective_low();
    return q ? q : 1;
  }
};

/// The credit window of one channel direction.  Shared between the sender
/// (acquires) and whoever applies grants for the receiver — the receiving
/// runtime itself (threaded) or the sender's socket pump (process, remote).
class CreditGate {
 public:
  /// kThrottled: credits remain in the window, but this request's tenant
  /// budget or priority cap blocks it (policy treats it like exhaustion,
  /// charged to the tenant instead of the channel).
  enum class Acquire : std::uint8_t { kOk, kExhausted, kClosed, kThrottled };

  /// Everything the gate needs to know about one send to enforce priority
  /// and tenant caps.  The default request is uncapped — byte-identical to
  /// pre-tenancy behavior.
  struct Request {
    Priority priority = Priority::kNormal;
    std::uint16_t tenant = TenantTable::kNoTenant;
    std::uint64_t bytes = 0;        ///< payload bytes this send puts in flight
    std::uint32_t max_credits = 0;  ///< tenant inflight-credit cap (0 = none)
    std::uint64_t max_bytes = 0;    ///< tenant inflight-byte cap (0 = none)
  };

  /// kBulk may hold at most window - max(1, window/4) credits: a bulk flood
  /// always leaves at least a quarter of the window (and never less than one
  /// credit) free for higher classes.  Other classes are uncapped, so
  /// single-class traffic sees the full window exactly as before tenancy.
  static std::uint32_t bulk_cap_for(std::uint32_t window) noexcept {
    const std::uint32_t reserve = window / 4 ? window / 4 : 1;
    return window > reserve ? window - reserve : 1;
  }

  explicit CreditGate(std::uint32_t window)
      : window_(window ? window : 1),
        available_(window_),
        bulk_cap_(bulk_cap_for(window_)) {}

  /// Consume one credit if available without blocking.
  Acquire try_acquire() { return try_acquire(Request{}); }
  Acquire try_acquire(const Request& request);

  /// Consume one credit, waiting up to `timeout_ns`; kExhausted on timeout.
  Acquire acquire_for(std::int64_t timeout_ns) {
    return acquire_for(timeout_ns, Request{});
  }
  Acquire acquire_for(std::int64_t timeout_ns, const Request& request);

  /// Return `n` credits (clamped to the window) and wake blocked senders;
  /// runs the drain hook, outside the lock, after the credits land.
  void grant(std::uint32_t n);

  /// Re-baseline to a full fresh window (orphan re-adoption: in-flight
  /// packets on the old edge are gone, and so are their credits).
  void reset();

  /// Wake all waiters and fail further acquires (channel teardown).
  void close();

  std::uint32_t available() const;
  std::uint32_t in_flight() const;
  /// High-water mark of in-flight credits over the gate's lifetime.
  std::uint32_t in_flight_peak() const;
  std::uint32_t window() const;
  bool closed() const;

  /// Hook run (without the gate lock held) after every grant; wired to wake
  /// the sender's event loop so pending drop_oldest rings flush promptly.
  void set_drain_hook(std::function<void()> hook);

 private:
  /// One credit in flight, remembered so grants (which arrive in consumption
  /// order == send order) can be charged back to the right tenant/priority.
  struct Hold {
    std::uint16_t tenant;
    std::uint8_t priority;
    std::uint64_t bytes;
  };
  struct Inflight {
    std::uint32_t credits = 0;
    std::uint64_t bytes = 0;
  };

  bool admissible_locked(const Request& request) const;
  Acquire acquire_locked(const Request& request);

  mutable std::mutex mutex_;
  std::condition_variable credits_;
  std::function<void()> drain_hook_;
  std::uint32_t window_;
  std::uint32_t available_;
  std::uint32_t bulk_cap_;
  std::uint32_t peak_ = 0;
  bool closed_ = false;
  std::deque<Hold> holds_;
  std::map<std::uint16_t, Inflight> tenant_inflight_;
  std::array<std::uint32_t, kNumPriorities> prio_inflight_{};
};

/// Link decorator enforcing a CreditGate on the data plane.  Control and
/// telemetry packets bypass both the gate and the wrapper lock entirely.
///
/// With drop_oldest, packets that find no credit wait in a bounded pending
/// ring flushed — oldest first, so FIFO order is preserved — before any
/// direct send, by pump() (called from the sender's event loop when the
/// drain hook wakes it), and at close().  Shed packets (ring evictions,
/// block timeouts, interior fail_fast) are counted in fc_packets_shed; a
/// shed send still returns true, exactly like an injector-muted send.
class FlowControlledLink final : public Link {
 public:
  /// `tenants`, when given, classifies packets by stream id so sends run
  /// under the owning tenant's budget and priority class, and charges the
  /// tenant's counters; without it every send is an uncapped kNormal —
  /// exactly the pre-tenancy behavior.
  FlowControlledLink(std::shared_ptr<Link> inner, std::shared_ptr<CreditGate> gate,
                     const FlowControlOptions& options, MetricsRegistry* metrics,
                     bool fail_fast_throws,
                     std::shared_ptr<TenantTable> tenants = nullptr);
  ~FlowControlledLink() override;

  bool send(const PacketPtr& packet) override;
  bool send_batch(std::span<const PacketPtr> packets) override;
  /// Retry pending packets against the window, then flush the inner link.
  bool flush() override;
  void close() override;

  /// Flush pending packets against newly granted credits; never blocks (a
  /// held wrapper lock — e.g. a sender inside acquire_for — skips the pump).
  void pump();

  const std::shared_ptr<CreditGate>& gate() const noexcept { return gate_; }

 private:
  /// Tenant/priority classification + gate request for one packet.
  struct SendClass {
    CreditGate::Request request;
    std::uint16_t tenant = TenantTable::kNoTenant;
  };

  SendClass classify(const Packet& packet) const;
  bool flush_pending_locked();
  bool send_with_credit_locked(const PacketPtr& packet, const SendClass& cls);
  bool send_unavailable_locked(const PacketPtr& packet, const SendClass& cls,
                               CreditGate::Acquire acquired);
  void push_pending_locked(const PacketPtr& packet, Priority priority);
  std::size_t drop_all_pending_locked();
  void count_shed(std::uint64_t n, std::uint16_t tenant = TenantTable::kNoTenant);

  std::shared_ptr<Link> inner_;
  std::shared_ptr<CreditGate> gate_;
  FlowControlOptions options_;
  MetricsRegistry* metrics_;
  bool fail_fast_throws_;
  std::shared_ptr<TenantTable> tenants_;

  std::mutex mutex_;  ///< serializes data-plane sends and the pending rings
  /// drop_oldest rings, one per priority class, flushed control-first and
  /// bounded to one window in total; eviction takes from the lowest-priority
  /// non-empty class so queued bulk dies before queued high.
  std::array<std::deque<PacketPtr>, kNumPriorities> pending_;
  std::size_t pending_count_ = 0;
  std::atomic<bool> has_pending_{false};
};

/// True for packets that bypass flow control (control stream, telemetry).
inline bool flow_control_exempt(const Packet& packet) noexcept {
  return packet.stream_id() == kControlStream ||
         packet.stream_id() == kTelemetryStream;
}

}  // namespace tbon
