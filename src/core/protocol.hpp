// Control protocol and stream specifications.
//
// Control messages are ordinary packets on the reserved control stream
// (stream id 0), distinguished by tag.  This mirrors MRNet, where network
// management rides the same FIFO channels as application data — which is
// what guarantees, for example, that a NEW_STREAM notification reaches a
// back-end before any data packet on that stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/filter_params.hpp"
#include "core/packet.hpp"
#include "core/tenant.hpp"

namespace tbon {

/// Control packet tags (application tags must be >= kFirstAppTag).
enum ControlTag : std::int32_t {
  kTagNewStream = 1,
  kTagDeleteStream = 2,
  kTagShutdown = 3,
  kTagShutdownAck = 4,
  kTagLoadFilter = 5,
  /// Back-end to back-end message routed through the tree (paper §2.1:
  /// "using the internal process-tree to route back-end to back-end
  /// messages").  Payload: "i64 bytes" = (destination rank, serialized
  /// application packet).
  kTagPeerMessage = 6,
  /// In-process marker waking a node to wire pending dynamic children
  /// (threaded instantiation only; carries no payload).
  kTagAttachChild = 7,
  /// Liveness probe sent on an idle channel (recovery subsystem); consumed
  /// by the receiving node, never forwarded, carries no payload.
  kTagHeartbeat = 8,
  /// Targeted failure injection: the node whose id matches the "i64"
  /// payload crashes abruptly (no shutdown handshake); everyone else
  /// forwards the packet down the tree.
  kTagDie = 9,
  /// Metrics snapshot riding the reserved telemetry stream (not stream 0):
  /// payload "bytes" = serialize_records() of one or more NodeTelemetry
  /// records, merged on the way up by the `metrics_merge` built-in filter.
  kTagTelemetry = 10,
  /// Flow-control credit grant: the receiver of a channel returns `count`
  /// send credits to the channel's sender (process and remote mode; threaded
  /// channels grant through a shared CreditGate instead).  Payload: "i64
  /// i64" = (count, channel id).  Consumed by the sender's socket pump, never
  /// enqueued or forwarded.
  kTagCredit = 11,
  /// Topic subscription: src_rank is the subscribing back-end rank (or
  /// kFrontEndRank for the front-end), payload "str" = topic prefix.  Each
  /// node on the path records (prefix -> rank) and forwards the frame to its
  /// parent, so every ancestor of a subscriber knows to route matching topic
  /// streams down that subtree.  Never forwarded downward.
  kTagSubscribe = 12,
  /// Subscription withdrawal; same shape as kTagSubscribe.
  kTagUnsubscribe = 13,
  /// Planned back-end departure (reconfiguration subsystem,
  /// src/core/reconfig.hpp).  Payload "i64 i64" = (op id, target rank);
  /// routed down the tree via rank routes.  The target leaf acknowledges
  /// with kTagReconfigAck and exits cleanly; its parent treats the ack like
  /// a planned EOF (membership compensation, no re-adoption).
  kTagDetach = 14,
  /// Phase one of a planned subtree move.  Payload "i64 i64 i64" =
  /// (op id, target node, via rank); `via rank` is any back-end rank in the
  /// target's subtree, used to route the frame since interior nodes have no
  /// rank of their own.  The target parks its upstream (buffering emissions)
  /// and acknowledges; the ack's first hop doubles as the planned-departure
  /// signal at the old parent.
  kTagQuiesce = 15,
  /// Phase two: re-home the quiesced subtree.  Payload "i64 i64 i64 i64" =
  /// (op id, target node, new parent, via rank).  Routed like kTagQuiesce
  /// but allowed to cross the membership-removed edge at the old parent.
  kTagRehome = 16,
  /// Reconfiguration acknowledgement flowing up to the root.  Payload
  /// "i64 i64 i64" = (op id, subject node, kind: ReconfigAckKind).  The
  /// first hop of a detach/quiesce ack applies the planned removal at the
  /// parent, then forwards the ack rewritten as kForwarded.
  kTagReconfigAck = 17,

  /// Upstream structural notification: the sender's subtree lost its last
  /// contributing back-end (payload 0) or regained its first (payload 1)
  /// through planned reconfiguration or failure.  The parent retires or
  /// revives the child's slot in every stream's wave sync without touching
  /// the link, so wait_for_all never stalls on an emptied relay interior.
  kTagMembership = 18,
};

/// Discriminator carried by kTagReconfigAck frames.
enum class ReconfigAckKind : std::uint8_t {
  kDetach = 0,     ///< first hop: planned leaf departure at this parent
  kQuiesce = 1,    ///< first hop: subtree quiesced; detach it from this parent
  kRehome = 2,     ///< subtree re-wired under its new parent
  kForwarded = 3,  ///< already applied below; relay to the root untouched
};

/// Reserved stream carrying in-band telemetry (auto-created when
/// TelemetryOptions::enabled); far above any application stream id.
inline constexpr std::uint32_t kTelemetryStream = 0xFFFFFFFEu;

/// First u32 of a multi-packet (batch) wire frame.  A packet frame starts
/// with its stream id, and no stream is ever allocated this value, so one
/// 4-byte peek tells a reader which decoder to use (see core/coalesce.hpp).
inline constexpr std::uint32_t kBatchMarker = 0xFFFFFFFDu;

/// First tag value available to applications.
inline constexpr std::int32_t kFirstAppTag = 100;

/// Everything a node needs to know to participate in a stream.
///
/// Also the typed builder handed to FrontEnd::open_stream — start from the
/// topic() factory (or designated initializers) and chain:
///
///   network->front_end().open_stream(StreamSpec::topic("/app/metrics")
///                                        .priority(Priority::kHigh)
///                                        .tenant("acme")
///                                        .up("sum"));
///
/// It stays an aggregate on purpose: pre-redesign call sites using
/// designated initializers (`.up_transform = "sum"`) keep compiling.
struct StreamSpec {
  std::uint32_t id = 0;
  /// Participating back-end ranks, sorted.  Empty means "all back-ends".
  std::vector<std::uint32_t> endpoints;
  std::string up_transform = "passthrough";
  std::string up_sync = "wait_for_all";
  std::string down_transform = "passthrough";
  /// Space-separated key=value parameters made available to filters.
  std::string params;
  /// Topic path ("/app/metrics").  Empty = untopiced: downstream packets are
  /// broadcast to all participants exactly as before topics existed.  A
  /// topiced stream's downstream packets reach only subtrees with a matching
  /// prefix subscription.
  std::string topic_path;
  /// Drain-order class; clamped to the tenant's priority ceiling at open.
  Priority priority_class = Priority::kNormal;
  /// Owning tenant ("" = untenanted: exempt from tenant budgets).
  std::string tenant_name;
  /// Tenant budget, resolved from NetworkOptions::tenancy by open_stream and
  /// carried on the wire so every node enforces the same caps.
  double tenant_credit_share = 1.0;
  std::uint64_t tenant_max_inflight_bytes = 0;
  Priority tenant_priority_ceiling = Priority::kHigh;

  /// Builder entry point: a spec publishing under `path`.
  static StreamSpec topic(std::string path) {
    StreamSpec spec;
    spec.topic_path = std::move(path);
    return spec;
  }

  StreamSpec& priority(Priority p) {
    priority_class = p == Priority::kControl ? Priority::kHigh : p;
    return *this;
  }
  StreamSpec& tenant(std::string name) {
    tenant_name = std::move(name);
    return *this;
  }
  StreamSpec& up(std::string transform) {
    up_transform = std::move(transform);
    return *this;
  }
  StreamSpec& sync(std::string policy) {
    up_sync = std::move(policy);
    return *this;
  }
  StreamSpec& down(std::string transform) {
    down_transform = std::move(transform);
    return *this;
  }
  StreamSpec& to(std::vector<std::uint32_t> ranks) {
    endpoints = std::move(ranks);
    return *this;
  }
  StreamSpec& with_params(const FilterParams& p) {
    params = p.to_wire();
    return *this;
  }

  /// The tenant budget carried by this spec, as a TenantOptions.
  TenantOptions tenant_budget() const {
    return TenantOptions()
        .credit_share(tenant_credit_share)
        .max_inflight_bytes(tenant_max_inflight_bytes)
        .priority_ceiling(tenant_priority_ceiling);
  }

  /// True when back-end `rank` participates.
  bool contains(std::uint32_t rank) const noexcept {
    if (endpoints.empty()) return true;
    for (const std::uint32_t e : endpoints) {
      if (e == rank) return true;
    }
    return false;
  }

  Config parsed_params() const {
    Config config;
    std::size_t pos = 0;
    while (pos < params.size()) {
      auto end = params.find(' ', pos);
      if (end == std::string::npos) end = params.size();
      config.add(std::string_view(params).substr(pos, end - pos));
      pos = end + 1;
    }
    return config;
  }

  /// Encode as a control packet on the control stream.
  PacketPtr to_packet() const;
  static StreamSpec from_packet(const Packet& packet);

  friend bool operator==(const StreamSpec&, const StreamSpec&) = default;
};

/// Build the simple control packets.
PacketPtr make_shutdown_packet();
PacketPtr make_shutdown_ack_packet();
PacketPtr make_delete_stream_packet(std::uint32_t stream_id);
PacketPtr make_load_filter_packet(const std::string& library_path);
PacketPtr make_attach_marker_packet();
PacketPtr make_heartbeat_packet();
PacketPtr make_die_packet(std::uint32_t target_node);

/// Wrap serialized NodeTelemetry records (see src/telemetry/metrics.hpp)
/// for the reserved telemetry stream.  `src` is the publishing node's id.
/// The view is adopted, not copied.
PacketPtr make_telemetry_packet(std::uint32_t src, BufferView records);

/// The serialized records carried by a telemetry packet (aliases the
/// packet's buffer; no copy).
const BufferView& telemetry_packet_records(const Packet& packet);

/// Node targeted by a kTagDie packet.
std::uint32_t die_packet_target(const Packet& packet);

/// Largest credit count a grant may carry; larger (or zero, or negative)
/// counts are rejected as malformed.
inline constexpr std::uint32_t kMaxCreditGrant = 1u << 20;

/// Build a credit grant returning `count` credits on channel `channel_id`
/// (ids disambiguate grants across re-adoption epochs; 0 for static edges).
PacketPtr make_credit_packet(std::uint32_t count, std::uint32_t channel_id = 0);

/// Validated accessors for credit grants; throw CodecError when the payload
/// is truncated or the count is outside [1, kMaxCreditGrant] — a zero or
/// overflowing window must never silently reach a CreditGate.
std::uint32_t credit_packet_count(const Packet& packet);
std::uint32_t credit_packet_channel(const Packet& packet);

/// Build a topic (un)subscription frame for `prefix`, attributed to
/// subscriber `rank` (kFrontEndRank for the front-end).
PacketPtr make_subscribe_packet(std::uint32_t rank, const std::string& prefix,
                                bool subscribe = true);

/// The topic prefix carried by a kTagSubscribe / kTagUnsubscribe frame;
/// throws CodecError when the payload is malformed (hostile frames must not
/// escape a reader thread as std::out_of_range).
std::string subscribe_packet_prefix(const Packet& packet);

/// True when `topic` falls under subscription `prefix` (plain string-prefix
/// match: "/app" covers "/app/metrics"; "" covers everything).
inline bool topic_matches(const std::string& prefix,
                          const std::string& topic) noexcept {
  return topic.compare(0, prefix.size(), prefix) == 0;
}

/// Build the reconfiguration-protocol frames (kTagDetach / kTagQuiesce /
/// kTagRehome / kTagReconfigAck; see src/core/reconfig.hpp).
PacketPtr make_detach_packet(std::int64_t op_id, std::uint32_t target_rank);
PacketPtr make_quiesce_packet(std::int64_t op_id, std::uint32_t target_node,
                              std::uint32_t via_rank);
PacketPtr make_rehome_packet(std::int64_t op_id, std::uint32_t target_node,
                             std::uint32_t new_parent, std::uint32_t via_rank);
PacketPtr make_reconfig_ack_packet(std::int64_t op_id, std::uint32_t subject,
                                   ReconfigAckKind kind);

/// kTagMembership frame: `live` false retires the sender's child slot from
/// every stream's wave sync at the parent, true revives it.
PacketPtr make_membership_packet(bool live);
bool membership_packet_live(const Packet& packet);

/// Validated accessors for the reconfiguration frames; throw CodecError on
/// truncated or mistyped payloads (these cross process boundaries).
std::int64_t reconfig_op_id(const Packet& packet);
std::uint32_t reconfig_target(const Packet& packet);      ///< rank (detach) / node
std::uint32_t quiesce_via_rank(const Packet& packet);     ///< field 2
std::uint32_t rehome_new_parent(const Packet& packet);    ///< field 2
std::uint32_t rehome_via_rank(const Packet& packet);      ///< field 3
std::uint32_t reconfig_ack_subject(const Packet& packet);
ReconfigAckKind reconfig_ack_kind(const Packet& packet);

/// Wrap an application packet for tree routing to back-end `dst_rank`.
PacketPtr make_peer_packet(std::uint32_t dst_rank, const Packet& inner);

/// Destination rank of a peer message.
std::uint32_t peer_packet_destination(const Packet& wrapper);

/// Recover the application packet carried by a peer message.
PacketPtr unwrap_peer_packet(const Packet& wrapper);

}  // namespace tbon
