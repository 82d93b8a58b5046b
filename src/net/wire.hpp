// Wire format of the remote connection subsystem's two handshakes.
//
// Everything here is a length-framed message (the fd.hpp 4-byte-prefix
// codec) exchanged *before* a socket joins the packet plane, so the
// structures are tiny, versioned and defensive: decode functions throw
// CodecError on malformed or short input and callers cap pre-handshake
// frames at kMaxHandshakeFrame so a hostile length prefix cannot balloon
// memory or wedge the event loop.
//
// Link handshake (child dials parent, one round trip):
//   child -> parent: LinkHello   { magic, version range, node id,
//                                  topology epoch, credit window }
//   parent -> child: LinkWelcome { negotiated version, parent id,
//                                  child slot, credit window }
//
// Bootstrap protocol (every spawned node dials the front-end's bootstrap
// listener; see docs/remote.md for the full ladder):
//   node -> FE: BootHello  — who am I, which protocol versions I speak
//   FE -> node: NodeConfig — topology + runtime options + where to connect
//   node -> FE: BootListen — the ephemeral port my child listener bound
//   node -> FE: BootReady  — my subtree edge is wired, runtime running
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/archive.hpp"
#include "core/coalesce.hpp"
#include "core/executor.hpp"
#include "core/flow_control.hpp"
#include "recovery/fault_injector.hpp"
#include "recovery/heartbeat.hpp"
#include "topology/topology.hpp"

namespace tbon::net {

inline constexpr std::uint32_t kLinkMagic = 0x544C4E4Bu;  // "TLNK"
inline constexpr std::uint32_t kBootMagic = 0x54424F4Fu;  // "TBOO"
/// Versions 2 and 3 changed the NodeConfig layout: an older peer fails
/// negotiation at its hello instead of decoding shifted fields.
inline constexpr std::uint8_t kProtoMin = 3;
inline constexpr std::uint8_t kProtoMax = 3;

/// Upper bound on any frame read before a handshake completes.  The packet
/// plane allows frames up to 1 GiB; an unauthenticated peer does not.
inline constexpr std::size_t kMaxHandshakeFrame = 4096;

/// Upper bound on the faults a NodeConfig may carry; a decoded count above
/// it is malformed.
inline constexpr std::uint32_t kMaxConfigFaults = 1024;

/// Pick the protocol version two ranges agree on (the highest both speak);
/// nullopt when the ranges are disjoint.
std::optional<std::uint8_t> negotiate_version(std::uint8_t a_min, std::uint8_t a_max,
                                              std::uint8_t b_min, std::uint8_t b_max);

// ---- link handshake ---------------------------------------------------------

struct LinkHello {
  std::uint8_t ver_min = kProtoMin;
  std::uint8_t ver_max = kProtoMax;
  std::uint32_t node = 0;           ///< the dialing (child) node's id
  std::uint32_t epoch = 0;          ///< parent-channel epoch (0 at first contact)
  std::uint32_t credit_window = 0;  ///< sender's credit baseline; 0 = fc off
};

Bytes encode_link_hello(const LinkHello& hello);
LinkHello decode_link_hello(std::span<const std::byte> bytes);

struct LinkWelcome {
  std::uint8_t version = kProtoMax;  ///< negotiated protocol version
  std::uint32_t node = 0;            ///< the accepting (parent) node's id
  std::uint32_t slot = 0;            ///< child slot the dialer was assigned
  std::uint32_t credit_window = 0;   ///< parent's baseline; must match hello's
};

Bytes encode_link_welcome(const LinkWelcome& welcome);
LinkWelcome decode_link_welcome(std::span<const std::byte> bytes);

// ---- bootstrap protocol -----------------------------------------------------

enum class BootFrame : std::uint8_t {
  kHello = 1,
  kConfig = 2,
  kListen = 3,
  kReady = 4,
};

/// The leading type tag of a bootstrap frame; throws CodecError when empty.
BootFrame boot_frame_type(std::span<const std::byte> bytes);

struct BootHello {
  std::uint8_t ver_min = kProtoMin;
  std::uint8_t ver_max = kProtoMax;
  std::uint32_t node = 0;
};

Bytes encode_boot_hello(const BootHello& hello);
BootHello decode_boot_hello(std::span<const std::byte> bytes);

/// Everything a node process needs to take its place in the tree.  Remote
/// nodes receive it in the bootstrap ladder; forked process-mode nodes get
/// the same value by reference, so both configure their runtimes from one
/// description.
struct NodeConfig {
  std::uint8_t version = kProtoMax;  ///< negotiated bootstrap version
  Topology topology = Topology::single();
  FlowControlOptions flow_control;
  ExecutionOptions execution;
  BatchingOptions batching;
  HeartbeatConfig heartbeat;
  int handshake_timeout_ms = 10'000;
  std::string rendezvous;         ///< "host:port" for re-adoption; "" = off
  std::string parent;             ///< "host:port" of this node's parent listener
  FaultPlan fault_plan;           ///< each node process builds its own injector
};

Bytes encode_node_config(const NodeConfig& config);
NodeConfig decode_node_config(std::span<const std::byte> bytes);

struct BootListen {
  std::uint16_t port = 0;  ///< child-facing listener port; 0 for leaves
};

Bytes encode_boot_listen(const BootListen& listen);
BootListen decode_boot_listen(std::span<const std::byte> bytes);

struct BootReady {
  bool ok = true;
  std::string error;  ///< set when ok is false
};

Bytes encode_boot_ready(const BootReady& ready);
BootReady decode_boot_ready(std::span<const std::byte> bytes);

}  // namespace tbon::net
