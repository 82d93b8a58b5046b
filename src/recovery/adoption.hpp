// Orphan re-adoption: reconnecting a subtree whose parent died.
//
// When a communication process fails, its children are orphaned.  Instead of
// amputating the subtree (the pre-recovery behaviour), each orphan climbs to
// its nearest live ancestor and re-attaches there, carrying the set of
// back-end ranks its subtree serves so the adopter can recompute stream
// membership and peer-message routes (cf. TreeP, where subtree re-adoption
// is a first-class protocol operation).
//
//  * Threaded instantiation: the orphan's runtime swaps queue links — the
//    Network arbitrates via NodeRuntime::request_adopt.
//  * Multi-process instantiation: the front-end publishes a TCP rendezvous
//    port before spawning the tree; orphans reconnect there and introduce
//    themselves with an OrphanHello frame (RendezvousServer accepts and
//    hands the connection to the root runtime).
//
// RelinkableLink makes the swap transparent to application threads: a
// back-end handle keeps sending on the same Link object while the channel
// underneath is replaced mid-flight.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "transport/tcp.hpp"

namespace tbon {

/// A Link whose underlying channel can be atomically replaced (re-adoption).
/// send() on a dead channel blocks for up to `relink_wait` for a replacement
/// before giving up, so application sends issued during the recovery window
/// are retried on the new parent instead of being dropped.
class RelinkableLink final : public Link {
 public:
  explicit RelinkableLink(std::shared_ptr<Link> inner,
                          std::chrono::milliseconds relink_wait =
                              std::chrono::milliseconds(10'000))
      : inner_(std::move(inner)), relink_wait_(relink_wait) {}

  bool send(const PacketPtr& packet) override;
  bool flush() override;
  void close() override;

  /// Swap in a fresh channel to the new parent; wakes blocked senders.
  void relink(std::shared_ptr<Link> inner);

 private:
  std::mutex mutex_;
  std::condition_variable relinked_;
  std::shared_ptr<Link> inner_;
  std::uint64_t generation_ = 0;
  bool closed_ = false;
  const std::chrono::milliseconds relink_wait_;
};

/// First frame an orphan sends on a rendezvous connection: who it is and
/// which back-end ranks its subtree serves.
struct OrphanHello {
  std::uint32_t node = 0;
  std::vector<std::uint32_t> ranks;
};

Bytes encode_orphan_hello(const OrphanHello& hello);
OrphanHello decode_orphan_hello(std::span<const std::byte> bytes);

/// Front-end side of the multi-process re-adoption protocol: a TCP listener
/// on an ephemeral loopback port whose acceptor thread reads each orphan's
/// hello and hands (connection, hello) to the adoption callback.
class RendezvousServer {
 public:
  using AdoptFn = std::function<void(Fd connection, const OrphanHello& hello)>;

  RendezvousServer() = default;
  /// Bind an explicit host:port (port 0 = ephemeral) so orphans on other
  /// hosts can reach the rendezvous (the remote instantiation).
  explicit RendezvousServer(const TcpEndpoint& endpoint)
      : listener_(endpoint), host_(endpoint.host) {}
  ~RendezvousServer() { stop(); }

  RendezvousServer(const RendezvousServer&) = delete;
  RendezvousServer& operator=(const RendezvousServer&) = delete;

  std::uint16_t port() const noexcept { return listener_.port(); }
  /// Where orphans dial in: the bound host and port.
  TcpEndpoint endpoint() const { return TcpEndpoint{host_, port()}; }
  /// Raw listening fd, so forked children can close their inherited copy.
  int listener_fd() const noexcept { return listener_.fd(); }

  /// Launch the acceptor thread.  Must be called after any fork (threads do
  /// not survive fork); the listener itself binds at construction so the
  /// port is known before children are spawned.
  void start(AdoptFn on_orphan);

  /// Stop accepting and join the acceptor thread (idempotent).
  void stop();

 private:
  void accept_loop();

  TcpListener listener_;
  std::string host_ = TcpEndpoint{}.host;  ///< what the default listener binds
  AdoptFn on_orphan_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Orphan side: connect to the rendezvous endpoint — retrying with capped
/// exponential backoff while the front-end is busy adopting siblings — and
/// send the hello frame.  Returns the connected socket; throws
/// TransportError once the timeout elapses.
Fd orphan_reconnect(const TcpEndpoint& endpoint, const OrphanHello& hello,
                    int timeout_ms = 10'000);

}  // namespace tbon
