#include "recovery/adoption.hpp"

#include "common/log.hpp"

namespace tbon {

// ---- RelinkableLink ---------------------------------------------------------

bool RelinkableLink::send(const PacketPtr& packet) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (closed_) return false;
    const std::shared_ptr<Link> inner = inner_;
    const std::uint64_t generation = generation_;
    lock.unlock();
    // The underlying send may block (bounded queue, kernel buffer); never
    // hold our mutex across it or relink() would deadlock with senders.
    if (inner->send(packet)) return true;
    lock.lock();
    if (generation_ != generation) continue;  // already relinked: retry now
    const bool swapped = relinked_.wait_for(
        lock, relink_wait_, [&] { return closed_ || generation_ != generation; });
    if (!swapped || closed_) return false;
  }
}

bool RelinkableLink::flush() {
  std::shared_ptr<Link> inner;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    inner = inner_;
  }
  return inner ? inner->flush() : true;
}

void RelinkableLink::close() {
  std::shared_ptr<Link> inner;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    inner = inner_;
  }
  relinked_.notify_all();
  if (inner) inner->close();
}

void RelinkableLink::relink(std::shared_ptr<Link> inner) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      if (inner) inner->close();
      return;
    }
    inner_ = std::move(inner);
    ++generation_;
  }
  relinked_.notify_all();
}

// ---- hello codec ------------------------------------------------------------

Bytes encode_orphan_hello(const OrphanHello& hello) {
  BinaryWriter writer;
  writer.put(hello.node);
  writer.put_vector<std::uint32_t>(hello.ranks);
  return writer.take();
}

OrphanHello decode_orphan_hello(std::span<const std::byte> bytes) {
  BinaryReader reader(bytes);
  OrphanHello hello;
  hello.node = reader.get<std::uint32_t>();
  hello.ranks = reader.get_vector<std::uint32_t>();
  return hello;
}

// ---- RendezvousServer -------------------------------------------------------

void RendezvousServer::start(AdoptFn on_orphan) {
  on_orphan_ = std::move(on_orphan);
  thread_ = std::thread([this] { accept_loop(); });
}

void RendezvousServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Fd connection;
    try {
      connection = listener_.accept();
    } catch (const std::exception& error) {
      if (!stopping_.load(std::memory_order_acquire)) {
        TBON_WARN("rendezvous accept failed: " << error.what());
      }
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    try {
      const auto frame = read_frame(connection.get());
      if (!frame) continue;  // peer vanished before introducing itself
      const OrphanHello hello = decode_orphan_hello(*frame);
      TBON_INFO("rendezvous: adopting orphan node " << hello.node << " serving "
                                                    << hello.ranks.size()
                                                    << " back-end rank(s)");
      on_orphan_(std::move(connection), hello);
    } catch (const std::exception& error) {
      TBON_WARN("rendezvous: dropping bad orphan connection: " << error.what());
    }
  }
}

void RendezvousServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) {
    // Wake the blocking accept() with a throwaway self-connection.
    try {
      Fd wake = tcp_connect(listener_.port());
    } catch (const std::exception&) {
      // Listener already unusable; the acceptor will exit on its own error.
    }
    thread_.join();
  }
  listener_.close();
}

// ---- orphan client ----------------------------------------------------------

Fd orphan_reconnect(const TcpEndpoint& endpoint, const OrphanHello& hello,
                    int timeout_ms) {
  Fd connection = tcp_connect(endpoint, timeout_ms);
  write_frame(connection.get(), encode_orphan_hello(hello));
  return connection;
}

}  // namespace tbon
