// The zero-copy relay, pinned: payloads crossing an interior pass-through
// hop over real sockets are never memcpy'd in userspace.  A producer writes
// view packets (writev references the payload in place), the hop's reader
// decodes frames into packets aliasing the receive buffer, the hop relays
// that packet verbatim, and the sink's reader aliases again — zero copies
// end to end.  Checked on both socket pumps the tree uses: per-fd reader
// threads (process mode) and the epoll event loop (remote mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "common/buffer.hpp"
#include "core/packet.hpp"
#include "socket_pumps.hpp"
#include "transport/fd.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;

constexpr int kPackets = 64;

Bytes pattern(std::size_t size, int seed) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(seed)) & 0xff);
  }
  return bytes;
}

/// One producer -> hop -> sink pipeline.  `ingress` feeds the hop's inbox,
/// `egress` feeds the sink's; the caller owns the sockets behind them.
struct Hop {
  std::shared_ptr<Link> ingress;
  std::shared_ptr<Link> egress;
  InboxPtr hop_inbox = std::make_shared<Inbox>(4096);
  InboxPtr sink_inbox = std::make_shared<Inbox>(4096);
};

/// Relay kPackets view payloads of `size` bytes through `hop`; every byte
/// must arrive intact and no payload byte may be copied on the way.
void expect_zero_copy_relay(Hop& hop, std::size_t size) {
  std::vector<Bytes> sent;
  CopyStats::reset();
  for (int i = 0; i < kPackets; ++i) {
    Bytes payload = pattern(size, i);
    sent.push_back(payload);
    ASSERT_TRUE(hop.ingress->send(
        Packet::make_view(1, kFirstAppTag, 0, BufferView(std::move(payload)))));
    const auto arrived = hop.hop_inbox->pop_for(10s);
    ASSERT_TRUE(arrived && arrived->packet) << "hop lost packet " << i;
    ASSERT_TRUE(hop.egress->send(arrived->packet));  // the pass-through relay
  }
  for (int i = 0; i < kPackets; ++i) {
    const auto delivered = hop.sink_inbox->pop_for(10s);
    ASSERT_TRUE(delivered && delivered->packet) << "sink lost packet " << i;
    const BufferView& payload = delivered->packet->get_bytes(0);
    ASSERT_EQ(payload.size(), size);
    EXPECT_TRUE(std::equal(payload.span().begin(), payload.span().end(),
                           sent[static_cast<std::size_t>(i)].begin()))
        << "payload " << i << " corrupted";
  }
  // Counted after the sink decoded everything, so both reads are included.
  EXPECT_EQ(CopyStats::memcpys(), 0u) << size << "-byte payloads";
  EXPECT_EQ(CopyStats::bytes_copied(), 0u) << size << "-byte payloads";
}

TEST(CopyCount, PassThroughHopCopiesNoPayloadBytes) {
  for (const std::size_t size : {std::size_t{4096}, std::size_t{65536}}) {
    for (const pumps::Kind kind : pumps::kAll) {
      SCOPED_TRACE(pumps::name(kind));
      auto [up_w, up_r] = make_socketpair();
      auto [down_w, down_r] = make_socketpair();
      Hop hop;
      const auto pump = pumps::make(kind);
      // Only the receiving ends need a real inbox; the sending ends' inboxes
      // see nothing but their peer's EOF at teardown.
      const auto end = [&](Fd fd, InboxPtr inbox) {
        return pumps::open(*pump, std::move(fd), {.inbox = std::move(inbox)});
      };
      hop.ingress = end(std::move(up_w), std::make_shared<Inbox>(16));
      const auto hop_return = end(std::move(up_r), hop.hop_inbox);
      hop.egress = end(std::move(down_w), std::make_shared<Inbox>(16));
      const auto sink_return = end(std::move(down_r), hop.sink_inbox);
      pump->start();
      expect_zero_copy_relay(hop, size);
      // Close both directions of both edges, as the tree does at shutdown,
      // so every reader reaches EOF.
      for (const auto& link : {hop.ingress, hop_return, hop.egress, sink_return}) {
        link->close();
      }
      pump->stop();
    }
  }
}

}  // namespace
}  // namespace tbon
