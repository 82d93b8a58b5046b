// Transport microbenchmarks: frame codec over socketpairs and TCP, packet
// round-trips across real kernel channels, and the in-process link for
// comparison — quantifying what the zero-copy threaded path saves.
#include <benchmark/benchmark.h>

#include <thread>

#include "common/queue.hpp"
#include "core/fd_link.hpp"
#include "core/packet.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace tbon;

Bytes payload_of(std::size_t size) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) bytes[i] = static_cast<std::byte>(i & 0xff);
  return bytes;
}

/// Open `fd` on `pump` as a channel into `inbox`; returns its raw send link.
std::shared_ptr<Link> open_channel(SocketPump& pump, Fd fd, InboxPtr inbox) {
  std::shared_ptr<Link> raw;
  pump.open(std::move(fd), {.inbox = std::move(inbox)},
            [&raw](std::shared_ptr<Link> link) { raw = std::move(link); });
  return raw;
}

/// Echo thread: reads frames and writes them straight back.
std::jthread start_echo(int fd) {
  return std::jthread([fd] {
    while (auto frame = read_frame(fd)) {
      write_frame(fd, *frame);
    }
  });
}

void BM_SocketpairFrameRoundTrip(benchmark::State& state) {
  auto [mine, theirs] = make_socketpair();
  auto echo = start_echo(theirs.get());
  const Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    write_frame(mine.get(), payload);
    benchmark::DoNotOptimize(read_frame(mine.get()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()) * 2);
  shutdown_write(mine.get());
}
BENCHMARK(BM_SocketpairFrameRoundTrip)->Arg(64)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

void BM_TcpFrameRoundTrip(benchmark::State& state) {
  TcpListener listener;
  Fd client;
  Fd server;
  std::thread accepter([&] { server = listener.accept(); });
  client = tcp_connect(listener.port());
  accepter.join();
  auto echo = start_echo(server.get());

  const Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    write_frame(client.get(), payload);
    benchmark::DoNotOptimize(read_frame(client.get()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()) * 2);
  shutdown_write(client.get());
}
BENCHMARK(BM_TcpFrameRoundTrip)->Arg(64)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// Full packet path over a socketpair: serialize -> frame -> deserialize,
/// through the reader-thread pump the multi-process network runs on.
void BM_FdLinkPacketSend(benchmark::State& state) {
  auto [mine, theirs] = make_socketpair();
  auto inbox = std::make_shared<Inbox>(4096);
  ReaderPump pump;
  const auto link = open_channel(pump, std::move(mine), std::make_shared<Inbox>(16));
  const auto back = open_channel(pump, std::move(theirs), inbox);

  const PacketPtr packet = Packet::make(
      1, 100, 0, "vf64",
      {std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.0)});
  for (auto _ : state) {
    link->send(packet);
    benchmark::DoNotOptimize(inbox->pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet->payload_bytes()));
  link->close();
  back->close();
  pump.stop();
}
BENCHMARK(BM_FdLinkPacketSend)->Arg(8)->Arg(512)->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

/// The in-process path the threaded network uses: no serialization at all.
void BM_InprocLinkPacketSend(benchmark::State& state) {
  auto inbox = std::make_shared<Inbox>(4096);
  InprocLink link(inbox, Origin::kChild, 0);
  const PacketPtr packet = Packet::make(
      1, 100, 0, "vf64",
      {std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.0)});
  for (auto _ : state) {
    link.send(packet);
    benchmark::DoNotOptimize(inbox->pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet->payload_bytes()));
}
BENCHMARK(BM_InprocLinkPacketSend)->Arg(8)->Arg(512)->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

/// An interior pass-through hop, measured for payload memcpys: a frame
/// arrives on one socketpair, is relayed verbatim out another — the inner
/// loop of every communication process on a passthrough stream.  The
/// `copies_per_packet` / `bytes_memcpy_per_packet` counters cover the whole
/// producer -> hop -> sink pipeline and read 0: the payload is referenced by
/// writev at both sends and aliased from the receive frame at both reads
/// (tests/test_copy_count.cpp pins the same count).
void BM_CopyCountPassThroughHop(benchmark::State& state) {
  const std::size_t payload_size = static_cast<std::size_t>(state.range(0));

  auto [up_w, up_r] = make_socketpair();      // producer -> hop
  auto [down_w, down_r] = make_socketpair();  // hop -> consumer
  auto hop_inbox = std::make_shared<Inbox>(4096);
  auto sink_inbox = std::make_shared<Inbox>(4096);
  ReaderPump pump;
  const auto ingress = open_channel(pump, std::move(up_w), std::make_shared<Inbox>(16));
  const auto hop_return = open_channel(pump, std::move(up_r), hop_inbox);
  const auto egress = open_channel(pump, std::move(down_w), std::make_shared<Inbox>(16));
  const auto sink_return = open_channel(pump, std::move(down_r), sink_inbox);

  const PacketPtr original =
      Packet::make_view(1, 100, 0, BufferView(payload_of(payload_size)));
  std::uint64_t packets = 0;
  CopyStats::reset();
  for (auto _ : state) {
    ingress->send(original);
    Envelope arrived = *hop_inbox->pop();
    egress->send(arrived.packet);  // the pass-through relay
    benchmark::DoNotOptimize(sink_inbox->pop());
    ++packets;
  }
  state.counters["copies_per_packet"] = benchmark::Counter(
      static_cast<double>(CopyStats::memcpys()) / static_cast<double>(packets));
  state.counters["bytes_memcpy_per_packet"] = benchmark::Counter(
      static_cast<double>(CopyStats::bytes_copied()) / static_cast<double>(packets));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
  ingress->close();
  egress->close();
  hop_return->close();
  sink_return->close();
  pump.stop();
}
BENCHMARK(BM_CopyCountPassThroughHop)
    ->ArgNames({"bytes"})
    ->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
