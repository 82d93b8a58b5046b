// End-to-end tests of the remote (multi-host TCP) instantiation and its
// epoll connection subsystem (src/net/).
//
// The tree here is real: every non-root node is a separate OS process,
// connected to its parent and children ONLY by TCP sockets over localhost —
// bootstrap handshake, link handshake, packet plane, telemetry, recovery
// traffic all ride those sockets.  The suite covers:
//   * data/filter/telemetry correctness over a 3-level process tree,
//   * the single-event-loop claim (a thread-count assertion via the
//     net_threads gauge: an interior node's thread count must not scale
//     with its socket count the way thread-per-fd readers would),
//   * kill + reconnect: orphan re-adoption over the TCP rendezvous, with
//     credit gates re-baselined so flow-controlled traffic keeps moving,
//   * hostile handshakes: malformed, oversized, truncated and silent
//     pre-handshake peers must be shed without wedging the event loop.
//
// NOTE: fork-based tests must not create threads before the network, so
// every test builds its network first thing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/network.hpp"
#include "filters/register.hpp"
#include "net/event_loop.hpp"
#include "net/remote.hpp"
#include "net/wire.hpp"
#include "recovery/adoption.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

std::unique_ptr<Network> remote_net(Topology topology,
                                    std::function<void(BackEnd&)> backend_main,
                                    NetworkOptions extra = {}) {
  extra.mode = NetworkMode::kRemote;
  extra.topology = std::move(topology);
  extra.backend_main = std::move(backend_main);
  return Network::create(std::move(extra));
}

// Tree-exact wavg helpers (see test_recovery.cpp): payload "vf64 u64" is
// (sums, weight); the full-tree result is invariant under re-shaping, so
// post-recovery correctness is a strict equality.
void send_wave(BackEnd& be, std::uint32_t stream_id) {
  be.send(stream_id, kTag, "vf64 u64",
          {std::vector<double>{static_cast<double>(be.rank()) + 1.0},
           std::uint64_t{1}});
}

double full_sum(std::size_t n) { return static_cast<double>(n * (n + 1)) / 2.0; }

std::optional<double> await_weight(Stream& stream, std::uint64_t weight,
                                   std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(100ms);
    if (!result) continue;
    if ((*result)->get_u64(1) == weight) return (*result)->get_vf64(0)[0];
  }
  return std::nullopt;
}

void pumping_backend(BackEnd& be, std::uint32_t data_stream) {
  try {
    while (!be.shutting_down()) {
      send_wave(be, data_stream);
      (void)be.recv_for(5ms);  // paces the loop; drains broadcasts
    }
  } catch (const std::exception&) {
    // ProtocolError from a send racing shutdown: expected, just exit.
  }
}

// ---- end-to-end over a 3-level TCP process tree -----------------------------

TEST(RemoteNetwork, WavgFilterAcrossProcesses) {
  // A stateful tree filter (wavg, wait_for_all) whose partial aggregates
  // are produced inside the interior processes and merged at the root.
  auto net = remote_net(Topology::balanced(2, 2), [](BackEnd& be) {
    send_wave(be, 1);
  });
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  const auto sum = await_weight(stream, 4, 20s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, full_sum(4));
  net->shutdown();
}

TEST(RemoteNetwork, FramesLargerThanSendBudgetMakeProgress) {
  // Regression: a frame whose charge alone exceeds the loop's 4 MiB send
  // budget made enqueue()'s wait predicate unsatisfiable — the sending
  // thread blocked on the budget condvar forever, even with an empty queue.
  // The wire format allows frames up to 1 GiB, so an oversized frame must
  // be admitted whenever the queue is empty.  A 6 MiB blob bounced off the
  // back-ends exercises the blocking send path in both directions; pre-fix
  // this test hangs rather than fails.
  constexpr std::size_t kBig = std::size_t{6} << 20;
  auto net = remote_net(Topology::flat(2), [](BackEnd& be) {
    const auto packet = be.recv_for(30s);
    if (!packet) return;
    be.send(1, kTag, "str i64",
            {(*packet)->get_str(0), std::int64_t{be.rank()}});
  });
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string(kBig, 'x')});
  std::set<std::int64_t> ranks;
  for (int i = 0; i < 2; ++i) {
    const auto result = stream.recv_for(30s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_str(0).size(), kBig);
    ranks.insert((*result)->get_i64(1));
  }
  EXPECT_EQ(ranks.size(), 2u);
  net->shutdown();
}

// ---- telemetry + the single-event-loop thread assertion ---------------------

TEST(RemoteNetwork, TelemetryAggregatesAndThreadCountIsFlat) {
  // fanouts {1, 4}: node 1 is an interior process owning FIVE sockets
  // (1 parent + 4 children).  Thread-per-fd reads would put at least
  // 1 + 5 = 6 threads in that process; the event loop design caps it at
  // main + loop + heartbeat-free runtime internals.
  NetworkOptions extra;
  extra.telemetry = {.enabled = true, .interval_ms = 50};
  auto net = remote_net(Topology::from_fanouts(std::vector<std::size_t>{1, 4}),
                        [](BackEnd& be) { pumping_backend(be, 1); },
                        std::move(extra));
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  ASSERT_TRUE(await_weight(stream, 4, 20s).has_value());
  net->shutdown();

  // Post-shutdown the snapshot is frozen and exact: every node published a
  // final record ahead of its shutdown acknowledgement.
  const TreeMetricsSnapshot snap = net->front_end().metrics();
  EXPECT_EQ(snap.nodes_reporting, 6u);
  const NodeTelemetry* interior = snap.find(1);
  ASSERT_NE(interior, nullptr);
  // Data and telemetry frames flowed through the interior node's loop.
  EXPECT_GT(interior->net_frames_in, 0u);
  EXPECT_GT(interior->net_frames_out, 0u);
  EXPECT_GE(interior->net_connections, 5u);
  // THE claim of this subsystem: socket count does not show up in thread
  // count.  5 sockets, yet at most main + event loop + one service thread.
  // ThreadSanitizer adds one background thread of its own to a process at
  // its first pthread_create, so a TSan build reads one more.
#if defined(__SANITIZE_THREAD__)
  constexpr std::uint64_t kSanitizerThreads = 1;
#else
  constexpr std::uint64_t kSanitizerThreads = 0;
#endif
  EXPECT_GE(interior->net_threads, 2u);
  EXPECT_LE(interior->net_threads, 3u + kSanitizerThreads)
      << "interior node runs " << interior->net_threads
      << " threads for 5 sockets - looks like thread-per-fd reads";
  // Tree-wide aggregation of the net_* counters happens at the front-end.
  EXPECT_GT(snap.total.net_frames_in, interior->net_frames_in);
  EXPECT_EQ(snap.total.net_handshakes_failed, 0u);
}

// ---- kill + reconnect over the TCP rendezvous -------------------------------

TEST(RemoteNetwork, KillInteriorNodeOrphansReadopt) {
  NetworkOptions extra;
  extra.recovery.auto_readopt = true;
  auto net = remote_net(Topology::balanced(2, 2),
                        [](BackEnd& be) { pumping_backend(be, 1); },
                        std::move(extra));
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  auto sum = await_weight(stream, 4, 30s);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, full_sum(4));

  // Kill interior node 1; its two back-end children reconnect to the
  // front-end's rendezvous and are re-adopted as direct children.
  net->kill_node(1);
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));
  EXPECT_EQ(net->adoption_count(), 2u);

  // The recovered tree must again produce full-weight, exact results
  // (weight-4 results queued from before the kill may drain first).
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 5 && std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 4) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(4));
      ++full;
    }
  }
  EXPECT_GE(full, 5);
  net->shutdown();
}

TEST(RemoteNetwork, FaultPlanKillsInteriorAndOrphansReadopt) {
  // The plan ships to every node process in its NodeConfig, as in process
  // mode: node 1 crashes at its 5th data packet (its 3rd wave), and its two
  // back-ends reconnect through the rendezvous.
  NetworkOptions extra;
  extra.recovery.auto_readopt = true;
  extra.recovery.fault_plan.kill(1, 5);
  auto net = remote_net(Topology::balanced(2, 2),
                        [](BackEnd& be) { pumping_backend(be, 1); },
                        std::move(extra));
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  ASSERT_TRUE(net->wait_for_adoptions(2, 20s));
  EXPECT_EQ(net->adoption_count(), 2u);
  EXPECT_EQ(net->effective_parent(3), 0u);
  EXPECT_EQ(net->effective_parent(4), 0u);

  // The recovered tree produces full-weight, exact results again.
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 5 && std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 4) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(4));
      ++full;
    }
  }
  EXPECT_GE(full, 5);
  net->shutdown();
}

TEST(RemoteNetwork, CreditGatesRebaselineAfterReconnect) {
  // Flow control with a tiny window: after the kill, the orphans' upstream
  // gates reset to a full window and the adopter opens fresh downstream
  // gates — if re-baselining were wrong, the post-recovery stream would
  // starve of credits and this test would time out rather than fail fast.
  NetworkOptions extra;
  extra.recovery.auto_readopt = true;
  extra.flow_control.enabled = true;
  extra.flow_control.capacity = 8;
  auto net = remote_net(Topology::balanced(2, 2),
                        [](BackEnd& be) { pumping_backend(be, 1); },
                        std::move(extra));
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "wavg", .up_sync = "wait_for_all"});
  ASSERT_TRUE(await_weight(stream, 4, 30s).has_value());

  net->kill_node(2);  // the other interior node this time
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));

  // Far more full-weight waves than one 8-packet window could carry: the
  // re-baselined gates must be granting continuously.
  int full = 0;
  const auto until = std::chrono::steady_clock::now() + 60s;
  while (full < 20 && std::chrono::steady_clock::now() < until) {
    const auto result = stream.recv_for(100ms);
    if (result && (*result)->get_u64(1) == 4) {
      EXPECT_DOUBLE_EQ((*result)->get_vf64(0)[0], full_sum(4));
      ++full;
    }
  }
  EXPECT_GE(full, 20);
  net->shutdown();
}

// ---- hostile handshakes against the event loop ------------------------------

/// Harness: an EventLoop serving a link-style handshake on a real TCP
/// listener, exactly as the front-end does.  Well-formed hellos are
/// welcomed; anything else must kill only that connection.
struct HandshakeServer {
  MetricsRegistry metrics;
  net::EventLoop loop{&metrics};
  TcpListener listener;
  std::atomic<int> accepted{0};

  HandshakeServer() {
    loop.add_listener(Fd(::dup(listener.fd())), [this](Fd client) {
      net::ConnectionOptions conn;
      conn.deadline_ns = now_ns() + 500 * 1'000'000LL;  // 500 ms to speak
      conn.on_frame = [this](const net::ConnRef& ref, Bytes frame) {
        const net::LinkHello hello = net::decode_link_hello(frame);  // may throw
        loop.send_frame(ref, net::encode_link_welcome(net::LinkWelcome{
                                 net::kProtoMax, 0, hello.node, 0}));
        accepted.fetch_add(1);
      };
      loop.add_connection(std::move(client), std::move(conn));
    });
    loop.start();
  }
  ~HandshakeServer() { loop.stop(); }

  std::uint64_t failures() const {
    return metrics.net_handshakes_failed.load(std::memory_order_relaxed);
  }
};

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const auto n = ::write(fd, p, size);
    if (n <= 0) return;  // peer already closed us; that is the point
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// True once the server proves it is still alive: a fresh, well-formed
/// handshake completes end-to-end.
bool server_still_serves(HandshakeServer& server) {
  Fd ok = tcp_connect(server.listener.port());
  write_frame(ok.get(), net::encode_link_hello(net::LinkHello{
                            net::kProtoMin, net::kProtoMax, 7, 0, 0}));
  const auto welcome = read_frame(ok.get());
  if (!welcome) return false;
  return net::decode_link_welcome(*welcome).slot == 7u;
}

TEST(RemoteNetwork, MalformedHandshakesNeverWedgeTheEventLoop) {
  HandshakeServer server;

  // (a) Hostile length prefix: 1 GiB announced on a pre-handshake socket.
  {
    Fd fd = tcp_connect(server.listener.port());
    const std::uint32_t huge = 1u << 30;
    write_all(fd.get(), &huge, sizeof(huge));
  }
  // (b) Truncated frame: a valid length, half the payload, then EOF.
  {
    Fd fd = tcp_connect(server.listener.port());
    const std::uint32_t len = 64;
    write_all(fd.get(), &len, sizeof(len));
    const char junk[32] = {};
    write_all(fd.get(), junk, sizeof(junk));
  }
  // (c) Well-framed garbage: the frame arrives whole, the decoder throws.
  {
    Fd fd = tcp_connect(server.listener.port());
    Bytes garbage(24, std::byte{0xEE});
    write_frame(fd.get(), garbage);
    char drain[16];
    (void)!::read(fd.get(), drain, sizeof(drain));  // wait for the RST/EOF
  }
  // (d) The silent treatment: connect and say nothing; the handshake
  // deadline must shed it.
  Fd silent = tcp_connect(server.listener.port());

  // After every attack the loop still serves well-formed peers.
  ASSERT_TRUE(server_still_serves(server));

  // All four hostiles count as handshake failures (the silent one after its
  // 500 ms deadline).
  const auto until = std::chrono::steady_clock::now() + 10s;
  while (server.failures() < 4 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(server.failures(), 4u);
  ASSERT_TRUE(server_still_serves(server));
  EXPECT_EQ(server.accepted.load(), 2);
}

TEST(RemoteNetwork, PeerHangupOnReadMaskedChannelDoesNotSpinTheLoop) {
  // EPOLLHUP is level-triggered and delivered even with a 0 interest mask.
  // A channel whose reads are masked — its inbox is full, so the loop has
  // parked the next envelope — used to route it through handle_readable,
  // which no-ops while reads are masked: the loop re-woke on the same
  // un-consumable event every epoll_wait, burning a core until the inbox
  // drained.  The loop now drops the fd from its interest set instead, and
  // must re-arm it once the inbox has room so the peer's EOF still surfaces.
  MetricsRegistry metrics;
  net::EventLoop loop{&metrics};
  auto [mine, peer] = make_socketpair();
  const InboxPtr inbox = std::make_shared<Inbox>(1);
  loop.open(std::move(mine), {.inbox = inbox, .slot = 3}, nullptr);
  // The first frame fills the one-slot inbox and the second parks, masking
  // reads; the hangup then lands on a connection with an empty interest mask.
  for (std::int64_t i = 0; i < 2; ++i) {
    BinaryWriter writer;
    Packet::make(1, kTag, 0, "i64", {i})->serialize(writer);
    write_frame(peer.get(), writer.bytes());
  }
  peer.reset();
  loop.start();

  // Masked means masked: nothing more may surface while the inbox is full,
  // and the loop must idle rather than spin (the pre-fix busy loop burns
  // the entire window; the threshold is generous for loaded CI).
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (inbox->size() == 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  const std::clock_t cpu_before = std::clock();
  std::this_thread::sleep_for(500ms);
  const double cpu_ms =
      1000.0 * static_cast<double>(std::clock() - cpu_before) / CLOCKS_PER_SEC;
  EXPECT_EQ(inbox->size(), 1u);
  EXPECT_LT(cpu_ms, 250.0);

  // Draining the inbox re-arms the deregistered fd: the parked frame, then
  // the EOF envelope come through.
  for (std::int64_t i = 0; i < 2; ++i) {
    const auto data = inbox->pop_for(5s);
    ASSERT_TRUE(data.has_value());
    ASSERT_NE(data->packet, nullptr);
    EXPECT_EQ(data->packet->get_i64(0), i);
  }
  const auto eof = inbox->pop_for(5s);
  ASSERT_TRUE(eof.has_value());
  EXPECT_EQ(eof->packet, nullptr);
  EXPECT_EQ(eof->child_slot, 3u);
  loop.stop();
}

/// An event-loop channel whose peer is gone before eight sends are flushed,
/// over a socketpair or loopback TCP.  True when exactly one envelope — the
/// EOF — reaches the inbox.
bool sends_to_departed_peer_surface_eof(bool tcp) {
  std::pair<Fd, Fd> ends;
  if (tcp) {
    TcpListener listener;
    Fd client = tcp_connect(listener.port());
    ends = {std::move(client), listener.accept()};
  } else {
    ends = make_socketpair();
  }
  const InboxPtr inbox = std::make_shared<Inbox>(16);
  net::EventLoop loop;
  std::shared_ptr<Link> link;
  loop.open(std::move(ends.first), {.inbox = inbox},
            [&link](std::shared_ptr<Link> raw) { link = std::move(raw); });
  ends.second.reset();
  // Queued before the loop starts, so its first pass writes them into the
  // dead socket before it ever polls the hangup.
  for (std::int64_t i = 0; i < 8; ++i) {
    link->send(Packet::make(1, kTag, 0, "i64", {i}));
  }
  loop.start();
  const auto eof = inbox->pop_for(5s);
  loop.stop();
  return eof.has_value() && eof->packet == nullptr && eof->batch == nullptr &&
         !inbox->try_pop().has_value();
}

TEST(RemoteNetwork, WritesToAnExitedPeerSurfaceEofInsteadOfSigpipe) {
  // Writing to a socket whose peer exited fails with EPIPE — and, unless
  // the write says MSG_NOSIGNAL, raises SIGPIPE, which kills the whole node
  // process instead of taking the EOF -> recovery path.  Each case runs in a
  // forked child so that a SIGPIPE costs only the child.
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "loopback TCP" : "socketpair");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) std::_Exit(sends_to_departed_peer_surface_eof(tcp) ? 0 : 1);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_FALSE(WIFSIGNALED(status)) << "child killed by signal " << WTERMSIG(status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "expected exactly one EOF envelope";
  }
}

// ---- option validation ------------------------------------------------------

TEST(RemoteNetwork, RequiresBackendMainOrCustomSpawn) {
  EXPECT_THROW(
      (void)Network::create({.mode = NetworkMode::kRemote,
                             .topology = Topology::flat(2)}),
      ProtocolError);
}

TEST(RemoteNetwork, LauncherFlagParsing) {
  // maybe_run_remote_node must only fire when BOTH flags are present.
  const char* neither[] = {"prog", "--verbose"};
  EXPECT_FALSE(net::maybe_run_remote_node(2, neither, {}));
  const char* only_node[] = {"prog", "--tbon-node=3"};
  EXPECT_FALSE(net::maybe_run_remote_node(2, only_node, {}));
  const char* only_boot[] = {"prog", "--tbon-bootstrap=127.0.0.1:1"};
  EXPECT_FALSE(net::maybe_run_remote_node(2, only_boot, {}));
  // (Both present would run the node and never return, so not tested here;
  // examples/remote_two_host.cpp exercises that path end-to-end.)
}

}  // namespace
}  // namespace tbon
