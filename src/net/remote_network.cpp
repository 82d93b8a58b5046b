// The remote (multi-host TCP) instantiation: Network::create_remote_impl and
// the node-process side, Network::run_remote_node.
//
// Where process mode forks a tree connected by inherited socketpairs, remote
// mode gives every node nothing but a bootstrap address.  Each spawned node
// dials the front-end's bootstrap listener, learns the topology and its
// parent's address from a NodeConfig frame, binds its own child-facing
// listener, dials its parent with a LinkHello, accepts its children, and
// only then reports BootReady.  The front-end drives its half of all those
// handshakes from one epoll EventLoop; each node likewise runs exactly one
// EventLoop for all of its sockets (no thread-per-fd readers — test_net.cpp
// asserts the thread count).  Once its edges are connected, a node process
// runs the same body as a process-mode node (Network::run_node) with the
// EventLoop as its socket pump, and the front-end shares process mode's root
// set-up and orphan adopter: flow control, recovery, telemetry and filters
// behave identically.
#include "net/remote.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/channel.hpp"
#include "core/protocol.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "recovery/adoption.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

/// The host part of a placement spec ("host" or "host:port").
std::string host_of(const std::string& spec) { return parse_endpoint(spec, 0).host; }

// ---- exec/ssh launcher pid registry -----------------------------------------

std::mutex g_exec_mutex;
std::vector<pid_t> g_exec_pids;

std::vector<pid_t> take_spawned_pids() {
  std::lock_guard<std::mutex> lock(g_exec_mutex);
  return std::exchange(g_exec_pids, {});
}

void spawn_command(const std::vector<std::string>& argv) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw TransportError("fork failed");
  if (pid == 0) {
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    std::fprintf(stderr, "tbon launcher: exec %s failed: %s\n", args[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  std::lock_guard<std::mutex> lock(g_exec_mutex);
  g_exec_pids.push_back(pid);
}

// ---- front-end side state ---------------------------------------------------

/// Everything the front-end's side of the remote instantiation owns.  Its
/// EventLoop is the Network's pump; the Network holds it through an aliasing
/// pointer that keeps the whole struct alive until shutdown, so core headers
/// stay independent of the net subsystem.  The EventLoop must be constructed
/// after every fork (its epoll/eventfd/thread must not leak into children),
/// so construction of this whole struct happens post-spawn; the listeners
/// bind pre-fork and are moved in.
struct RemoteState {
  net::EventLoop loop;
  const ChannelFactory* channels = nullptr;  ///< the Network's
  std::unique_ptr<TcpListener> boot_listener;
  std::unique_ptr<TcpListener> link_listener;
  std::string bind_host;
  int handshake_timeout_ms = 10'000;
  Topology topology = Topology::single();
  net::NodeConfig base_config;
  NodeRuntime* root = nullptr;

  // Bootstrap progress (loop thread, except the counters under `mutex`).
  struct NodeBoot {
    net::ConnRef conn;
    bool config_sent = false;
    bool ready = false;
  };
  std::unordered_map<NodeId, NodeBoot> boots;
  std::unordered_map<NodeId, std::string> child_endpoint;  ///< "host:port"
  /// Root-child channel stacks, built as LinkHellos arrive (out of order)
  /// and wired into the root runtime in slot order once all have arrived.
  std::vector<std::shared_ptr<Link>> root_children;

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t ready = 0;
  std::size_t link_count = 0;
  bool failed = false;
  std::string failure;

  explicit RemoteState(MetricsRegistry* metrics) : loop(metrics) {}
};

void fe_fail(RemoteState* st, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    if (!st->failed) {
      st->failed = true;
      st->failure = why;
    }
  }
  st->cv.notify_all();
}

/// Where `parent`'s child-facing listener lives; nullopt while the parent
/// has not reported its BootListen yet (the child's config is deferred).
std::optional<std::string> fe_parent_endpoint(RemoteState* st, NodeId parent) {
  if (parent == st->topology.root()) {
    return st->bind_host + ":" + std::to_string(st->link_listener->port());
  }
  const auto it = st->child_endpoint.find(parent);
  if (it == st->child_endpoint.end()) return std::nullopt;
  return it->second;
}

/// Send `node` its NodeConfig once both its hello and its parent's listener
/// endpoint are known (whichever arrives last triggers the send).
void fe_try_send_config(RemoteState* st, NodeId node) {
  const auto it = st->boots.find(node);
  if (it == st->boots.end() || it->second.config_sent) return;
  const auto endpoint = fe_parent_endpoint(st, st->topology.node(node).parent);
  if (!endpoint) return;
  net::NodeConfig config = st->base_config;
  config.parent = *endpoint;
  st->loop.send_frame(it->second.conn, net::encode_node_config(config));
  it->second.config_sent = true;
}

/// Bootstrap-listener frame handler (loop thread).  Throwing tears down
/// just this connection (a hostile or confused dialer), not the front-end;
/// protocol-fatal conditions go through fe_fail instead.
void fe_boot_frame(RemoteState* st,
                   const std::shared_ptr<std::optional<NodeId>>& whoami,
                   const net::ConnRef& conn, const Bytes& frame) {
  const net::BootFrame type = net::boot_frame_type(frame);
  if (type == net::BootFrame::kHello) {
    const net::BootHello hello = net::decode_boot_hello(frame);
    if (hello.node == st->topology.root() ||
        hello.node >= st->topology.num_nodes()) {
      throw ProtocolError("bootstrap hello from unknown node " +
                          std::to_string(hello.node));
    }
    if (!net::negotiate_version(hello.ver_min, hello.ver_max, net::kProtoMin,
                                net::kProtoMax)) {
      throw ProtocolError("bootstrap protocol version mismatch with node " +
                          std::to_string(hello.node));
    }
    if (st->boots.count(hello.node) != 0) {
      throw ProtocolError("duplicate bootstrap hello for node " +
                          std::to_string(hello.node));
    }
    *whoami = hello.node;
    st->boots[hello.node] = RemoteState::NodeBoot{conn, false, false};
    fe_try_send_config(st, hello.node);
    return;
  }
  if (!whoami->has_value()) throw ProtocolError("bootstrap frame before hello");
  const NodeId node = **whoami;
  if (type == net::BootFrame::kListen) {
    const net::BootListen listen = net::decode_boot_listen(frame);
    if (listen.port != 0) {
      st->child_endpoint[node] = host_of(st->topology.node(node).host) + ":" +
                                 std::to_string(listen.port);
    }
    // The listener's children may already be waiting for their configs.
    for (const NodeId child : st->topology.node(node).children) {
      fe_try_send_config(st, child);
    }
    return;
  }
  if (type == net::BootFrame::kReady) {
    const net::BootReady ready = net::decode_boot_ready(frame);
    if (!ready.ok) {
      fe_fail(st, "node " + std::to_string(node) +
                      " failed to start: " + ready.error);
      return;
    }
    st->boots[node].ready = true;
    st->loop.close_connection(conn);  // its bootstrap job is done
    {
      std::lock_guard<std::mutex> lock(st->mutex);
      ++st->ready;
    }
    st->cv.notify_all();
    return;
  }
  throw ProtocolError("unexpected bootstrap frame");
}

/// Link-listener frame handler (loop thread): a root child's LinkHello.
/// Replies LinkWelcome and promotes the socket straight into the packet
/// plane; the channel delivers into the root inbox (which buffers until the
/// root runtime thread starts), so out-of-order arrival is harmless.
void fe_link_hello(RemoteState* st, const net::ConnRef& conn, const Bytes& frame) {
  const net::LinkHello hello = net::decode_link_hello(frame);
  const auto& children = st->topology.node(st->topology.root()).children;
  const auto pos = std::find(children.begin(), children.end(), NodeId{hello.node});
  if (pos == children.end()) {
    throw ProtocolError("link hello from node " + std::to_string(hello.node) +
                        ", which is not a root child");
  }
  const auto slot = static_cast<std::uint32_t>(pos - children.begin());
  if (st->root_children[slot]) {
    throw ProtocolError("duplicate link hello for root child slot " +
                        std::to_string(slot));
  }
  const auto version = net::negotiate_version(hello.ver_min, hello.ver_max,
                                              net::kProtoMin, net::kProtoMax);
  if (!version) throw ProtocolError("link protocol version mismatch");
  const std::uint32_t window = st->channels->credit_window();
  if (hello.credit_window != window) {
    throw ProtocolError("credit window mismatch on root child link: theirs " +
                        std::to_string(hello.credit_window) + ", ours " +
                        std::to_string(window));
  }
  // The welcome must hit the wire before any packet-plane frame; raw frames
  // and packet frames share one FIFO send queue, so enqueueing it first is
  // enough even though promote() follows immediately.
  st->loop.send_frame(conn, net::encode_link_welcome(net::LinkWelcome{
                                *version, st->topology.root(), slot, window}));
  const auto gate = st->channels->socket_gate(conn->fd(), *st->root);
  st->loop.promote(conn, {.inbox = st->root->inbox(), .origin = Origin::kChild,
                          .slot = slot, .credits = {gate, 0}});
  // Granter and pump registration are thread-safe; the link itself joins
  // the root runtime later, in slot order.
  const auto raw = st->loop.link(conn);
  st->channels->grant_in_band(*st->root, Origin::kChild, slot, raw);
  st->root_children[slot] = st->channels->socket_stack(raw, *st->root, gate);
  {
    std::lock_guard<std::mutex> lock(st->mutex);
    ++st->link_count;
  }
  st->cv.notify_all();
}

}  // namespace

// ---- node-process side ------------------------------------------------------

void Network::run_remote_node(NodeId id, const std::string& bootstrap,
                              const std::function<void(BackEnd&)>& backend_main) {
  Fd boot;
  try {
    boot = tcp_connect(parse_endpoint(bootstrap), 10'000);
    write_frame(boot.get(), net::encode_boot_hello(
                                net::BootHello{net::kProtoMin, net::kProtoMax, id}));
    const auto config_frame = read_frame(boot.get());
    if (!config_frame) {
      throw TransportError("bootstrap connection closed before NodeConfig");
    }
    const net::NodeConfig config = net::decode_node_config(*config_frame);
    const Topology& topo = config.topology;
    if (id >= topo.num_nodes() || id == topo.root()) {
      throw ProtocolError("node id " + std::to_string(id) +
                          " is not a non-root node of the shipped topology");
    }
    const bool leaf = topo.is_leaf(id);
    const auto& children = topo.node(id).children;
    // Both ends of every link handshake must agree on it; the channel stacks
    // themselves come from run_node's factory.
    const std::uint32_t window = ChannelFactory(config.flow_control, {}).credit_window();

    // Bind the child-facing listener before reporting it, then report it
    // before dialing the parent: our children can be told where to find us
    // while we are still waiting for the parent chain to come up.
    std::unique_ptr<TcpListener> child_listener;
    if (!leaf) {
      child_listener =
          std::make_unique<TcpListener>(parse_endpoint(topo.node(id).host, 0));
    }
    write_frame(boot.get(),
                net::encode_boot_listen(net::BootListen{
                    leaf ? std::uint16_t{0} : child_listener->port()}));

    // Dial the parent (riding out its own startup with backoff) and shake
    // hands: LinkHello up, LinkWelcome back.
    Fd parent_fd =
        tcp_connect(parse_endpoint(config.parent), config.handshake_timeout_ms);
    write_frame(parent_fd.get(),
                net::encode_link_hello(net::LinkHello{
                    net::kProtoMin, net::kProtoMax, id, 0, window}));
    const auto welcome_frame = read_frame(parent_fd.get());
    if (!welcome_frame) throw TransportError("parent closed during link handshake");
    if (welcome_frame->size() > net::kMaxHandshakeFrame) {
      throw ProtocolError("oversized link welcome");
    }
    const net::LinkWelcome welcome = net::decode_link_welcome(*welcome_frame);
    if (welcome.credit_window != window) {
      throw ProtocolError("credit window mismatch with parent");
    }

    // Accept our children.  Dialers that are not ours (or malformed) are
    // dropped and the accept loop keeps going until the deadline.
    std::vector<Fd> child_fds(children.size());  // slot-indexed
    if (!leaf) {
      std::size_t have = 0;
      const std::int64_t deadline =
          now_ns() + std::int64_t{config.handshake_timeout_ms} * 1'000'000;
      while (have < children.size()) {
        const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
        if (left_ms <= 0) {
          throw TransportError("timed out waiting for child connections (" +
                               std::to_string(have) + "/" +
                               std::to_string(children.size()) + ")");
        }
        Fd client = child_listener->accept_for(static_cast<int>(left_ms));
        if (!client.valid()) continue;
        try {
          const auto hello_frame = read_frame(client.get());
          if (!hello_frame || hello_frame->size() > net::kMaxHandshakeFrame) continue;
          const net::LinkHello hello = net::decode_link_hello(*hello_frame);
          const auto pos =
              std::find(children.begin(), children.end(), NodeId{hello.node});
          if (pos == children.end()) continue;
          const auto slot = static_cast<std::uint32_t>(pos - children.begin());
          if (child_fds[slot].valid()) continue;
          const auto version = net::negotiate_version(
              hello.ver_min, hello.ver_max, net::kProtoMin, net::kProtoMax);
          if (!version || hello.credit_window != window) continue;
          write_frame(client.get(), net::encode_link_welcome(net::LinkWelcome{
                                        *version, id, slot, window}));
          child_fds[slot] = std::move(client);
          ++have;
        } catch (const CodecError&) {
          continue;  // hostile or garbled hello; drop the socket
        }
      }
      child_listener->close();
    }

    // All edges are sockets now: run the node body with one EventLoop
    // owning every one of them.
    run_node(
        config, id, std::move(parent_fd), std::move(child_fds),
        [](MetricsRegistry* metrics) { return std::make_unique<net::EventLoop>(metrics); },
        backend_main, [&boot] {
          write_frame(boot.get(), net::encode_boot_ready(net::BootReady{true, ""}));
          boot.reset();
        });
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tbon remote node %u failed: %s\n", id, error.what());
    std::fflush(stderr);
    if (boot.valid()) {
      try {
        write_frame(boot.get(),
                    net::encode_boot_ready(net::BootReady{false, error.what()}));
      } catch (...) {
      }
    }
    std::_Exit(1);
  }
  std::_Exit(0);
}

// ---- front-end side ---------------------------------------------------------

std::unique_ptr<Network> Network::create_remote_impl(const NetworkOptions& options) {
  const RemoteOptions& ropts = options.remote;
  if (!options.backend_main && !ropts.spawn) {
    throw ProtocolError(
        "NetworkOptions::backend_main is required in remote mode unless a "
        "custom RemoteOptions::spawn launches back-end binaries");
  }
  // The channel factory's deadline-service thread starts on the first stack
  // built: on the event loop, after every fork below.
  auto network = std::unique_ptr<Network>(new Network(options));
  Network& self = *network;
  const Topology& topo = self.topology_;

  // Listeners bind before any fork so children know the ports and can close
  // their inherited copies; the event loop (epoll fd, eventfd, thread) is
  // created only after every fork.
  auto boot_listener =
      std::make_unique<TcpListener>(TcpEndpoint{ropts.bind_host, 0});
  auto link_listener =
      std::make_unique<TcpListener>(TcpEndpoint{ropts.bind_host, 0});
  if (self.recovery_.auto_readopt) {
    self.rendezvous_ =
        std::make_unique<RendezvousServer>(TcpEndpoint{ropts.bind_host, 0});
  }

  net::NodeConfig base = self.node_config(options);
  NodeRuntime& root = self.make_root(base);
  const std::string bootstrap =
      ropts.bind_host + ":" + std::to_string(boot_listener->port());

  std::vector<int> pids;
  for (NodeId id = 0; id < static_cast<NodeId>(topo.num_nodes()); ++id) {
    if (id == topo.root()) continue;
    if (ropts.spawn) {
      ropts.spawn(RemoteSpawnRequest{id, topo.node(id).host, bootstrap});
    } else {
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) throw TransportError("fork failed");
      if (pid == 0) {
        boot_listener->close();
        link_listener->close();
        if (self.rendezvous_) ::close(self.rendezvous_->listener_fd());
        run_remote_node(id, bootstrap, options.backend_main);
        // unreachable
      }
      pids.push_back(pid);
    }
  }
  for (const pid_t pid : take_spawned_pids()) pids.push_back(pid);

  auto state = std::make_shared<RemoteState>(&root.metrics());
  RemoteState* st = state.get();
  st->channels = &self.channels_;
  st->boot_listener = std::move(boot_listener);
  st->link_listener = std::move(link_listener);
  st->bind_host = ropts.bind_host;
  st->handshake_timeout_ms = ropts.handshake_timeout_ms;
  st->topology = topo;
  st->base_config = std::move(base);
  st->root = &root;
  st->root_children.resize(topo.node(topo.root()).children.size());

  // The TcpListener keeps the canonical fd (port() needs it); the loop gets
  // a dup.  Making the shared file description non-blocking is fine — these
  // listeners are only ever accepted by the loop.
  const std::int64_t boot_deadline =
      now_ns() + std::int64_t{ropts.ready_timeout_ms} * 1'000'000;
  st->loop.add_listener(Fd(::dup(st->boot_listener->fd())), [st, boot_deadline](Fd client) {
    auto whoami = std::make_shared<std::optional<NodeId>>();
    net::ConnectionOptions conn;
    conn.deadline_ns = boot_deadline;
    conn.on_frame = [st, whoami](const net::ConnRef& ref, Bytes frame) {
      fe_boot_frame(st, whoami, ref, frame);
    };
    conn.on_close = [st, whoami](const net::ConnRef&) {
      // Hostile dialers (no hello) die silently; a real node dying before
      // its BootReady fails the bring-up fast instead of waiting it out.
      if (!whoami->has_value()) return;
      const auto it = st->boots.find(**whoami);
      if (it != st->boots.end() && it->second.ready) return;
      fe_fail(st, "node " + std::to_string(**whoami) +
                      " bootstrap connection closed before ready");
    };
    st->loop.add_connection(std::move(client), std::move(conn));
  });
  st->loop.add_listener(Fd(::dup(st->link_listener->fd())), [st](Fd client) {
    net::ConnectionOptions conn;
    conn.deadline_ns =
        now_ns() + std::int64_t{st->handshake_timeout_ms} * 1'000'000;
    conn.on_frame = [st](const net::ConnRef& ref, Bytes frame) {
      fe_link_hello(st, ref, frame);
    };
    st->loop.add_connection(std::move(client), std::move(conn));
  });
  st->loop.start();

  const std::size_t want_ready = topo.num_nodes() - 1;
  const std::size_t want_links = st->root_children.size();
  {
    std::unique_lock<std::mutex> lock(st->mutex);
    const bool done = st->cv.wait_for(
        lock, std::chrono::milliseconds(ropts.ready_timeout_ms),
        [st, want_ready, want_links] {
          return st->failed ||
                 (st->ready >= want_ready && st->link_count >= want_links);
        });
    if (!done || st->failed) {
      const std::string why =
          st->failed ? st->failure : "timed out waiting for remote nodes";
      lock.unlock();
      st->loop.stop();
      reap_children(pids, /*force=*/true);
      {
        // Mark the network already shut down so ~Network does not wait for
        // acknowledgements from a tree that never existed.
        std::lock_guard<std::mutex> slock(self.shutdown_mutex_);
        self.shutdown_requested_ = true;
        self.shutdown_complete_ = true;
      }
      throw TransportError("remote network creation failed: " + why);
    }
  }

  // Every edge arrived; wire the root's children in slot order (the inbox
  // buffered anything the channels delivered meanwhile).
  for (const std::shared_ptr<Link>& channel : st->root_children) {
    root.add_child_link(channel);
  }
  self.pump_ = std::shared_ptr<SocketPump>(state, &st->loop);
  self.child_pids_ = std::move(pids);
  self.start_root(options.telemetry);
  return network;
}

// ---- launchers --------------------------------------------------------------

namespace net {

std::function<void(const RemoteSpawnRequest&)> exec_spawn(
    std::vector<std::string> command) {
  return [command = std::move(command)](const RemoteSpawnRequest& request) {
    std::vector<std::string> argv = command;
    argv.push_back("--tbon-node=" + std::to_string(request.node));
    argv.push_back("--tbon-bootstrap=" + request.bootstrap);
    spawn_command(argv);
  };
}

std::function<void(const RemoteSpawnRequest&)> ssh_spawn(
    std::vector<std::string> command, std::string ssh_binary) {
  return [command = std::move(command), ssh_binary = std::move(ssh_binary)](
             const RemoteSpawnRequest& request) {
    std::vector<std::string> argv;
    argv.reserve(command.size() + 4);
    argv.push_back(ssh_binary);
    argv.push_back(host_of(request.host));
    for (const std::string& part : command) argv.push_back(part);
    argv.push_back("--tbon-node=" + std::to_string(request.node));
    argv.push_back("--tbon-bootstrap=" + request.bootstrap);
    spawn_command(argv);
  };
}

bool maybe_run_remote_node(int argc, const char* const* argv,
                           const std::function<void(BackEnd&)>& backend_main) {
  std::optional<NodeId> node;
  std::string bootstrap;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kNode = "--tbon-node=";
    constexpr std::string_view kBootstrap = "--tbon-bootstrap=";
    if (arg.substr(0, kNode.size()) == kNode) {
      node = static_cast<NodeId>(
          std::stoul(std::string(arg.substr(kNode.size()))));
    } else if (arg.substr(0, kBootstrap.size()) == kBootstrap) {
      bootstrap = std::string(arg.substr(kBootstrap.size()));
    }
  }
  if (!node || bootstrap.empty()) return false;
  Network::run_remote_node(*node, bootstrap, backend_main);
  return true;  // unreachable: run_remote_node _Exits, but keeps -Wreturn-type honest
}

}  // namespace net
}  // namespace tbon
