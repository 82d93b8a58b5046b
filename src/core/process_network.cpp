// Multi-process TBON instantiation: one OS process per tree node.
//
// create_process_impl() forks the tree recursively — each node's process
// forks its own children, so every edge's socketpair is created in the
// common ancestor and inherited by exactly the two endpoint processes.
// Back-end processes run NetworkOptions::backend_main; communication
// processes run NodeRuntime event loops; the calling process keeps the
// front-end.  Call Network::create before spawning threads in the parent
// (fork), and register custom filters first so children inherit them.
//
// This file also holds what process and remote mode share above their
// socket pumps: the node-process body run_node(), the front-end's root and
// its orphan adopter, node_config() and configure_runtime().
#include "core/network.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/channel.hpp"
#include "core/delegates.hpp"
#include "core/fd_link.hpp"
#include "net/wire.hpp"
#include "recovery/adoption.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

/// Open socket `fd` on `pump` as `runtime`'s child channel `slot`.
/// `install` receives the channel stack (add_child_link at start-up,
/// request_adopt for an orphan) before the child's first frame is read.
void open_child(SocketPump& pump, const ChannelFactory& channels, NodeRuntime& runtime,
                Fd fd, std::uint32_t slot, const std::function<void(LinkPtr)>& install) {
  const auto gate = channels.socket_gate(fd.get(), runtime);
  pump.open(std::move(fd),
            {.inbox = runtime.inbox(), .origin = Origin::kChild, .slot = slot,
             .credits = {gate, 0}},
            [&](std::shared_ptr<Link> raw) {
              // Grants ride the raw link: exempt control frames that must
              // never wait behind a coalescer buffer.
              channels.grant_in_band(runtime, Origin::kChild, slot, raw);
              install(channels.socket_stack(std::move(raw), runtime, gate));
            });
}

}  // namespace

// ---- node processes (process and remote modes) ------------------------------

net::NodeConfig Network::node_config(const NetworkOptions& options) const {
  net::NodeConfig config;
  config.topology = topology_;
  config.flow_control = options.flow_control;
  config.execution = options.execution;
  config.batching = options.batching;
  config.heartbeat = options.recovery.heartbeat();
  config.fault_plan = options.recovery.fault_plan;
  config.handshake_timeout_ms = options.remote.handshake_timeout_ms;
  if (rendezvous_) config.rendezvous = rendezvous_->endpoint().to_string();
  return config;
}

void Network::configure_runtime(NodeRuntime& runtime, const net::NodeConfig& config) {
  if (config.flow_control.enabled) runtime.set_flow_control(config.flow_control);
  runtime.set_execution(config.execution);
  if (config.heartbeat.enabled()) runtime.set_recovery(config.heartbeat);
  if (!config.fault_plan.empty()) {
    // Each process builds its own injector from the shipped plan; the
    // counters are per-process, which is exactly the per-node semantics.
    runtime.set_fault_injector(std::make_shared<FaultInjector>(config.fault_plan));
  }
}

void Network::run_node(const net::NodeConfig& config, NodeId id, Fd parent,
                       std::vector<Fd> children, const PumpFactory& make_pump,
                       const std::function<void(BackEnd&)>& backend_main,
                       const std::function<void()>& on_ready) {
  const Topology& topology = config.topology;
  const bool leaf = topology.is_leaf(id);
  std::unique_ptr<BackEnd> backend;
  std::unique_ptr<BackEndDelegate> delegate;
  if (leaf) {
    backend.reset(new BackEnd(topology.leaf_rank(id)));
    delegate = std::make_unique<BackEndDelegate>(*backend);
  }
  NodeRuntime runtime(topology, id, FilterRegistry::instance(), delegate.get());
  configure_runtime(runtime, config);
  // Each process services its own coalescer deadlines (the flusher thread
  // starts on the first stack built, safely after every fork).
  const ChannelFactory channels(config.flow_control, config.batching);
  // Declared after the runtime, so the pump stops first if an exception
  // unwinds.
  const std::unique_ptr<SocketPump> pump = make_pump(&runtime.metrics());
  // An injected crash must look like a real one: no stack unwinding, no
  // flushes, no handshakes.  What the node already sent still leaves, as a
  // write that reached the kernel would: remote mode's pump only queues a
  // send, so drain it first.
  runtime.set_crash_handler([&pump] {
    pump->drain(1'000);
    std::_Exit(0);
  });

  // The upstream gate survives re-adoption (reset to a full window when
  // the edge is replaced) so a back-end handle never dangles mid-send.
  std::shared_ptr<CreditGate> gate_up;
  std::shared_ptr<RelinkableLink> relink;
  // Open the parent edge on `fd`: at start-up (epoch 0), and again on
  // re-adoption.
  const auto open_parent = [&](Fd fd, std::uint32_t epoch) {
    gate_up = channels.socket_gate(fd.get(), runtime, gate_up);
    pump->open(std::move(fd),
               {.inbox = runtime.inbox(), .origin = Origin::kParent, .slot = epoch,
                .credits = {gate_up, 0}},
               [&](std::shared_ptr<Link> raw) {
                 auto up = channels.socket_stack(raw, runtime, gate_up, /*app_edge=*/leaf);
                 if (!leaf) {
                   runtime.set_parent_link(std::move(up));
                   channels.grant_in_band(runtime, Origin::kParent, 0, std::move(raw));
                 } else if (relink) {
                   relink->relink(std::move(up));
                 } else {
                   // The back-end handle and the runtime share one stack
                   // behind a relinkable seam: re-adoption swaps the channel
                   // underneath both.  Grants ride the seam too, so they
                   // follow the live edge.
                   relink = std::make_shared<RelinkableLink>(std::move(up));
                   backend->up_link_ = relink;
                   runtime.set_parent_link(relink);
                   channels.grant_in_band(runtime, Origin::kParent, 0, relink);
                 }
               });
  };
  open_parent(std::move(parent), 0);
  if (!config.rendezvous.empty()) {
    runtime.set_orphan_handler([&](NodeRuntime& self) {
      try {
        const std::uint32_t epoch = self.bump_parent_epoch();
        // The hello frame is already on the wire (FIFO), so the front-end
        // wires our slot before any data sent from here on.
        open_parent(orphan_reconnect(parse_endpoint(config.rendezvous),
                                     OrphanHello{id, topology.subtree_leaf_ranks(id)}),
                    epoch);
        self.metrics().net_reconnects.fetch_add(1, std::memory_order_relaxed);
        return true;
      } catch (const std::exception& error) {
        TBON_WARN("node " << id << " re-adoption failed: " << error.what());
        return false;
      }
    });
  }
  for (std::uint32_t slot = 0; slot < children.size(); ++slot) {
    open_child(*pump, channels, runtime, std::move(children[slot]), slot,
               [&](LinkPtr link) { runtime.add_child_link(std::move(link)); });
  }
  pump->start();
  if (on_ready) on_ready();
  if (leaf) {
    std::jthread service([&runtime] { runtime.run(); });
    if (backend_main) run_backend_main(backend_main, *backend, runtime);
    // The runtime exits when the shutdown handshake completes.
  } else {
    runtime.run();
  }
  // The runtime's last sends (final telemetry record, shutdown ack) may only
  // be queued on the pump; flush them to the kernel before it stops.
  pump->drain(5'000);
  pump->stop();
}

void Network::reap_children(const std::vector<int>& pids, bool force) {
  if (force) {
    for (const int pid : pids) ::kill(pid, SIGKILL);
  }
  const std::int64_t deadline = now_ns() + 5'000'000'000LL;
  // Back off from a short first nap: a node usually exits within a
  // millisecond of closing its parent edge, and every tree level reaps its
  // own children, so a fixed long nap would add up along the depth.
  auto nap = std::chrono::microseconds(50);
  for (const int pid : pids) {
    for (;;) {
      int status = 0;
      const pid_t reaped = ::waitpid(pid, &status, force ? 0 : WNOHANG);
      if (reaped == pid || (reaped < 0 && errno == ECHILD)) break;
      if (now_ns() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(nap);
      nap = std::min(nap * 2, std::chrono::microseconds(5'000));
    }
  }
}

// ---- the front-end's root (process and remote modes) ------------------------

NodeRuntime& Network::make_root(const net::NodeConfig& config) {
  root_delegate_ = std::make_unique<RootDelegate>(*this);
  runtimes_.resize(topology_.num_nodes());
  runtimes_[topology_.root()] = std::make_unique<NodeRuntime>(
      topology_, topology_.root(), registry_, root_delegate_.get());
  NodeRuntime& root = *runtimes_[topology_.root()];
  configure_runtime(root, config);
  return root;
}

void Network::start_root(const TelemetryOptions& telemetry) {
  front_end_ = std::unique_ptr<FrontEnd>(new FrontEnd(*this));
  if (rendezvous_) {
    rendezvous_->start([this](Fd connection, const OrphanHello& hello) {
      adopt_orphan(std::move(connection), hello);
    });
  }
  NodeRuntime& root = *runtimes_[topology_.root()];
  threads_.emplace_back([&root] { root.run(); });
  start_telemetry(telemetry);
}

void Network::adopt_orphan(Fd connection, const OrphanHello& hello) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    // Dropping the connection EOFs the orphan, which then gives up and dies;
    // its subtree drains through the normal teardown path.
    if (shutdown_requested_) return;
  }
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  NodeRuntime& root = *runtimes_[topology_.root()];
  const std::uint32_t slot = root.reserve_child_slot();
  TBON_INFO("front-end adopting orphan node " << hello.node << " at slot " << slot);
  if (hello.node < current_parent_.size()) {
    current_parent_[hello.node] = topology_.root();
  }
  open_child(*pump_, channels_, root, std::move(connection), slot, [&](LinkPtr link) {
    root.request_adopt(slot, hello.ranks, std::move(link));
  });
  root.metrics().net_reconnects.fetch_add(1, std::memory_order_relaxed);
  ++adoptions_;
  adoption_cv_.notify_all();
}

// ---- process mode -------------------------------------------------------------

struct Network::SpawnedChildren {
  std::vector<Fd> fds;      ///< this process's end of each child edge
  std::vector<int> pids;
};

Network::SpawnedChildren Network::spawn_children(
    const net::NodeConfig& config, NodeId id, int my_parent_fd,
    int rendezvous_listener_fd, const std::function<void(BackEnd&)>& backend_main) {
  SpawnedChildren spawned;
  const auto& children = config.topology.node(id).children;
  spawned.fds.reserve(children.size());
  spawned.pids.reserve(children.size());

  // Parent-side buffered output would be duplicated into children.
  std::fflush(stdout);
  std::fflush(stderr);

  // In a child: drop every fd that belongs to other edges, and the
  // front-end's rendezvous listener (a surviving inherited copy would keep
  // the port alive forever).
  const auto close_inherited = [&] {
    for (Fd& sibling : spawned.fds) sibling.reset();
    if (my_parent_fd >= 0) ::close(my_parent_fd);
    if (rendezvous_listener_fd >= 0) ::close(rendezvous_listener_fd);
  };
  for (const NodeId child : children) {
    auto [mine, theirs] = make_socketpair();
    const pid_t pid = ::fork();
    if (pid < 0) throw TransportError("fork failed");
    if (pid == 0) {
      // Keep only our end of our own socketpair.
      mine.reset();
      close_inherited();
      run_child_process(config, child, theirs.release(), backend_main);
      // unreachable
    }
    theirs.reset();
    spawned.fds.push_back(std::move(mine));
    spawned.pids.push_back(pid);
  }
  return spawned;
}

void Network::run_child_process(const net::NodeConfig& config, NodeId id, int parent_fd,
                                const std::function<void(BackEnd&)>& backend_main) {
  try {
    SpawnedChildren spawned = spawn_children(config, id, parent_fd,
                                             /*rendezvous_listener_fd=*/-1, backend_main);
    run_node(config, id, Fd(parent_fd), std::move(spawned.fds),
             [](MetricsRegistry* metrics) { return std::make_unique<ReaderPump>(metrics); },
             backend_main, /*on_ready=*/nullptr);
    reap_children(spawned.pids, /*force=*/false);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tbon child process %u failed: %s\n", id, error.what());
    std::fflush(stderr);
    std::_Exit(1);
  }
  std::_Exit(0);
}

std::unique_ptr<Network> Network::create_process_impl(const NetworkOptions& options) {
  if (!options.backend_main) {
    throw ProtocolError("NetworkOptions::backend_main is required in process mode");
  }
  // The channel factory's deadline-service thread starts on the first stack
  // built, which happens only after every fork below (threads don't survive
  // fork).
  auto network = std::unique_ptr<Network>(new Network(options));
  Network& net = *network;
  if (net.recovery_.auto_readopt) {
    // The listener binds now so the port is known to every forked child;
    // the acceptor thread starts only after all forks.
    net.rendezvous_ = std::make_unique<RendezvousServer>();
  }
  // Every descendant reads this through the reference spawn_children hands
  // down; it lives in this frame, which no forked child ever leaves.
  const net::NodeConfig config = net.node_config(options);
  NodeRuntime& root = net.make_root(config);

  SpawnedChildren spawned =
      spawn_children(config, net.topology_.root(), -1,
                     net.rendezvous_ ? net.rendezvous_->listener_fd() : -1,
                     options.backend_main);
  net.pump_ = std::make_shared<ReaderPump>(&root.metrics());
  for (std::uint32_t slot = 0; slot < spawned.fds.size(); ++slot) {
    open_child(*net.pump_, net.channels_, root, std::move(spawned.fds[slot]), slot,
               [&root](LinkPtr link) { root.add_child_link(std::move(link)); });
  }
  net.child_pids_ = std::move(spawned.pids);
  net.start_root(options.telemetry);
  return network;
}

}  // namespace tbon
