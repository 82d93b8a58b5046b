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
// This file also holds what process and remote node processes share:
// node_config() and configure_runtime().
#include "core/network.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/channel.hpp"
#include "core/delegates.hpp"
#include "core/fd_link.hpp"
#include "net/wire.hpp"
#include "recovery/adoption.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

/// Wire `runtime`'s child `slot` on socket `fd`: `install` hands the runtime
/// the channel stack (add_child_link at start-up, request_adopt for an
/// orphan), and only then does the reader start, so the wiring is queued in
/// the FIFO inbox ahead of the child's first frame.
std::jthread wire_child(const ChannelFactory& channels, NodeRuntime& runtime, int fd,
                        std::uint32_t slot, const std::function<void(LinkPtr)>& install) {
  const auto gate = channels.socket_gate(fd, runtime);
  auto raw = std::make_shared<FdLink>(fd, &runtime.metrics());
  // Grants ride the raw link: exempt control frames that must never wait
  // behind a coalescer buffer.
  channels.grant_in_band(runtime, Origin::kChild, slot, raw);
  install(std::make_unique<SharedLink>(channels.socket_stack(raw, runtime, gate)));
  return start_fd_reader(fd, runtime.inbox(), Origin::kChild, slot, &runtime.metrics(),
                         CreditSink{gate, 0});
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
  if (runtime.role() != NodeRole::kRoot) {
    // An injected crash must look like a real one: no stack unwinding, no
    // flushes, no handshakes.
    runtime.set_crash_handler([] { std::_Exit(0); });
  }
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
  const Topology& topology = config.topology;
  try {
    SpawnedChildren spawned = spawn_children(config, id, parent_fd,
                                             /*rendezvous_listener_fd=*/-1, backend_main);

    const bool leaf = topology.is_leaf(id);
    std::unique_ptr<BackEnd> backend;
    std::unique_ptr<BackEndDelegate> delegate;
    if (leaf) {
      backend.reset(new BackEnd(topology.leaf_rank(id), nullptr));
      delegate = std::make_unique<BackEndDelegate>(*backend);
    }
    NodeRuntime runtime(topology, id, FilterRegistry::instance(), delegate.get());
    configure_runtime(runtime, config);
    // Each process services its own coalescer deadlines (the flusher thread
    // starts on the first stack built, safely after all the forks above).
    const ChannelFactory channels(config.flow_control, config.batching);

    // Connections opened by re-adoption; must outlive the reader threads
    // and links that borrow the raw fds, hence declared first.
    std::vector<Fd> adopted_fds;
    std::vector<std::jthread> readers;
    // The upstream gate survives re-adoption (reset to a full window when
    // the edge is replaced) so a back-end handle never dangles mid-send.
    std::shared_ptr<CreditGate> gate_up;
    std::shared_ptr<RelinkableLink> relink;
    // Wire the parent edge on `fd`: at start-up, and again on re-adoption.
    const auto wire_parent = [&](int fd, std::uint32_t epoch) {
      gate_up = channels.socket_gate(fd, runtime, gate_up);
      auto raw = std::make_shared<FdLink>(fd, &runtime.metrics());
      auto up = channels.socket_stack(raw, runtime, gate_up, /*app_edge=*/leaf);
      if (!leaf) {
        runtime.set_parent_link(std::make_unique<SharedLink>(std::move(up)));
        channels.grant_in_band(runtime, Origin::kParent, 0, raw);
      } else if (relink) {
        relink->relink(std::move(up));
      } else {
        // The back-end handle and the runtime share one stack behind a
        // relinkable seam: re-adoption swaps the channel underneath both.
        // Grants ride the seam too, so they follow the live edge.
        relink = std::make_shared<RelinkableLink>(std::move(up));
        backend->up_link_ = std::make_unique<SharedLink>(relink);
        runtime.set_parent_link(std::make_unique<SharedLink>(relink));
        channels.grant_in_band(runtime, Origin::kParent, 0, relink);
      }
      readers.push_back(start_fd_reader(fd, runtime.inbox(), Origin::kParent, epoch,
                                        &runtime.metrics(), CreditSink{gate_up, 0}));
    };
    wire_parent(parent_fd, 0);
    if (!config.rendezvous.empty()) {
      runtime.set_orphan_handler([&](NodeRuntime& self) {
        try {
          const std::uint32_t epoch = self.bump_parent_epoch();
          Fd fd = orphan_reconnect(parse_endpoint(config.rendezvous),
                                   OrphanHello{id, topology.subtree_leaf_ranks(id)});
          // The hello frame is already on the wire (FIFO), so the front-end
          // wires our slot before any data sent from here on.
          wire_parent(fd.get(), epoch);
          adopted_fds.push_back(std::move(fd));
          return true;
        } catch (const std::exception& error) {
          TBON_WARN("node " << id << " re-adoption failed: " << error.what());
          return false;
        }
      });
    }
    for (std::uint32_t slot = 0; slot < spawned.fds.size(); ++slot) {
      readers.push_back(
          wire_child(channels, runtime, spawned.fds[slot].get(), slot,
                     [&](LinkPtr link) { runtime.add_child_link(std::move(link)); }));
    }
    if (leaf) {
      std::jthread service([&runtime] { runtime.run(); });
      backend_main(*backend);
      // The runtime exits when the shutdown handshake completes.
    } else {
      runtime.run();
    }

    // Reap our direct children.  Their exit closes the far end of every
    // child edge, and our parent shut its end of ours down when its runtime
    // exited, so every reader reaches EOF: join them before closing the fds
    // they read.
    for (const int pid : spawned.pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    readers.clear();  // join
    spawned.fds.clear();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tbon child process %u failed: %s\n", id, error.what());
    std::fflush(stderr);
    std::_Exit(1);
  }
  std::_Exit(0);
}

void Network::adopt_process_orphan(Fd connection, const OrphanHello& hello) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    // Dropping the connection EOFs the orphan, which then gives up and dies;
    // its subtree drains through the normal teardown path.
    if (shutdown_requested_) return;
  }
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  NodeRuntime& root = *runtimes_[topology_.root()];
  const std::uint32_t slot = root.reserve_child_slot();
  const int raw = connection.release();
  TBON_INFO("front-end adopting orphan node " << hello.node << " at slot " << slot);
  if (hello.node < current_parent_.size()) {
    current_parent_[hello.node] = topology_.root();
  }
  reader_threads_.push_back(wire_child(channels_, root, raw, slot, [&](LinkPtr link) {
    root.request_adopt(slot, hello.ranks, std::move(link));
  }));
  process_child_fds_.push_back(raw);
  ++adoptions_;
  adoption_cv_.notify_all();
}

std::unique_ptr<Network> Network::create_process_impl(const NetworkOptions& options) {
  if (!options.backend_main) {
    throw ProtocolError("NetworkOptions::backend_main is required in process mode");
  }
  auto network = std::unique_ptr<Network>(new Network(options.topology));
  Network& net = *network;
  net.process_mode_ = true;
  net.recovery_ = options.recovery;
  // The deadline-service thread starts on the first stack built, which
  // happens only after every fork below (threads don't survive fork).
  net.channels_ = ChannelFactory(options.flow_control, options.batching);
  const Topology& topo = net.topology_;

  if (net.recovery_.auto_readopt) {
    // The listener binds now so the port is known to every forked child;
    // the acceptor thread starts only after all forks (threads don't
    // survive fork).
    net.rendezvous_ = std::make_unique<RendezvousServer>();
  }
  // Every descendant reads this through the reference spawn_children hands
  // down; it lives in this frame, which no forked child ever leaves.
  const net::NodeConfig config = net.node_config(options);

  net.root_delegate_ = std::make_unique<RootDelegate>(net);
  net.runtimes_.resize(topo.num_nodes());
  net.runtimes_[topo.root()] =
      std::make_unique<NodeRuntime>(topo, topo.root(), net.registry_,
                                    net.root_delegate_.get());
  NodeRuntime& root = *net.runtimes_[topo.root()];
  configure_runtime(root, config);

  SpawnedChildren spawned =
      spawn_children(config, topo.root(), -1,
                     net.rendezvous_ ? net.rendezvous_->listener_fd() : -1,
                     options.backend_main);
  for (std::uint32_t slot = 0; slot < spawned.fds.size(); ++slot) {
    net.reader_threads_.push_back(
        wire_child(net.channels_, root, spawned.fds[slot].get(), slot,
                   [&](LinkPtr link) { root.add_child_link(std::move(link)); }));
  }
  for (Fd& fd : spawned.fds) net.process_child_fds_.push_back(fd.release());
  net.child_pids_ = std::move(spawned.pids);

  net.front_end_ = std::unique_ptr<FrontEnd>(new FrontEnd(net));
  net.next_dynamic_rank_ = static_cast<std::uint32_t>(topo.num_leaves());
  if (net.rendezvous_) {
    net.rendezvous_->start([&net](Fd connection, const OrphanHello& hello) {
      net.adopt_process_orphan(std::move(connection), hello);
    });
  }
  net.threads_.emplace_back([&root] { root.run(); });
  net.start_telemetry(options.telemetry);
  return network;
}

}  // namespace tbon
