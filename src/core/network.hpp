// The user-facing TBON API: Network, FrontEnd, Stream and BackEnd.
//
// Mirrors MRNet's programming model:
//
//   auto net = Network::create({
//       .topology = Topology::balanced(4, 2),
//       .backend_main = [](BackEnd& be) {              // once per back-end
//         if (be.recv()) be.send(1, kMyTag, "vf64", {...});  // stream 1
//       }});
//   Stream& s = net->front_end().open_stream({.up_transform = "sum"});
//   s.send(kMyTag, "str", {"begin"});                  // multicast down
//   RecvResult result = s.recv();                      // aggregated result
//   if (result) use((*result)->get_f64(0));
//   net->shutdown();
//
// The threaded instantiation runs every communication process as a thread
// inside this process, moving packets by reference (zero copy).  The
// multi-process instantiation (process_network.cpp) forks one OS process per
// tree node connected by socketpairs, and the remote one (src/net/) connects
// node processes over TCP; both run one node-process body over a socket pump
// (core/socket_pump.hpp).  All three share NodeRuntime, so the TBON
// semantics are identical.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/channel.hpp"
#include "core/node.hpp"
#include "core/protocol.hpp"
#include "core/reconfig.hpp"
#include "core/registry.hpp"
#include "recovery/adoption.hpp"
#include "recovery/fault_injector.hpp"
#include "recovery/heartbeat.hpp"
#include "telemetry/collector.hpp"
#include "topology/topology.hpp"

namespace tbon {

namespace net {
struct NodeConfig;  // src/net/wire.hpp — what every node process runs under
}  // namespace net

class Network;
class FrontEnd;
class BackEnd;
class BackEndDelegate;
class SocketPump;

/// Fault-tolerance options (part of NetworkOptions).  Everything defaults
/// to off: a network built without options behaves exactly as before the
/// recovery subsystem existed (an orphaned subtree shuts itself down).
struct RecoveryOptions {
  /// Orphaned nodes reconnect instead of shutting down: to their nearest
  /// live ancestor (threaded) or to the front-end's rendezvous port
  /// (multi-process), carrying the back-end ranks their subtree serves so
  /// stream membership and peer routes are recomputed at the adopter.
  bool auto_readopt = false;

  /// Heartbeat/liveness detection (see recovery/heartbeat.hpp): send an
  /// explicit heartbeat on a channel idle for `heartbeat_interval_ms`, and
  /// declare a peer silent for `failure_timeout_ms` dead, triggering the
  /// same degradation/re-adoption as an EOF.  0 disables.
  int heartbeat_interval_ms = 0;
  int failure_timeout_ms = 0;

  /// Deterministic fault injection executed inside the node event loops
  /// (see recovery/fault_injector.hpp).
  FaultPlan fault_plan;

  HeartbeatConfig heartbeat() const noexcept {
    return HeartbeatConfig{heartbeat_interval_ms * 1'000'000LL,
                           failure_timeout_ms * 1'000'000LL};
  }
};

/// In-band telemetry options (part of NetworkOptions).  When enabled, every
/// node periodically publishes a metrics record on a reserved stream
/// (kTelemetryStream); interior nodes merge child records with the built-in
/// metrics_merge filter, and the front-end aggregates them into the
/// TreeMetricsSnapshot returned by FrontEnd::metrics().
struct TelemetryOptions {
  bool enabled = false;
  /// How often each node publishes a snapshot (also the merge window).
  int interval_ms = 200;
  /// Nodes silent this long are dropped from snapshots (dead nodes age
  /// out after a kill without re-adoption).  0 = auto (5 x interval_ms).
  int age_out_ms = 0;
};

/// Which instantiation Network::create builds.
enum class NetworkMode {
  kThreaded,  ///< one thread per tree node in this process, zero-copy links
  kProcess,   ///< one forked OS process per node, serialized fd channels
  kRemote,    ///< one process per node, possibly on other hosts, connected
              ///< by TCP with an epoll event loop per node (src/net/)
};

/// One node the remote instantiation needs launched (see RemoteOptions::
/// spawn): run a process for `node` on `host` that ends up calling
/// Network::run_remote_node(node, bootstrap, ...) — directly (fork), via
/// exec of a binary that calls net::maybe_run_remote_node, or via ssh.
struct RemoteSpawnRequest {
  NodeId node = 0;
  std::string host;       ///< placement host from the topology ("host[:port]")
  std::string bootstrap;  ///< "host:port" of the front-end's bootstrap listener
};

/// Remote (multi-host TCP) instantiation options; see docs/remote.md.
struct RemoteOptions {
  /// Launch hook, called once per non-root node before the front-end starts
  /// waiting for them.  Default: fork this process and run the node in the
  /// child (single-host; needs NetworkOptions::backend_main).  Use
  /// net::exec_spawn / net::ssh_spawn to launch separate binaries.
  std::function<void(const RemoteSpawnRequest&)> spawn;

  /// Address the front-end's listeners (bootstrap, link, rendezvous) bind
  /// and advertise.  The default reaches only local processes; multi-host
  /// trees need the front-end machine's externally visible address.
  std::string bind_host = "127.0.0.1";

  /// Per-connection handshake deadline (listener side) and per-node dial
  /// budget (connector side, with capped exponential backoff).
  int handshake_timeout_ms = 10'000;

  /// How long create() waits for every remote node to report BootReady before
  /// tearing down and throwing.
  int ready_timeout_ms = 30'000;
};

/// Everything Network::create needs, in one aggregate so call sites read as
/// named fields and new options never change the factory signature:
///
///   auto net = Network::create({
///       .topology = Topology::balanced(4, 2),
///       .recovery = {.auto_readopt = true},
///       .telemetry = {.enabled = true, .interval_ms = 50},
///   });
struct NetworkOptions {
  NetworkMode mode = NetworkMode::kThreaded;
  Topology topology = Topology::single();
  RecoveryOptions recovery;
  TelemetryOptions telemetry;
  /// Credit-based flow control on every tree channel (all three
  /// instantiations); see src/core/flow_control.hpp and docs/flow_control.md.
  FlowControlOptions flow_control;
  /// Parallel filter execution on non-leaf nodes: a per-node worker pool
  /// onto which packets are hash-sharded by stream id, preserving per-stream
  /// FIFO while distinct streams filter concurrently (see
  /// src/core/executor.hpp and docs/execution.md).  Defaults to off
  /// (num_workers = 0): filters run inline on each node's event loop,
  /// byte-identically to previous releases.
  ExecutionOptions execution;
  /// Adaptive small-packet batching on every tree channel (all three
  /// instantiations): data packets coalesce into multi-packet wire frames,
  /// flushed on size, deadline, or credit pressure; control and telemetry
  /// traffic always goes out immediately (see src/core/coalesce.hpp and
  /// docs/batching.md).  Defaults to off: the wire format and flush timing
  /// are byte-identical to previous releases.
  BatchingOptions batching;
  /// Named per-tenant QoS budgets (see src/core/tenant.hpp and
  /// docs/tenancy.md).  A stream opened with StreamSpec::tenant("name")
  /// resolves "name" here at open_stream time; the budget rides the stream
  /// announcement so every node enforces the same credit share, inflight-byte
  /// cap, and priority ceiling.  Unlisted tenants get the default
  /// (unconstrained) budget.
  TenancyOptions tenancy;
  /// Planned reconfiguration: placement policy and split thresholds for
  /// FrontEnd::reconfigure / maybe_rebalance (see src/core/reconfig.hpp and
  /// docs/reconfiguration.md).  Defaults leave rebalancing dormant.
  ReconfigOptions reconfig;

  /// The back-end application: runs once per static back-end in every
  /// instantiation, on its own thread in threaded mode and inside each
  /// back-end process otherwise (see docs/api.md).  It starts during
  /// create(), before any stream is open, and must return once its BackEnd
  /// reports shutdown.
  std::function<void(BackEnd&)> backend_main;
  /// Remote mode only (see RemoteOptions).
  RemoteOptions remote;
};

/// Why a receive returned without a packet.
enum class RecvStatus : std::uint8_t {
  kOk,            ///< a packet was received
  kTimeout,       ///< the deadline passed (recv_for / try_recv only)
  kShutdown,      ///< the network shut down; no further packet will arrive
  kStreamClosed,  ///< this stream was deleted; remaining packets drained
};

constexpr const char* to_string(RecvStatus status) noexcept {
  switch (status) {
    case RecvStatus::kOk: return "ok";
    case RecvStatus::kTimeout: return "timeout";
    case RecvStatus::kShutdown: return "shutdown";
    case RecvStatus::kStreamClosed: return "stream_closed";
  }
  return "?";
}

/// Result of a receive: a packet, or the status explaining its absence.
/// Replaces the old std::optional<PacketPtr> returns, which could not
/// distinguish "timed out, retry" from "shut down, stop".  Keeps the
/// optional's ergonomics: truthiness means ok, * dereferences the packet.
class RecvResult {
 public:
  /// Successful receive (status kOk).
  RecvResult(PacketPtr packet) : packet_(std::move(packet)) {}  // NOLINT(google-explicit-constructor)
  /// Packet-less receive; `status` must not be kOk.
  explicit RecvResult(RecvStatus status) : status_(status) {}

  RecvStatus status() const noexcept { return status_; }
  bool ok() const noexcept { return status_ == RecvStatus::kOk; }
  bool timed_out() const noexcept { return status_ == RecvStatus::kTimeout; }
  explicit operator bool() const noexcept { return ok(); }
  bool has_value() const noexcept { return ok(); }

  /// The received packet; throws ProtocolError unless ok().
  const PacketPtr& packet() const {
    require_ok();
    return packet_;
  }
  const PacketPtr& operator*() const { return packet(); }
  const Packet* operator->() const { return packet().get(); }

 private:
  void require_ok() const {
    if (!ok()) {
      throw ProtocolError(std::string("no packet: recv status is ") + to_string(status_));
    }
  }

  PacketPtr packet_;
  RecvStatus status_ = RecvStatus::kOk;
};

/// Result of FrontEnd::recv_any: which stream produced the packet, plus the
/// RecvResult itself.  `stream_id` is meaningful only when `result.ok()`.
struct AnyRecvResult {
  std::uint32_t stream_id = 0;
  RecvResult result{RecvStatus::kShutdown};
};

/// Front-end handle to one virtual channel.
class Stream {
 public:
  std::uint32_t id() const noexcept { return spec_.id; }
  const StreamSpec& spec() const noexcept { return spec_; }
  /// Topic path this stream publishes under ("" = untopiced).
  const std::string& topic() const noexcept { return spec_.topic_path; }

  /// Multicast a packet downstream to the stream's back-ends.
  void send(std::int32_t tag, std::string_view format, std::vector<DataValue> values);

  /// Multicast an opaque payload downstream as a single-`bytes` packet.  The
  /// view is adopted, not copied: the backing buffer is pinned until every
  /// link has relayed the packet.  Receivers read it via
  /// `packet->get_bytes(0)` / `packet->payload_view()`.
  void send(std::int32_t tag, BufferView payload);

  /// Multicast several packets downstream as one unit: the whole span enters
  /// the root's event loop as a single batch envelope (one wakeup, one
  /// multi-packet frame per coalescing hop) instead of N independent sends.
  /// Every packet must belong to this stream and carry an application tag;
  /// build them with make_packet().  Delivery order and per-packet semantics
  /// are identical to calling send() N times.
  void send_batch(std::span<const PacketPtr> packets);

  /// Build a packet for send_batch() (stream id and front-end rank filled
  /// in; same wire form as the equivalent send()).
  PacketPtr make_packet(std::int32_t tag, std::string_view format,
                        std::vector<DataValue> values) const;

  /// Receive the next aggregated upstream packet.  Blocks until a packet
  /// arrives or the status becomes terminal (kShutdown / kStreamClosed —
  /// buffered packets are still drained first).
  RecvResult recv();

  /// recv with a timeout; kTimeout when the deadline passes.
  RecvResult recv_for(std::chrono::milliseconds timeout);

  /// recv with an absolute deadline; kTimeout once `deadline` passes.
  /// Prefer this in retry loops: the deadline does not stretch with each
  /// attempt the way a relative recv_for() timeout does.
  RecvResult recv_until(std::chrono::steady_clock::time_point deadline);

 private:
  friend class FrontEnd;
  friend class Network;
  Stream(Network& network, StreamSpec spec);

  /// Map a queue pop outcome to a RecvResult (empty + closed queue means a
  /// terminal status; empty + open queue means timeout).
  RecvResult make_result(std::optional<PacketPtr> popped);

  Network& network_;
  StreamSpec spec_;
  std::atomic<bool> deleted_{false};
  BoundedQueue<PacketPtr> results_{1 << 16};
};

/// The application process at the root of the tree.
class FrontEnd {
 public:
  /// Open a stream from a typed spec (the primary spelling):
  ///
  ///   Stream& s = fe.open_stream(StreamSpec::topic("/app/metrics")
  ///                                  .priority(Priority::kHigh)
  ///                                  .tenant("acme")
  ///                                  .up("sum"));
  ///
  /// The announcement propagates down the tree ahead of any data (FIFO
  /// channels), so back-ends can use it immediately.  A tenant named in
  /// NetworkOptions::tenancy contributes its budget to the announcement, and
  /// the spec's priority is clamped to that tenant's ceiling.  A topiced
  /// stream's downstream packets reach only subtrees holding a matching
  /// prefix subscription (BackEnd::subscribe).
  Stream& open_stream(StreamSpec spec = {});

  /// Publish one packet under `topic`, opening the stream on first use (one
  /// stream per exact topic path, cached).  Returns that stream so callers
  /// can recv() aggregated results on it.
  Stream& publish(const std::string& topic, std::int32_t tag,
                  std::string_view format, std::vector<DataValue> values);

  /// Subscribe the front-end itself to a topic prefix (symmetric with
  /// BackEnd::subscribe; counts toward subscriber_count for observability).
  void subscribe(const std::string& prefix);
  void unsubscribe(const std::string& prefix);

  /// Distinct subscriber ranks whose prefix matches `topic` right now
  /// (subscriptions propagate up the tree asynchronously).
  std::size_t subscriber_count(const std::string& topic) const;

  /// Block until at least `count` distinct ranks subscribe to a prefix
  /// matching `topic`; false on timeout.  The publish-side rendezvous: a
  /// packet published before a subscription lands is pruned, not queued.
  bool wait_subscribers(const std::string& topic, std::size_t count,
                        std::chrono::milliseconds timeout);

  /// Tear down a stream tree-wide (buffered packets are flushed upward).
  void delete_stream(std::uint32_t stream_id);

  /// dlopen a filter library on every communication process.
  void load_filter_library(const std::string& path);

  /// Stream lookup (throws ProtocolError for unknown ids).
  Stream& stream(std::uint32_t stream_id);

  /// Receive the next aggregated packet from *any* of this front-end's
  /// streams — the natural shape for a front-end multiplexing many
  /// concurrently-filtering streams (it does not pin the caller to one
  /// stream's arrival order).  Blocks until some stream has a packet or the
  /// network shuts down (kShutdown).  Tolerates concurrent direct
  /// Stream::recv() calls: a packet is delivered exactly once, to whichever
  /// caller pops it.
  AnyRecvResult recv_any();

  /// recv_any with a timeout; result.status() == kTimeout when it passes.
  AnyRecvResult recv_any_for(std::chrono::milliseconds timeout);

  /// recv_any with an absolute deadline; kTimeout once `deadline` passes.
  AnyRecvResult recv_any_until(std::chrono::steady_clock::time_point deadline);

  /// Current tree-wide telemetry snapshot: one record per live node plus
  /// field-wise totals and cross-node percentiles.  After shutdown() the
  /// snapshot is frozen and the aggregate counters are exact (every node
  /// publishes a final record ahead of its shutdown acknowledgement).
  /// Throws ProtocolError unless the network was created with
  /// TelemetryOptions::enabled.
  TreeMetricsSnapshot metrics() const;

  /// The same snapshot rendered as a JSON object.
  std::string metrics_json() const;

  /// Apply a typed topology delta to the live tree (the operator surface of
  /// the reconfiguration subsystem; identical in all three modes):
  ///
  ///   ReconfigResult r = fe.reconfigure(
  ///       TopologyDelta().add_leaf().remove_leaf(3).split(1));
  ///
  /// Operations apply in order, each via the two-phase quiesce -> rewire ->
  /// replay protocol that preserves per-stream FIFO and filter state (see
  /// docs/reconfiguration.md).  kAutoPlacement targets are resolved by
  /// ReconfigOptions::policy.  Per-op success/failure is reported in the
  /// returned ReconfigResult; a failed op does not stop later ops.
  ReconfigResult reconfigure(TopologyDelta delta);

  /// Inspect per-node load (fan-in, filter queue depth, inbox depth) and,
  /// if ReconfigOptions thresholds flag a saturated interior and the
  /// cooldown has elapsed, apply the policy's proposed delta.  Returns the
  /// applied result, or nullopt when nothing needed doing.  Call this from
  /// the operator loop; it never blocks longer than one reconfigure().
  std::optional<ReconfigResult> maybe_rebalance();

 private:
  friend class Network;
  explicit FrontEnd(Network& network) : network_(network) {}

  AnyRecvResult recv_any_impl(
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  Network& network_;
  std::mutex mutex_;
  std::uint32_t next_stream_id_ = 1;  // 0 is the control stream
  std::map<std::uint32_t, std::unique_ptr<Stream>> streams_;
  std::map<std::string, std::uint32_t> topic_ids_;  ///< publish() cache

  /// maybe_rebalance cooldown clock; zero until the first applied delta.
  std::mutex rebalance_mutex_;
  std::chrono::steady_clock::time_point last_rebalance_{};
};

/// The application process at a leaf of the tree.
class BackEnd {
 public:
  std::uint32_t rank() const noexcept { return rank_; }

  /// Send a packet upstream on `stream_id`.  Blocks until the stream
  /// announcement has reached this back-end (bounded wait, then throws
  /// ProtocolError) so that data can never overtake the stream creation.
  void send(std::uint32_t stream_id, std::int32_t tag, std::string_view format,
            std::vector<DataValue> values);

  /// Send an opaque payload upstream as a single-`bytes` packet; the view is
  /// adopted, not copied (zero-copy all the way to the first filter that
  /// actually reads it).
  void send(std::uint32_t stream_id, std::int32_t tag, BufferView payload);

  /// Send several packets upstream on `stream_id` as one unit: one
  /// stream-known wait, then the whole span is handed to the upstream link
  /// in a single call (one batch frame on a coalescing channel, one inbox
  /// push in threaded mode).  Every packet must belong to `stream_id` and
  /// carry an application tag; build them with make_packet().  Semantically
  /// identical to calling send() N times, just cheaper.
  void send_batch(std::uint32_t stream_id, std::span<const PacketPtr> packets);

  /// Build a packet for send_batch() (this back-end's rank filled in; same
  /// wire form as the equivalent send()).
  PacketPtr make_packet(std::uint32_t stream_id, std::int32_t tag,
                        std::string_view format,
                        std::vector<DataValue> values) const;

  /// Subscribe this back-end to every stream whose topic path starts with
  /// `prefix`.  The subscription climbs the tree on the control stream;
  /// interior nodes forward a topiced stream's downstream packets only into
  /// subtrees with a matching subscriber, so unsubscribed subtrees cost
  /// nothing.  Use FrontEnd::wait_subscribers before publishing.
  void subscribe(const std::string& prefix);
  void unsubscribe(const std::string& prefix);

  /// Send a message to another back-end, routed hop-by-hop through the
  /// internal process tree (paper §2.1: the TBON model has no direct
  /// back-end channels, but the tree can route such traffic).  The
  /// destination receives it via recv_peer(); `tag` and payload are
  /// application-defined.
  void send_to(std::uint32_t dst_rank, std::int32_t tag, std::string_view format,
               std::vector<DataValue> values);

  /// Receive the next downstream packet (any stream); kShutdown once the
  /// network told this back-end to stop and the queue has drained.
  RecvResult recv();
  RecvResult recv_for(std::chrono::milliseconds timeout);
  /// Non-blocking receive; kTimeout when no packet is ready.
  RecvResult try_recv();

  /// Receive the next tree-routed peer message; the packet's src_rank()
  /// identifies the sender.
  RecvResult recv_peer();
  RecvResult recv_peer_for(std::chrono::milliseconds timeout);
  RecvResult try_recv_peer();

  /// True once the network told this back-end to stop.
  bool shutting_down() const;

 private:
  friend class Network;
  friend class BackEndDelegate;
  explicit BackEnd(std::uint32_t rank) : rank_(rank) {}

  void wait_stream_known(std::uint32_t stream_id);

  /// Reconfiguration quiesce fence: pause_sends() blocks new application
  /// sends AND waits out any in-flight one (it acquires send_mutex_, which
  /// every send path holds across the link handoff), so after it returns no
  /// packet can enter the old channel.  resume_sends() releases the fence
  /// after this leaf is rewired to its new parent.
  void pause_sends();
  void resume_sends();
  /// Blocks while paused; every upstream-sending path calls this with
  /// send_mutex_ held before touching up_link_.
  void wait_send_allowed(std::unique_lock<std::mutex>& lock);

  std::uint32_t rank_;
  LinkPtr up_link_;
  BoundedQueue<PacketPtr> downstream_{1 << 16};
  BoundedQueue<PacketPtr> peer_messages_{1 << 12};
  mutable std::mutex mutex_;
  std::condition_variable stream_known_cv_;
  std::set<std::uint32_t> known_streams_;
  bool shutting_down_ = false;

  mutable std::mutex send_mutex_;
  std::condition_variable send_resumed_cv_;
  bool sends_paused_ = false;
};

/// A fully instantiated TBON.
class Network {
 public:
  /// Instantiate the tree described by `options` (see NetworkOptions): one
  /// thread per node in kThreaded mode, one forked OS process per node in
  /// kProcess mode, and in kRemote mode one OS process per non-root node
  /// (launched by RemoteOptions::spawn, default: local fork) that connects
  /// to its tree neighbours over TCP and drives all of its socket I/O from
  /// a single epoll event loop.  All three share NodeRuntime, so the
  /// semantics — and the telemetry and recovery subsystems — are identical.
  static std::unique_ptr<Network> create(NetworkOptions options);

  /// Node-process entry point for the remote instantiation (the default
  /// fork launcher and net::maybe_run_remote_node land here): dial the
  /// front-end's bootstrap listener at `bootstrap` ("host:port"), take node
  /// `id`'s place in the tree, and exit the process when the tree shuts
  /// down.  Never returns.
  [[noreturn]] static void run_remote_node(
      NodeId id, const std::string& bootstrap,
      const std::function<void(BackEnd&)>& backend_main);

  /// True when this network runs in NetworkMode::kProcess.
  bool is_process_mode() const noexcept { return mode_ == NetworkMode::kProcess; }

  /// True when this network runs in NetworkMode::kRemote.
  bool is_remote_mode() const noexcept { return mode_ == NetworkMode::kRemote; }

  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const noexcept { return topology_; }
  FrontEnd& front_end() noexcept { return *front_end_; }

  /// Back-end handle by rank: dynamic ranks (numbered after the static
  /// ones) in every mode, static ranks in threaded mode only.  backend_main
  /// is the portable entry point; this stays for in-process programs that
  /// send from threads of their own, such as perfbench's fixed-schedule
  /// generator or a test timing a kill.
  BackEnd& backend(std::uint32_t rank);
  /// Number of back-ends, including dynamically attached ones.
  std::size_t num_backends() const;

  /// Failure injection: abruptly terminate a non-root node.  Its peers see
  /// EOF; wait_for_all filters upstream degrade to the surviving children,
  /// and with RecoveryOptions::auto_readopt its orphaned children rejoin the
  /// tree.  Threaded mode closes the node's inbox; process mode sends a
  /// kTagDie control packet down the tree (the target crashes abruptly on
  /// receipt, without shutdown handshakes).
  void kill_node(NodeId id);

  /// Block until at least `count` orphan re-adoptions have completed since
  /// the network was created; false on timeout.
  bool wait_for_adoptions(std::size_t count, std::chrono::milliseconds timeout);

  /// Re-adoptions completed so far.
  std::size_t adoption_count() const;

  /// Current parent of `id` in the effective (post-recovery) topology; this
  /// diverges from topology() once subtrees have been re-adopted.  Dynamic
  /// back-ends have node ids numbered after the topology's last node.
  NodeId effective_parent(NodeId id) const;

  /// Orderly tree-wide teardown (idempotent): broadcasts SHUTDOWN, waits for
  /// all acknowledgements, flushes filters, joins all threads.
  void shutdown();

  /// Post-shutdown (or live) metrics for a node.
  NodeMetricsSnapshot node_metrics(NodeId id) const;

  FilterRegistry& registry() noexcept { return registry_; }

 private:
  friend class Stream;
  friend class FrontEnd;
  class RootDelegate;

  /// Topology, mode, recovery options and channel factory; no runtimes yet.
  explicit Network(const NetworkOptions& options);
  /// Process or remote mode: every node except the root is its own process.
  bool forked() const noexcept { return mode_ != NetworkMode::kThreaded; }
  static std::unique_ptr<Network> create_threaded_impl(const NetworkOptions& options);
  static std::unique_ptr<Network> create_process_impl(const NetworkOptions& options);
  static std::unique_ptr<Network> create_remote_impl(const NetworkOptions& options);
  /// Threaded mode: run `backend_main` on one thread per static back-end.
  void start_backends(std::function<void(BackEnd&)> backend_main);
  /// Run the body on `backend`, whose runtime is `leaf`.  An escaped
  /// exception is logged and closes the leaf's inbox: the parent sees EOF.
  static void run_backend_main(const std::function<void(BackEnd&)>& backend_main,
                               BackEnd& backend, NodeRuntime& leaf);
  void start_telemetry(const TelemetryOptions& telemetry);
  void send_to_root(PacketPtr packet);
  void send_batch_to_root(std::span<const PacketPtr> packets);
  void on_result(std::uint32_t stream_id, PacketPtr packet);
  void on_stream_deleted(std::uint32_t stream_id);
  void on_subscription(const std::string& prefix, std::uint32_t rank, bool added);
  void on_shutdown_complete();

  // ---- planned reconfiguration engine (network.cpp) -------------------
  // FrontEnd::reconfigure delegates here; ops are serialized on the caller
  // thread under reconfig_op_mutex_ so concurrent deltas interleave whole
  // operations, never phases.
  ReconfigResult reconfigure(TopologyDelta delta);
  std::vector<NodeLoad> node_loads() const;
  void on_reconfig_ack(std::int64_t op_id, NodeId subject);  ///< root delegate
  ReconfigOpResult apply_reconfig_op(const ReconfigOp& op);
  ReconfigOpResult reconfig_add_leaf(const ReconfigOp& op);
  ReconfigOpResult reconfig_remove_leaf(const ReconfigOp& op);
  ReconfigOpResult reconfig_move_subtree(const ReconfigOp& op);
  ReconfigOpResult reconfig_split(const ReconfigOp& op);
  ReconfigOpResult reconfig_merge(const ReconfigOp& op);
  /// Shared body of split (migrate the second half of op.node's children)
  /// and merge (migrate all of them); threaded mode only.
  ReconfigOpResult migrate_children(const ReconfigOp& op, bool merge_all);
  /// Resolve a kAutoPlacement parent via the policy over interior loads.
  NodeId resolve_parent(NodeId requested) const;
  /// Send `packet` into the root runtime's control plane and wait until the
  /// matching (op_id, subject) acknowledgement climbs back; false on
  /// ReconfigOptions::op_timeout_ms expiry.
  bool await_reconfig_ack(std::int64_t op_id, NodeId subject, PacketPtr packet);
  /// Re-home a live interior/leaf runtime under a new parent (threaded
  /// mode), reusing the adoption rewiring plus rank re-routing along both
  /// parent chains.
  bool rehome_threaded(NodeRuntime& mover, NodeId new_parent);
  /// The rewiring shared by threaded re-adoption and re-homing: epoch bump,
  /// a fresh edge under `adopter` serving `ranks` (fresh gates: a full
  /// re-baselined window), and the leaf handle relinked onto it.  Returns
  /// the node's child slot at the adopter (recovery_mutex_ held).
  std::uint32_t attach_threaded(NodeRuntime& node, NodeRuntime& adopter,
                                std::vector<std::uint32_t> ranks);
  /// Attach a dynamic back-end under `parent` (reconfig_add_leaf's engine
  /// path) and return its handle: a leaf runtime, handle and thread like a
  /// static leaf's, adopted through attach_threaded.
  BackEnd& attach_backend_at(NodeId parent);
  /// Live children of `node` in the effective (post-move) topology, dynamic
  /// back-ends included, skipping planned-detached leaves (recovery_mutex_
  /// held).
  std::vector<NodeId> effective_children_locked(NodeId node) const;
  /// Node id of back-end `rank`, nullopt for an unknown rank; and the rank
  /// of leaf `id`, nullopt for an interior or unknown node.  Dynamic
  /// back-ends continue both numberings past the static topology
  /// (recovery_mutex_ held).
  std::optional<NodeId> leaf_node_locked(std::uint32_t rank) const;
  std::optional<std::uint32_t> leaf_rank_locked(NodeId id) const;
  /// The runtime of node `id` if it runs in this process, else null.
  NodeRuntime* local_runtime(NodeId id) const;
  /// Set up a runtime of this process other than a forked mode's root:
  /// flow control, heartbeats, the fault injector, and the re-adoption and
  /// re-home handlers.
  void configure_local(NodeRuntime& runtime);
  /// Re-point rank routes along the old and new parent chains after a move
  /// (recovery_mutex_ held).
  void reroute_ranks_locked(const std::vector<std::uint32_t>& ranks,
                            NodeId old_parent, NodeId new_parent);
  bool readopt_threaded(NodeRuntime& orphan);
  /// Graft an orphan that reached the rendezvous onto the root, on pump_
  /// (process and remote mode).
  void adopt_orphan(Fd connection, const OrphanHello& hello);

  // The process and remote instantiations (defined in process_network.cpp).
  /// What every node process runs under, built from `options` (plus the
  /// rendezvous endpoint once auto_readopt made one): shipped to remote
  /// nodes in the bootstrap NodeConfig frame, handed to forked process-mode
  /// children by reference.
  net::NodeConfig node_config(const NetworkOptions& options) const;
  /// Set up a runtime from its NodeConfig: flow control, filter execution,
  /// heartbeats and its own fault injector.
  static void configure_runtime(NodeRuntime& runtime, const net::NodeConfig& config);
  /// Before the forks: the root runtime, set up from `config` like every
  /// node process.
  NodeRuntime& make_root(const net::NodeConfig& config);
  /// Once the root's children are wired on pump_: the front-end handle, the
  /// orphan rendezvous's acceptor, the root's thread and telemetry.
  void start_root(const TelemetryOptions& telemetry);
  /// Reap node processes this process forked.  Without `force` each gets a
  /// grace period to finish its shutdown before it is killed.
  static void reap_children(const std::vector<int>& pids, bool force);
  using PumpFactory = std::function<std::unique_ptr<SocketPump>(MetricsRegistry*)>;
  /// The body of every process- and remote-mode node process once its tree
  /// edges are connected sockets: build the runtime and its pump (from
  /// `make_pump`, given the runtime's metrics), wire `parent` and
  /// `children` (slot order) on it, re-adopt through the rendezvous after a
  /// parent failure, run until the tree shuts down, then flush and stop the
  /// pump.  An injected crash exits the process once the pump has drained.
  /// `on_ready` runs once every edge is wired.
  static void run_node(const net::NodeConfig& config, NodeId id, Fd parent,
                       std::vector<Fd> children, const PumpFactory& make_pump,
                       const std::function<void(BackEnd&)>& backend_main,
                       const std::function<void()>& on_ready);
  [[noreturn]] static void run_child_process(
      const net::NodeConfig& config, NodeId id, int parent_fd,
      const std::function<void(BackEnd&)>& backend_main);
  struct SpawnedChildren;
  /// Fork `id`'s children, one socketpair edge each.  Each child closes
  /// `rendezvous_listener_fd` (the front-end's; -1 below the root): only the
  /// front-end accepts orphans.
  static SpawnedChildren spawn_children(
      const net::NodeConfig& config, NodeId id, int my_parent_fd,
      int rendezvous_listener_fd, const std::function<void(BackEnd&)>& backend_main);

  Topology topology_;
  FilterRegistry& registry_ = FilterRegistry::instance();

  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;  // index = static NodeId
  /// Guards the growth of the containers dynamic back-ends join.
  mutable std::mutex dynamic_mutex_;
  /// Index = back-end rank; a static rank's entry is null when its leaf runs
  /// in another process.  Dynamic back-ends append (dynamic_mutex_).
  std::vector<std::unique_ptr<BackEnd>> backends_;
  /// Leaf runtimes of dynamic back-ends, index = node id - num_nodes
  /// (dynamic_mutex_).
  std::vector<std::unique_ptr<NodeRuntime>> dynamic_runtimes_;

  // Reconfiguration engine state (reconfig_op_mutex_ serializes whole
  // deltas; reconfig_ack_mutex_ guards the ack rendezvous with the root
  // runtime thread).
  ReconfigOptions reconfig_;
  std::mutex reconfig_op_mutex_;
  std::mutex reconfig_ack_mutex_;
  std::condition_variable reconfig_ack_cv_;
  std::set<std::pair<std::int64_t, NodeId>> reconfig_acks_;
  std::atomic<std::int64_t> next_reconfig_op_{1};
  /// Ranks removed by planned detach (recovery_mutex_); never reused.
  std::set<std::uint32_t> detached_ranks_;
  /// Child slot of every live (parent, child) tree edge, kept current across
  /// re-adoptions and planned moves so route updates can climb arbitrary
  /// effective-topology chains (recovery_mutex_).
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> edge_slots_;
  std::unique_ptr<RootDelegate> root_delegate_;
  std::vector<std::unique_ptr<BackEndDelegate>> leaf_delegates_;  ///< dynamic_mutex_
  std::unique_ptr<FrontEnd> front_end_;
  /// One per runtime of this process; dynamic back-ends append
  /// (dynamic_mutex_).
  std::vector<std::jthread> threads_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool shutdown_complete_ = false;

  // Telemetry state (see src/telemetry/); null unless enabled.
  std::unique_ptr<TelemetryCollector> collector_;

  // Tenancy roster (from NetworkOptions) and the root's view of the tree's
  // topic subscriptions: prefix -> subscriber ranks, updated on the root
  // runtime thread as kTagSubscribe packets climb to it.
  TenancyOptions tenancy_;
  std::map<std::string, std::set<std::uint32_t>> root_subs_;
  mutable std::mutex subs_mutex_;
  std::condition_variable subs_cv_;

  /// Wake hints for FrontEnd::recv_any: one stream id per result delivery.
  /// Hints are advisory (recv_any re-scans the streams on every wake), so
  /// overflow evicts the oldest hint rather than blocking the root runtime.
  BoundedQueue<std::uint32_t> ready_streams_{1 << 16};

  /// Builds every channel this process wires: start-up, dynamic attach,
  /// re-adoption and re-homing alike (node processes build their own).
  ChannelFactory channels_;

  // Recovery state (see src/recovery/).
  RecoveryOptions recovery_;
  /// Shared by the runtimes configure_local sets up; null without a plan.
  std::shared_ptr<FaultInjector> injector_;
  /// Effective parent of each node after re-adoptions, index = NodeId,
  /// dynamic back-ends included (recovery_mutex_).
  std::vector<NodeId> current_parent_;
  /// Per-leaf-rank relink seam over an in-process leaf's one upstream stack,
  /// so application threads keep sending across a parent swap; null for a
  /// leaf in another process (recovery_mutex_).
  std::vector<std::shared_ptr<RelinkableLink>> backend_relinks_;
  std::unique_ptr<RendezvousServer> rendezvous_;  ///< process/remote auto_readopt
  mutable std::mutex recovery_mutex_;
  std::condition_variable adoption_cv_;
  std::size_t adoptions_ = 0;

  NetworkMode mode_;  ///< the instantiation; fixed at creation
  // Process and remote mode (null/empty in threaded mode): the root's socket
  // pump, which owns the root's tree sockets, and the node processes this
  // process forked.
  std::shared_ptr<SocketPump> pump_;
  std::vector<int> child_pids_;

  /// Threaded mode's body and its thread per static back-end; last, so the
  /// threads join before anything they use is destroyed.
  std::function<void(BackEnd&)> backend_main_;
  std::vector<std::jthread> backend_threads_;
};

}  // namespace tbon
