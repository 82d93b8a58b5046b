#include "core/network.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/delegates.hpp"
#include "core/socket_pump.hpp"

namespace tbon {

using namespace std::chrono_literals;

// ---- dynamic back-ends --------------------------------------------------------

BackEnd& Network::attach_backend_at(NodeId parent) {
  if (forked() && parent != topology_.root()) {
    // Only the root runtime shares the front-end's address space in these
    // modes, so a new leaf can be adopted nowhere else.
    throw ProtocolError(
        "dynamic back-ends attach at the root in process/remote mode");
  }
  if (parent >= topology_.num_nodes()) throw ProtocolError("parent id out of range");
  if (topology_.is_leaf(parent)) {
    throw ProtocolError("cannot attach a back-end under another back-end");
  }
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  NodeRuntime& adopter = *runtimes_[parent];
  if (adopter.is_dead()) throw ProtocolError("parent node is dead");
  std::lock_guard<std::mutex> dynamic_lock(dynamic_mutex_);
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shutdown_requested_) throw ProtocolError("network is shutting down");
  }

  // An ordinary leaf: its id and rank continue the static numbering.
  const auto id = static_cast<NodeId>(current_parent_.size());
  const auto rank = static_cast<std::uint32_t>(backends_.size());
  auto backend = std::unique_ptr<BackEnd>(new BackEnd(rank));
  auto delegate = std::make_unique<BackEndDelegate>(*backend);
  auto runtime = std::make_unique<NodeRuntime>(id, rank, registry_, delegate.get());
  configure_local(*runtime);
  // The handle sends through a relink seam, as a static leaf's does;
  // attach_threaded links it to the new edge before anything can send.
  backend->up_link_ = backend_relinks_.emplace_back(std::make_shared<RelinkableLink>(nullptr));
  current_parent_.push_back(parent);
  edge_slots_[{parent, id}] = attach_threaded(*runtime, adopter, {rank});
  // A new leaf has no old parent chain: this routes its rank above `parent`.
  reroute_ranks_locked({rank}, parent, parent);

  NodeRuntime& leaf = *dynamic_runtimes_.emplace_back(std::move(runtime));
  leaf_delegates_.push_back(std::move(delegate));
  threads_.emplace_back([&leaf] { leaf.run(); });
  return *backends_.emplace_back(std::move(backend));
}

// ---- Stream -----------------------------------------------------------------

Stream::Stream(Network& network, StreamSpec spec)
    : network_(network), spec_(std::move(spec)) {}

void Stream::send(std::int32_t tag, std::string_view format,
                  std::vector<DataValue> values) {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  network_.send_to_root(
      Packet::make(spec_.id, tag, kFrontEndRank, format, std::move(values)));
}

void Stream::send(std::int32_t tag, BufferView payload) {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  network_.send_to_root(
      Packet::make_view(spec_.id, tag, kFrontEndRank, std::move(payload)));
}

PacketPtr Stream::make_packet(std::int32_t tag, std::string_view format,
                              std::vector<DataValue> values) const {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  return Packet::make(spec_.id, tag, kFrontEndRank, format, std::move(values));
}

void Stream::send_batch(std::span<const PacketPtr> packets) {
  for (const PacketPtr& packet : packets) {
    if (!packet) throw ProtocolError("send_batch: null packet");
    if (packet->stream_id() != spec_.id) {
      throw ProtocolError("send_batch: packet for stream " +
                          std::to_string(packet->stream_id()) +
                          " sent on stream " + std::to_string(spec_.id));
    }
    if (packet->tag() < kFirstAppTag) {
      throw ProtocolError("application tags must be >= kFirstAppTag");
    }
  }
  network_.send_batch_to_root(packets);
}

RecvResult Stream::make_result(std::optional<PacketPtr> popped) {
  if (popped) return RecvResult(std::move(*popped));
  if (results_.closed()) {
    // Drain-then-fail queues only report empty-and-closed once every buffered
    // packet has been handed out, so a terminal status means "truly done".
    return RecvResult(deleted_.load(std::memory_order_acquire)
                          ? RecvStatus::kStreamClosed
                          : RecvStatus::kShutdown);
  }
  return RecvResult(RecvStatus::kTimeout);
}

RecvResult Stream::recv() { return make_result(results_.pop()); }

RecvResult Stream::recv_for(std::chrono::milliseconds timeout) {
  return make_result(results_.pop_for(timeout));
}

RecvResult Stream::recv_until(std::chrono::steady_clock::time_point deadline) {
  return make_result(results_.pop_until(deadline));
}

// ---- FrontEnd ---------------------------------------------------------------

Stream& FrontEnd::open_stream(StreamSpec spec) {
  std::sort(spec.endpoints.begin(), spec.endpoints.end());

  // Validate filter names eagerly so misconfigurations fail at the call site
  // rather than deep inside a communication process.
  FilterRegistry& registry = network_.registry();
  for (const auto& name : {spec.up_transform, spec.down_transform}) {
    if (!registry.has_transform(name)) throw FilterError("unknown transform filter '" + name + "'");
  }
  if (!registry.has_sync(spec.up_sync)) throw FilterError("unknown sync filter '" + spec.up_sync + "'");
  for (const std::uint32_t rank : spec.endpoints) {
    if (rank >= network_.num_backends()) {
      throw ProtocolError("endpoint rank " + std::to_string(rank) + " out of range");
    }
  }

  // Resolve the tenant's budget from the roster and pin it into the spec —
  // the announcement is what every node enforces, so the budget must ride it.
  if (spec.priority_class == Priority::kControl) spec.priority_class = Priority::kHigh;
  if (!spec.tenant_name.empty()) {
    if (const TenantOptions* budget = network_.tenancy_.find(spec.tenant_name)) {
      spec.tenant_credit_share = budget->credit_share();
      spec.tenant_max_inflight_bytes = budget->max_inflight_bytes();
      spec.tenant_priority_ceiling = budget->priority_ceiling();
    }
    if (spec.priority_class < spec.tenant_priority_ceiling) {
      spec.priority_class = spec.tenant_priority_ceiling;  // clamp to ceiling
    }
  }

  std::unique_ptr<Stream> stream;
  Stream* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spec.id = next_stream_id_++;
    stream = std::unique_ptr<Stream>(new Stream(network_, spec));
    raw = stream.get();
    streams_.emplace(spec.id, std::move(stream));
    if (!spec.topic_path.empty() && !topic_ids_.count(spec.topic_path)) {
      topic_ids_.emplace(spec.topic_path, spec.id);
    }
  }
  network_.send_to_root(spec.to_packet());
  return *raw;
}

Stream& FrontEnd::publish(const std::string& topic, std::int32_t tag,
                          std::string_view format, std::vector<DataValue> values) {
  if (topic.empty()) throw ProtocolError("publish needs a non-empty topic");
  Stream* stream = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = topic_ids_.find(topic);
    if (it != topic_ids_.end()) stream = streams_.at(it->second).get();
  }
  if (stream == nullptr) stream = &open_stream(StreamSpec::topic(topic));
  stream->send(tag, format, std::move(values));
  return *stream;
}

void FrontEnd::subscribe(const std::string& prefix) {
  network_.send_to_root(make_subscribe_packet(kFrontEndRank, prefix, true));
}

void FrontEnd::unsubscribe(const std::string& prefix) {
  network_.send_to_root(make_subscribe_packet(kFrontEndRank, prefix, false));
}

std::size_t FrontEnd::subscriber_count(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(network_.subs_mutex_);
  std::set<std::uint32_t> ranks;
  for (const auto& [prefix, subscribers] : network_.root_subs_) {
    if (topic_matches(prefix, topic)) ranks.insert(subscribers.begin(), subscribers.end());
  }
  return ranks.size();
}

bool FrontEnd::wait_subscribers(const std::string& topic, std::size_t count,
                                std::chrono::milliseconds timeout) {
  const auto matched = [&] {
    std::set<std::uint32_t> ranks;
    for (const auto& [prefix, subscribers] : network_.root_subs_) {
      if (topic_matches(prefix, topic)) ranks.insert(subscribers.begin(), subscribers.end());
    }
    return ranks.size();
  };
  std::unique_lock<std::mutex> lock(network_.subs_mutex_);
  return network_.subs_cv_.wait_for(lock, timeout, [&] { return matched() >= count; });
}

void FrontEnd::delete_stream(std::uint32_t stream_id) {
  network_.send_to_root(make_delete_stream_packet(stream_id));
}

void FrontEnd::load_filter_library(const std::string& path) {
  // Load synchronously into the local registry first so an open_stream issued
  // right after this call validates; then announce tree-wide (needed in
  // process mode, idempotent in threaded mode).
  network_.registry().load_library(path);
  network_.send_to_root(make_load_filter_packet(path));
}

Stream& FrontEnd::stream(std::uint32_t stream_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) throw ProtocolError("unknown stream " + std::to_string(stream_id));
  return *it->second;
}

AnyRecvResult FrontEnd::recv_any() { return recv_any_impl(std::nullopt); }

AnyRecvResult FrontEnd::recv_any_for(std::chrono::milliseconds timeout) {
  return recv_any_impl(std::chrono::steady_clock::now() + timeout);
}

AnyRecvResult FrontEnd::recv_any_until(std::chrono::steady_clock::time_point deadline) {
  return recv_any_impl(deadline);
}

AnyRecvResult FrontEnd::recv_any_impl(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  // Scan-then-wait: the ready_streams_ hints are advisory wakeups (they may
  // be evicted under overflow, and a concurrent Stream::recv() may have
  // consumed the hinted packet), so every wake re-scans all streams.  The
  // scan also guarantees progress when packets arrived before this call.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, stream] : streams_) {
        if (auto popped = stream->results_.try_pop()) {
          return AnyRecvResult{id, RecvResult(std::move(*popped))};
        }
      }
    }
    const auto hint = deadline ? network_.ready_streams_.pop_until(*deadline)
                               : network_.ready_streams_.pop();
    if (!hint) {
      // A packet-bearing push enqueues its hint before the queue can close,
      // and closed queues drain before reporting empty — so nullopt here
      // means "no packet is coming" (shutdown) or the deadline passed.
      if (network_.ready_streams_.closed()) {
        return AnyRecvResult{0, RecvResult(RecvStatus::kShutdown)};
      }
      return AnyRecvResult{0, RecvResult(RecvStatus::kTimeout)};
    }
  }
}

TreeMetricsSnapshot FrontEnd::metrics() const {
  if (!network_.collector_) {
    throw ProtocolError(
        "telemetry is disabled; create the network with TelemetryOptions::enabled");
  }
  return network_.collector_->snapshot();
}

std::string FrontEnd::metrics_json() const { return metrics().to_json(); }

ReconfigResult FrontEnd::reconfigure(TopologyDelta delta) {
  return network_.reconfigure(std::move(delta));
}

std::optional<ReconfigResult> FrontEnd::maybe_rebalance() {
  const ReconfigOptions& options = network_.reconfig_;
  {
    std::lock_guard<std::mutex> lock(rebalance_mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (last_rebalance_ != std::chrono::steady_clock::time_point{} &&
        now - last_rebalance_ < std::chrono::milliseconds(options.cooldown_ms)) {
      return std::nullopt;
    }
  }
  const std::vector<NodeLoad> loads = network_.node_loads();
  std::optional<TopologyDelta> delta = options.policy->propose(loads, options);
  if (!delta || delta->empty()) return std::nullopt;
  {
    // Stamp before applying: a failed rebalance still burns the cooldown so
    // a persistently saturated gauge cannot turn this into a retry hot loop.
    std::lock_guard<std::mutex> lock(rebalance_mutex_);
    last_rebalance_ = std::chrono::steady_clock::now();
  }
  return network_.reconfigure(std::move(*delta));
}

// ---- BackEnd ----------------------------------------------------------------

void BackEnd::wait_stream_known(std::uint32_t stream_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool known = stream_known_cv_.wait_for(lock, 10s, [&] {
    return known_streams_.count(stream_id) != 0 || shutting_down_;
  });
  if (!known || known_streams_.count(stream_id) == 0) {
    throw ProtocolError("stream " + std::to_string(stream_id) +
                        " never announced to back-end " + std::to_string(rank_));
  }
}

// The reconfiguration fence: pause_sends() returns only once it holds
// send_mutex_, i.e. once any in-flight send has fully handed its packet to
// the (old) upstream link — after that, everything the application sent is
// ahead of the detach/quiesce marker in the parent's FIFO inbox, and nothing
// new can slip onto the old edge until resume_sends().
void BackEnd::pause_sends() {
  std::lock_guard<std::mutex> lock(send_mutex_);
  sends_paused_ = true;
  // What a coalescer still holds goes out ahead of the leaf runtime's
  // quiesce ack, which shares this stack and flushes it.
}

void BackEnd::resume_sends() {
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    sends_paused_ = false;
  }
  send_resumed_cv_.notify_all();
}

void BackEnd::wait_send_allowed(std::unique_lock<std::mutex>& lock) {
  send_resumed_cv_.wait(lock, [&] { return !sends_paused_; });
}

void BackEnd::send(std::uint32_t stream_id, std::int32_t tag, std::string_view format,
                   std::vector<DataValue> values) {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  wait_stream_known(stream_id);
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send(Packet::make(stream_id, tag, rank_, format, std::move(values)));
}

void BackEnd::send(std::uint32_t stream_id, std::int32_t tag, BufferView payload) {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  wait_stream_known(stream_id);
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send(Packet::make_view(stream_id, tag, rank_, std::move(payload)));
}

PacketPtr BackEnd::make_packet(std::uint32_t stream_id, std::int32_t tag,
                               std::string_view format,
                               std::vector<DataValue> values) const {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  return Packet::make(stream_id, tag, rank_, format, std::move(values));
}

void BackEnd::send_batch(std::uint32_t stream_id, std::span<const PacketPtr> packets) {
  if (packets.empty()) return;
  for (const PacketPtr& packet : packets) {
    if (!packet) throw ProtocolError("send_batch: null packet");
    if (packet->stream_id() != stream_id) {
      throw ProtocolError("send_batch: packet for stream " +
                          std::to_string(packet->stream_id()) +
                          " sent on stream " + std::to_string(stream_id));
    }
    if (packet->tag() < kFirstAppTag) {
      throw ProtocolError("application tags must be >= kFirstAppTag");
    }
  }
  wait_stream_known(stream_id);
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send_batch(packets);
}

void BackEnd::subscribe(const std::string& prefix) {
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send(make_subscribe_packet(rank_, prefix, true));
}

void BackEnd::unsubscribe(const std::string& prefix) {
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send(make_subscribe_packet(rank_, prefix, false));
}

void BackEnd::send_to(std::uint32_t dst_rank, std::int32_t tag, std::string_view format,
                      std::vector<DataValue> values) {
  if (tag < kFirstAppTag) throw ProtocolError("application tags must be >= kFirstAppTag");
  const PacketPtr inner =
      Packet::make(kControlStream, tag, rank_, format, std::move(values));
  std::unique_lock<std::mutex> lock(send_mutex_);
  wait_send_allowed(lock);
  up_link_->send(make_peer_packet(dst_rank, *inner));
}

namespace {

/// Shared recv plumbing for the two back-end queues: a closed queue only
/// reads empty once drained, and back-end queues close exactly on shutdown.
RecvResult backend_result(BoundedQueue<PacketPtr>& queue,
                          std::optional<PacketPtr> popped) {
  if (popped) return RecvResult(std::move(*popped));
  return RecvResult(queue.closed() ? RecvStatus::kShutdown : RecvStatus::kTimeout);
}

}  // namespace

RecvResult BackEnd::recv() { return backend_result(downstream_, downstream_.pop()); }

RecvResult BackEnd::recv_for(std::chrono::milliseconds timeout) {
  return backend_result(downstream_, downstream_.pop_for(timeout));
}

RecvResult BackEnd::try_recv() {
  return backend_result(downstream_, downstream_.try_pop());
}

RecvResult BackEnd::recv_peer() {
  return backend_result(peer_messages_, peer_messages_.pop());
}

RecvResult BackEnd::recv_peer_for(std::chrono::milliseconds timeout) {
  return backend_result(peer_messages_, peer_messages_.pop_for(timeout));
}

RecvResult BackEnd::try_recv_peer() {
  return backend_result(peer_messages_, peer_messages_.try_pop());
}

bool BackEnd::shutting_down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutting_down_;
}

// ---- Network ----------------------------------------------------------------

Network::Network(const NetworkOptions& options)
    : topology_(options.topology),
      channels_(options.flow_control, options.batching),
      recovery_(options.recovery),
      mode_(options.mode) {
  backends_.resize(topology_.num_leaves());
  backend_relinks_.resize(topology_.num_leaves());
  if (!recovery_.fault_plan.empty()) {
    injector_ = std::make_shared<FaultInjector>(recovery_.fault_plan);
  }
  current_parent_.resize(topology_.num_nodes());
  for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
    current_parent_[id] = topology_.is_root(id) ? id : topology_.node(id).parent;
    const auto& children = topology_.node(id).children;
    for (std::uint32_t slot = 0; slot < children.size(); ++slot) {
      edge_slots_[{id, children[slot]}] = slot;
    }
  }
}

std::unique_ptr<Network> Network::create(NetworkOptions options) {
  const Topology& topology = options.topology;
  if (topology.num_leaves() == 0 || topology.is_leaf(topology.root())) {
    throw TopologyError("a network needs at least one back-end distinct from the root");
  }
  if (options.telemetry.enabled && options.telemetry.interval_ms <= 0) {
    throw ProtocolError("TelemetryOptions::interval_ms must be positive");
  }
  switch (options.mode) {
    case NetworkMode::kThreaded:
    case NetworkMode::kProcess:
    case NetworkMode::kRemote: {
      auto network = options.mode == NetworkMode::kThreaded
                         ? create_threaded_impl(options)
                         : options.mode == NetworkMode::kProcess
                               ? create_process_impl(options)
                               : create_remote_impl(options);
      // The roster is a front-end-side lookup (open_stream resolves budgets
      // into the announcement), so storing it after instantiation is safe:
      // no application stream can open before create() returns.
      network->tenancy_ = std::move(options.tenancy);
      network->reconfig_ = std::move(options.reconfig);
      if (!network->reconfig_.policy) {
        network->reconfig_.policy = std::make_shared<LoadBalancedPolicy>();
      }
      return network;
    }
  }
  throw ProtocolError("unknown NetworkMode");
}

void Network::start_telemetry(const TelemetryOptions& telemetry) {
  if (!telemetry.enabled) return;
  const std::int64_t age_out_ms =
      telemetry.age_out_ms > 0 ? telemetry.age_out_ms : 5LL * telemetry.interval_ms;
  collector_ = std::make_unique<TelemetryCollector>(age_out_ms * 1'000'000);

  // Announce the reserved telemetry stream exactly like an application
  // stream: interior nodes instantiate metrics_merge behind a time_out sync
  // (window = publish interval), and every node arms its periodic publisher
  // when the announcement reaches it (FIFO, so before any data).
  StreamSpec spec;
  spec.id = kTelemetryStream;
  spec.up_transform = "metrics_merge";
  spec.up_sync = "time_out";
  spec.down_transform = "passthrough";
  spec.params = FilterParams()
                    .set("interval_ms", telemetry.interval_ms)
                    .set("window_ms", telemetry.interval_ms)
                    .to_wire();
  send_to_root(spec.to_packet());
}

std::unique_ptr<Network> Network::create_threaded_impl(const NetworkOptions& options) {
  auto network = std::unique_ptr<Network>(new Network(options));
  Network& net = *network;
  // NodeRuntime instances keep a reference to the topology for the lifetime
  // of the network, so wire them to the Network's own copy, never to the
  // caller's (possibly temporary) argument.
  const Topology& topo = net.topology_;

  net.root_delegate_ = std::make_unique<RootDelegate>(net);

  // First pass: runtimes, and each leaf's back-end handle and delegate.
  net.runtimes_.resize(topo.num_nodes());
  net.leaf_delegates_.resize(topo.num_leaves());
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    NodeRuntime::Delegate* delegate = nullptr;
    if (topo.is_root(id)) {
      delegate = net.root_delegate_.get();
    } else if (topo.is_leaf(id)) {
      const auto rank = topo.leaf_rank(id);
      net.backends_[rank] = std::unique_ptr<BackEnd>(new BackEnd(rank));
      net.leaf_delegates_[rank] = std::make_unique<BackEndDelegate>(*net.backends_[rank]);
      delegate = net.leaf_delegates_[rank].get();
    }
    net.runtimes_[id] = std::make_unique<NodeRuntime>(topo, id, net.registry_, delegate);
    // Leaves ignore the execution options (they run no filters).
    net.runtimes_[id]->set_execution(options.execution);
    net.configure_local(*net.runtimes_[id]);
  }

  // Second pass: one channel each way along every edge.  A leaf's runtime
  // and its application threads share the upstream stack, so the control
  // packets the runtime sends (quiesce and detach acks among them) flush
  // whatever the application left in its coalescer first.
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    const auto& children = topo.node(id).children;
    for (std::uint32_t slot = 0; slot < children.size(); ++slot) {
      const NodeId child = children[slot];
      NodeRuntime& parent_rt = *net.runtimes_[id];
      NodeRuntime& child_rt = *net.runtimes_[child];
      parent_rt.add_child_link(net.channels_.inproc(parent_rt, child_rt, Origin::kParent, 0));
      const bool leaf = topo.is_leaf(child);
      auto up = net.channels_.inproc(child_rt, parent_rt, Origin::kChild, slot,
                                     /*app_edge=*/leaf);
      child_rt.set_parent_link(up);
      if (leaf) {
        // Always relinkable: the handle must survive a parent swap whether
        // it comes from re-adoption (failure) or a planned re-home.
        const auto rank = topo.leaf_rank(child);
        net.backend_relinks_[rank] = std::make_shared<RelinkableLink>(std::move(up));
        net.backends_[rank]->up_link_ = net.backend_relinks_[rank];
      }
    }
  }

  net.front_end_ = std::unique_ptr<FrontEnd>(new FrontEnd(net));

  // Launch one service thread per node.
  net.threads_.reserve(topo.num_nodes());
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    net.threads_.emplace_back([runtime = net.runtimes_[id].get()] { runtime->run(); });
  }
  net.start_telemetry(options.telemetry);
  net.start_backends(options.backend_main);
  return network;
}

void Network::start_backends(std::function<void(BackEnd&)> backend_main) {
  if (!backend_main) return;
  backend_main_ = std::move(backend_main);
  // Like a forked leaf, each leaf stays in the tree after its body returns,
  // until shutdown.
  backend_threads_.reserve(topology_.num_leaves());
  for (std::uint32_t rank = 0; rank < topology_.num_leaves(); ++rank) {
    BackEnd& backend = *backends_[rank];
    NodeRuntime& leaf = *runtimes_[topology_.leaves()[rank]];
    backend_threads_.emplace_back(
        [this, &backend, &leaf] { run_backend_main(backend_main_, backend, leaf); });
  }
}

void Network::run_backend_main(const std::function<void(BackEnd&)>& backend_main,
                               BackEnd& backend, NodeRuntime& leaf) {
  try {
    backend_main(backend);
    return;
  } catch (const std::exception& error) {
    TBON_ERROR("back-end " << backend.rank() << " failed: " << error.what());
  } catch (...) {
    TBON_ERROR("back-end " << backend.rank() << " failed");
  }
  leaf.inbox()->close();  // what kill_node does to a threaded node
}

void Network::configure_local(NodeRuntime& runtime) {
  if (channels_.flow_control().enabled) runtime.set_flow_control(channels_.flow_control());
  if (injector_) runtime.set_fault_injector(injector_);
  const HeartbeatConfig hb = recovery_.heartbeat();
  if (hb.enabled()) runtime.set_recovery(hb);
  if (runtime.role() == NodeRole::kRoot) return;
  if (recovery_.auto_readopt) {
    runtime.set_orphan_handler([this](NodeRuntime& orphan) { return readopt_threaded(orphan); });
  }
  // Planned re-homes run on the mover's own runtime thread (the rehome frame
  // arrives there), independent of auto_readopt.
  runtime.set_rehome_handler([this](NodeRuntime& mover, NodeId new_parent) {
    return rehome_threaded(mover, new_parent);
  });
}

bool Network::readopt_threaded(NodeRuntime& orphan) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shutdown_requested_) return false;
  }
  // A muted node simulates a hang: re-admitting it would reintroduce the
  // fault, so let it die and its children recover around it.
  if (injector_ && injector_->sends_muted(orphan.id())) return false;
  const NodeId self = orphan.id();
  // Climb the effective topology past dead ancestors to the first live one;
  // the root never dies, so the climb terminates.
  NodeId ancestor = current_parent_[self];  // the parent that just died
  do {
    ancestor = current_parent_[ancestor];
  } while (ancestor != topology_.root() && runtimes_[ancestor]->is_dead());
  if (runtimes_[ancestor]->is_dead()) return false;  // tearing down
  NodeRuntime& adopter = *runtimes_[ancestor];

  const std::uint32_t slot = attach_threaded(
      orphan, adopter,
      orphan.role() == NodeRole::kLeaf ? orphan.served_ranks()
                                       : topology_.subtree_leaf_ranks(self));
  TBON_INFO("node " << self << " re-adopted by ancestor " << ancestor
                    << " at slot " << slot);
  edge_slots_.erase({current_parent_[self], self});
  edge_slots_[{ancestor, self}] = slot;
  current_parent_[self] = ancestor;
  ++adoptions_;
  adoption_cv_.notify_all();
  return true;
}

std::uint32_t Network::attach_threaded(NodeRuntime& node, NodeRuntime& adopter,
                                       std::vector<std::uint32_t> ranks) {
  const std::uint32_t epoch = node.bump_parent_epoch();
  const std::uint32_t slot = adopter.reserve_child_slot();
  // Queue the adoption at the adopter *before* handing the node its new
  // parent link: the adopter's inbox is FIFO, so the wiring marker is
  // processed before any data the node (or its back-end handle) sends.  The
  // new edge gets fresh gates — a full re-baselined window: packets in flight
  // on a dead edge are gone with their credits, and a planned move's quiesce
  // fence drained the old one — and both granters are swapped inside
  // inproc(), before any data can flow.
  adopter.request_adopt(slot, std::move(ranks),
                        channels_.inproc(adopter, node, Origin::kParent, epoch));
  const bool leaf = node.role() == NodeRole::kLeaf;
  auto up = channels_.inproc(node, adopter, Origin::kChild, slot, /*app_edge=*/leaf);
  node.set_parent_link(up);
  if (leaf) backend_relinks_[node.leaf_rank()]->relink(std::move(up));
  return slot;
}

bool Network::wait_for_adoptions(std::size_t count, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(recovery_mutex_);
  return adoption_cv_.wait_for(lock, timeout, [&] { return adoptions_ >= count; });
}

std::size_t Network::adoption_count() const {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  return adoptions_;
}

NodeId Network::effective_parent(NodeId id) const {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  if (id >= current_parent_.size()) throw ProtocolError("node id out of range");
  return current_parent_[id];
}

// ---- planned reconfiguration engine -----------------------------------------
//
// The engine runs on the operator's thread (FrontEnd::reconfigure), fully
// serialized under reconfig_op_mutex_.  Its wire-protocol phases (quiesce /
// rehome / detach) are fenced by control-stream acknowledgements, for static
// and dynamic back-ends alike.

ReconfigResult Network::reconfigure(TopologyDelta delta) {
  std::lock_guard<std::mutex> op_lock(reconfig_op_mutex_);
  ReconfigResult result;
  MetricsRegistry& root_metrics = runtimes_[topology_.root()]->metrics();
  for (const ReconfigOp& op : delta.ops()) {
    ReconfigOpResult r;
    try {
      r = apply_reconfig_op(op);
    } catch (const Error& error) {
      r.op = op;
      r.ok = false;
      r.message = error.what();
    }
    root_metrics.reconfig_ops.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok) {
      root_metrics.reconfig_ops_failed.fetch_add(1, std::memory_order_relaxed);
      TBON_WARN("reconfigure: " << r.message);
    }
    result.add(std::move(r));
  }
  return result;
}

ReconfigOpResult Network::apply_reconfig_op(const ReconfigOp& op) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shutdown_requested_) {
      ReconfigOpResult r;
      r.op = op;
      r.message = "network is shutting down";
      return r;
    }
  }
  switch (op.kind) {
    case ReconfigOpKind::kAddLeaf: return reconfig_add_leaf(op);
    case ReconfigOpKind::kRemoveLeaf: return reconfig_remove_leaf(op);
    case ReconfigOpKind::kSplit: return reconfig_split(op);
    case ReconfigOpKind::kMerge: return reconfig_merge(op);
    case ReconfigOpKind::kMoveSubtree: return reconfig_move_subtree(op);
  }
  ReconfigOpResult r;
  r.op = op;
  r.message = "unknown operation kind";
  return r;
}

std::vector<NodeLoad> Network::node_loads() const {
  std::vector<NodeLoad> loads;
  // Interiors without a local runtime (process/remote children) report their
  // gauges through the telemetry stream when it is enabled; a node that has
  // not reported yet simply is not a placement candidate.
  std::optional<TreeMetricsSnapshot> tree;
  if (forked() && collector_) tree = collector_->snapshot();
  for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
    if (topology_.is_leaf(id)) continue;
    NodeLoad load;
    load.node = id;
    if (id < runtimes_.size() && runtimes_[id]) {
      if (runtimes_[id]->is_dead()) continue;
      load.fan_in = runtimes_[id]->live_child_count();
      const NodeTelemetry record = runtimes_[id]->telemetry_snapshot();
      load.exec_queue_depth = record.exec_queue_depth;
      load.inbox_depth = record.inbox_depth;
    } else if (tree) {
      const NodeTelemetry* record = tree->find(id);
      if (record == nullptr) continue;
      {
        std::lock_guard<std::mutex> lock(recovery_mutex_);
        load.fan_in = effective_children_locked(id).size();
      }
      load.exec_queue_depth = record->exec_queue_depth;
      load.inbox_depth = record->inbox_depth;
    } else {
      continue;
    }
    loads.push_back(load);
  }
  return loads;
}

std::vector<NodeId> Network::effective_children_locked(NodeId node) const {
  std::vector<NodeId> children;
  for (NodeId id = 0; id < current_parent_.size(); ++id) {
    if (id == node || id == topology_.root() || current_parent_[id] != node) continue;
    const std::optional<std::uint32_t> rank = leaf_rank_locked(id);
    if (rank && detached_ranks_.count(*rank) != 0) continue;
    const NodeRuntime* runtime = local_runtime(id);
    if (runtime != nullptr && runtime->is_dead()) continue;
    children.push_back(id);
  }
  return children;
}

std::optional<NodeId> Network::leaf_node_locked(std::uint32_t rank) const {
  if (rank < topology_.num_leaves()) return topology_.leaves()[rank];
  const NodeId id = topology_.num_nodes() + (rank - topology_.num_leaves());
  if (id >= current_parent_.size()) return std::nullopt;
  return id;
}

std::optional<std::uint32_t> Network::leaf_rank_locked(NodeId id) const {
  if (id < topology_.num_nodes()) {
    if (!topology_.is_leaf(id)) return std::nullopt;
    return topology_.leaf_rank(id);
  }
  if (id >= current_parent_.size()) return std::nullopt;
  return static_cast<std::uint32_t>(topology_.num_leaves() + (id - topology_.num_nodes()));
}

NodeRuntime* Network::local_runtime(NodeId id) const {
  if (id < runtimes_.size()) return runtimes_[id].get();
  std::lock_guard<std::mutex> lock(dynamic_mutex_);
  const std::size_t index = id - topology_.num_nodes();
  return index < dynamic_runtimes_.size() ? dynamic_runtimes_[index].get() : nullptr;
}

NodeId Network::resolve_parent(NodeId requested) const {
  if (requested != kAutoPlacement) return requested;
  if (forked()) return topology_.root();
  const std::vector<NodeLoad> loads = node_loads();
  const NodeId chosen = reconfig_.policy->choose_parent(loads);
  return chosen == kAutoPlacement ? topology_.root() : chosen;
}

bool Network::await_reconfig_ack(std::int64_t op_id, NodeId subject,
                                 PacketPtr packet) {
  // Send before locking: the ack is delivered on the root runtime thread,
  // which must never find this mutex held across a blocking inbox push.
  send_to_root(std::move(packet));
  std::unique_lock<std::mutex> lock(reconfig_ack_mutex_);
  const auto key = std::make_pair(op_id, subject);
  const bool acked = reconfig_ack_cv_.wait_for(
      lock, std::chrono::milliseconds(reconfig_.op_timeout_ms),
      [&] { return reconfig_acks_.count(key) != 0; });
  if (acked) reconfig_acks_.erase(key);
  return acked;
}

void Network::on_reconfig_ack(std::int64_t op_id, NodeId subject) {
  {
    std::lock_guard<std::mutex> lock(reconfig_ack_mutex_);
    reconfig_acks_.emplace(op_id, subject);
  }
  reconfig_ack_cv_.notify_all();
}

ReconfigOpResult Network::reconfig_add_leaf(const ReconfigOp& op) {
  ReconfigOpResult r;
  r.op = op;
  const NodeId parent = resolve_parent(op.node);
  if (parent >= topology_.num_nodes() || topology_.is_leaf(parent)) {
    r.message = "add_leaf: no usable parent (" + std::to_string(parent) + ")";
    return r;
  }
  BackEnd& backend = attach_backend_at(parent);
  r.ok = true;
  r.new_rank = backend.rank();
  r.resolved_target = parent;
  runtimes_[topology_.root()]->metrics().reconfig_joins.fetch_add(
      1, std::memory_order_relaxed);
  return r;
}

ReconfigOpResult Network::reconfig_remove_leaf(const ReconfigOp& op) {
  ReconfigOpResult r;
  r.op = op;
  const std::uint32_t rank = op.rank;
  NodeId leaf = 0;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    const std::optional<NodeId> node = leaf_node_locked(rank);
    if (!node) {
      r.message = "remove_leaf: unknown rank " + std::to_string(rank);
      return r;
    }
    if (detached_ranks_.count(rank) != 0) {
      r.message = "remove_leaf: rank " + std::to_string(rank) + " already detached";
      return r;
    }
    leaf = *node;
  }
  // Drive the wire protocol, so it works identically when the leaf runs in
  // another process or on another host.
  const std::int64_t op_id = next_reconfig_op_.fetch_add(1);
  if (!await_reconfig_ack(op_id, leaf, make_detach_packet(op_id, rank))) {
    r.message = "remove_leaf: detach of rank " + std::to_string(rank) +
                " timed out";
    return r;
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    detached_ranks_.insert(rank);
    const NodeId parent = current_parent_[leaf];
    for (NodeId node = parent;; node = current_parent_[node]) {
      if (node < runtimes_.size() && runtimes_[node]) {
        runtimes_[node]->request_unroute(rank);
      }
      if (node == topology_.root()) break;
    }
    edge_slots_.erase({parent, leaf});
  }
  r.ok = true;
  r.new_rank = rank;
  return r;
}

ReconfigOpResult Network::reconfig_move_subtree(const ReconfigOp& op) {
  ReconfigOpResult r;
  r.op = op;
  const NodeId node = op.node;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    if (node >= current_parent_.size() || node == topology_.root()) {
      r.message = "move_subtree: invalid node " + std::to_string(node);
      return r;
    }
  }

  // Membership of the *effective* subtree decides both cycle prevention and
  // which rank can still carry frames down to the node.
  const auto inside_subtree = [&](NodeId candidate) {
    for (NodeId n = candidate;; n = current_parent_[n]) {
      if (n == node) return true;
      if (n == topology_.root()) return false;
    }
  };

  NodeId target = op.target;
  if (forked()) {
    if (!recovery_.auto_readopt) {
      r.message =
          "move_subtree needs RecoveryOptions::auto_readopt in process/remote "
          "mode (re-homes rendezvous like orphans)";
      return r;
    }
    if (target == kAutoPlacement) target = topology_.root();
    if (target != topology_.root()) {
      r.message = "process/remote re-homes attach at the root";
      return r;
    }
  } else if (target == kAutoPlacement) {
    std::vector<NodeLoad> candidates;
    {
      std::lock_guard<std::mutex> lock(recovery_mutex_);
      for (const NodeLoad& load : node_loads()) {
        if (load.node != node && !inside_subtree(load.node)) {
          candidates.push_back(load);
        }
      }
    }
    target = reconfig_.policy->choose_parent(candidates);
    if (target == kAutoPlacement) target = topology_.root();
  }
  if (target >= topology_.num_nodes() || topology_.is_leaf(target) ||
      target == node) {
    r.message = "move_subtree: invalid target " + std::to_string(target);
    return r;
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    if (inside_subtree(target)) {
      r.message = "move_subtree: target " + std::to_string(target) +
                  " is inside the moving subtree";
      return r;
    }
  }
  if (target < runtimes_.size() && runtimes_[target] &&
      runtimes_[target]->is_dead()) {
    r.message = "move_subtree: target " + std::to_string(target) + " is dead";
    return r;
  }
  r.resolved_target = target;

  // Frames route down via a back-end rank whose effective path still crosses
  // the node (planned detaches may have pruned parts of the static subtree).
  std::optional<std::uint32_t> via;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    for (NodeId id = 0; id < current_parent_.size() && !via; ++id) {
      const std::optional<std::uint32_t> rank = leaf_rank_locked(id);
      if (rank && detached_ranks_.count(*rank) == 0 && inside_subtree(id)) via = rank;
    }
  }
  if (!via) {
    r.message = "move_subtree: no routable back-end below node " +
                std::to_string(node);
    return r;
  }

  const std::int64_t quiesce_op = next_reconfig_op_.fetch_add(1);
  if (!await_reconfig_ack(quiesce_op, node,
                          make_quiesce_packet(quiesce_op, node, *via))) {
    r.message = "move_subtree: quiesce of node " + std::to_string(node) +
                " timed out";
    return r;
  }
  const std::int64_t rehome_op = next_reconfig_op_.fetch_add(1);
  if (!await_reconfig_ack(rehome_op, node,
                          make_rehome_packet(rehome_op, node, target, *via))) {
    r.message = "move_subtree: re-home of node " + std::to_string(node) +
                " under " + std::to_string(target) + " timed out";
    return r;
  }
  r.ok = true;
  return r;
}

void Network::reroute_ranks_locked(const std::vector<std::uint32_t>& ranks,
                                   NodeId old_parent, NodeId new_parent) {
  const auto chain = [&](NodeId from) {
    std::vector<NodeId> nodes;
    for (NodeId n = from;; n = current_parent_[n]) {
      nodes.push_back(n);
      if (n == topology_.root()) break;
    }
    return nodes;
  };
  const std::vector<NodeId> old_chain = chain(old_parent);
  const std::vector<NodeId> new_chain = chain(new_parent);
  const std::set<NodeId> keep(new_chain.begin(), new_chain.end());
  for (const NodeId stale : old_chain) {
    if (keep.count(stale) != 0) continue;  // shared ancestors re-point below
    if (stale < runtimes_.size() && runtimes_[stale] &&
        !runtimes_[stale]->is_dead()) {
      for (const std::uint32_t rank : ranks) {
        runtimes_[stale]->request_unroute(rank);
      }
    }
  }
  // Above the new parent each hop routes via the child slot on its way down;
  // the new parent itself learns the ranks from its adopt/attach marker.
  for (std::size_t i = 1; i < new_chain.size(); ++i) {
    const NodeId hop = new_chain[i];
    const auto edge = edge_slots_.find({hop, new_chain[i - 1]});
    if (edge == edge_slots_.end()) continue;
    if (hop < runtimes_.size() && runtimes_[hop] && !runtimes_[hop]->is_dead()) {
      for (const std::uint32_t rank : ranks) {
        runtimes_[hop]->request_route(rank, edge->second);
      }
    }
  }
}

bool Network::rehome_threaded(NodeRuntime& mover, NodeId new_parent) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shutdown_requested_) return false;
  }
  const NodeId self = mover.id();
  if (new_parent >= topology_.num_nodes() || topology_.is_leaf(new_parent) ||
      new_parent == self) {
    return false;
  }
  NodeRuntime& adopter = *runtimes_[new_parent];
  if (adopter.is_dead() || mover.is_dead()) return false;
  const NodeId old_parent = current_parent_[self];

  const std::vector<std::uint32_t> ranks = mover.served_ranks();
  const std::uint32_t slot = attach_threaded(mover, adopter, ranks);
  TBON_INFO("node " << self << " re-homed under node " << new_parent
                    << " at slot " << slot << " (planned)");
  reroute_ranks_locked(ranks, old_parent, new_parent);
  edge_slots_.erase({old_parent, self});
  edge_slots_[{new_parent, self}] = slot;
  current_parent_[self] = new_parent;
  return true;
}

ReconfigOpResult Network::reconfig_split(const ReconfigOp& op) {
  return migrate_children(op, /*merge_all=*/false);
}

ReconfigOpResult Network::reconfig_merge(const ReconfigOp& op) {
  return migrate_children(op, /*merge_all=*/true);
}

ReconfigOpResult Network::migrate_children(const ReconfigOp& op, bool merge_all) {
  ReconfigOpResult r;
  r.op = op;
  const char* verb = merge_all ? "merge" : "split";
  if (forked()) {
    r.message = std::string(verb) + ": rebalancing interiors is threaded-mode only";
    return r;
  }
  const NodeId node = op.node;
  if (node >= topology_.num_nodes() || topology_.is_leaf(node)) {
    r.message = std::string(verb) + ": node " + std::to_string(node) +
                " is not an interior node";
    return r;
  }

  std::vector<NodeId> children;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    children = effective_children_locked(node);
  }
  if (children.empty() || (!merge_all && children.size() < 2)) {
    r.message = std::string(verb) + ": node " + std::to_string(node) +
                " has nothing to migrate";
    return r;
  }

  NodeId target = op.target;
  if (target == kAutoPlacement) {
    // Any other interior is a candidate — including ones below `node` (the
    // canonical root split offloads onto an existing interior child).  A
    // target that would create a cycle for some specific child is rejected
    // per-child by reconfig_move_subtree.
    std::vector<NodeLoad> candidates;
    for (const NodeLoad& load : node_loads()) {
      if (load.node != node) candidates.push_back(load);
    }
    target = reconfig_.policy->choose_parent(candidates);
  }
  if (target == kAutoPlacement || target >= topology_.num_nodes() ||
      topology_.is_leaf(target) || target == node) {
    r.message = std::string(verb) + ": no usable migration target";
    return r;
  }
  r.resolved_target = target;

  // Split keeps the first half in place; merge drains everything.  Children
  // move one at a time through the same quiesce->rewire->replay path a
  // standalone move_subtree uses, so FIFO and filter-state guarantees hold
  // per child.
  const std::size_t keep = merge_all ? 0 : (children.size() + 1) / 2;
  std::size_t moved = 0;
  std::vector<std::string> failures;
  for (std::size_t index = keep; index < children.size(); ++index) {
    const NodeId child = children[index];
    if (child == target) continue;
    ReconfigOp sub;
    sub.kind = ReconfigOpKind::kMoveSubtree;
    sub.node = child;
    sub.target = target;
    const ReconfigOpResult sr = reconfig_move_subtree(sub);
    if (sr.ok) {
      ++moved;
    } else {
      failures.push_back(sr.message);
    }
  }
  if (moved == 0) {
    r.message = std::string(verb) + ": no child could be migrated" +
                (failures.empty() ? "" : (" (" + failures.front() + ")"));
    return r;
  }
  r.ok = failures.empty();
  if (!failures.empty()) {
    r.message = std::to_string(failures.size()) + " child move(s) failed: " +
                failures.front();
  }
  MetricsRegistry& root_metrics = runtimes_[topology_.root()]->metrics();
  (merge_all ? root_metrics.reconfig_merges : root_metrics.reconfig_splits)
      .fetch_add(1, std::memory_order_relaxed);
  return r;
}

Network::~Network() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw; force-close everything instead.
    for (auto& runtime : runtimes_) {
      if (runtime) runtime->inbox()->close();
    }
  }
}

BackEnd& Network::backend(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(dynamic_mutex_);
  if (rank >= backends_.size()) throw ProtocolError("back-end rank out of range");
  if (!backends_[rank]) {
    throw ProtocolError(
        "back-end handles live in their own processes in process/remote mode");
  }
  return *backends_[rank];
}

std::size_t Network::num_backends() const {
  std::lock_guard<std::mutex> lock(dynamic_mutex_);
  return backends_.size();
}

void Network::kill_node(NodeId id) {
  if (id == topology_.root()) throw ProtocolError("cannot kill the front-end");
  if (id >= topology_.num_nodes()) throw ProtocolError("node id out of range");
  TBON_INFO("injecting failure at node " << id);
  if (forked()) {
    // The victim lives in another process: send a targeted die request down
    // the tree; the node crashes abruptly on receipt (no handshakes).
    send_to_root(make_die_packet(id));
    return;
  }
  runtimes_[id]->inbox()->close();
}

void Network::send_to_root(PacketPtr packet) {
  runtimes_[topology_.root()]->inbox()->push(
      Envelope{Origin::kParent, 0, std::move(packet)});
}

void Network::send_batch_to_root(std::span<const PacketPtr> packets) {
  if (packets.empty()) return;
  if (packets.size() == 1) {
    send_to_root(packets.front());
    return;
  }
  auto batch = std::make_shared<const std::vector<PacketPtr>>(packets.begin(),
                                                              packets.end());
  runtimes_[topology_.root()]->inbox()->push(
      Envelope{Origin::kParent, 0, nullptr, std::move(batch)});
}

void Network::on_result(std::uint32_t stream_id, PacketPtr packet) {
  // Delivered on the root runtime thread.
  if (stream_id == kTelemetryStream) {
    if (collector_) {
      try {
        collector_->ingest(telemetry_packet_records(*packet));
      } catch (const Error& error) {
        TBON_WARN("dropping malformed telemetry packet: " << error.what());
      }
    }
    return;
  }
  try {
    front_end_->stream(stream_id).results_.push(std::move(packet));
    ready_streams_.push_evict_oldest(stream_id);
  } catch (const ProtocolError&) {
    TBON_WARN("dropping result for unknown stream " << stream_id);
  }
}

void Network::on_stream_deleted(std::uint32_t stream_id) {
  // Delivered on the root runtime thread, after the runtime flushed the
  // stream's sync buffer upward — every packet this stream will ever carry
  // is already in its results queue, so closing it turns the queue into
  // drain-then-kStreamClosed.
  if (stream_id == kTelemetryStream) return;
  try {
    Stream& stream = front_end_->stream(stream_id);
    stream.deleted_.store(true, std::memory_order_release);
    stream.results_.close();
  } catch (const ProtocolError&) {
    // Deleted before ever reaching the front-end map; nothing to mark.
  }
}

void Network::on_subscription(const std::string& prefix, std::uint32_t rank,
                              bool added) {
  // Delivered on the root runtime thread once a subscription finishes
  // climbing — the ack point wait_subscribers() blocks on.
  {
    std::lock_guard<std::mutex> lock(subs_mutex_);
    if (added) {
      root_subs_[prefix].insert(rank);
    } else {
      const auto it = root_subs_.find(prefix);
      if (it != root_subs_.end()) {
        it->second.erase(rank);
        if (it->second.empty()) root_subs_.erase(it);
      }
    }
  }
  subs_cv_.notify_all();
}

void Network::on_shutdown_complete() {
  // Every node published its final telemetry record before acknowledging
  // shutdown (FIFO channels order record before ack), so the collector now
  // holds the exact totals; freeze it against age-out.
  if (collector_) collector_->freeze();
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_complete_ = true;
  }
  shutdown_cv_.notify_all();
  // Unblock any Stream::recv() / FrontEnd::recv_any() waiting for results
  // that will never come.
  std::lock_guard<std::mutex> lock(front_end_->mutex_);
  for (auto& [id, stream] : front_end_->streams_) stream->results_.close();
  ready_streams_.close();
}

void Network::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shutdown_requested_) {
      // Another caller started it; fall through to wait.
    } else {
      shutdown_requested_ = true;
      send_to_root(make_shutdown_packet());
    }
  }
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  if (!shutdown_cv_.wait_for(lock, 30s, [&] { return shutdown_complete_; })) {
    TBON_ERROR("network shutdown timed out; force-closing");
    for (auto& runtime : runtimes_) {
      if (runtime) runtime->inbox()->close();
    }
    shutdown_cv_.wait_for(lock, 5s, [&] { return shutdown_complete_; });
  }
  lock.unlock();
  // Every leaf has shut down (or died), which released any body blocked in
  // recv or send.
  backend_threads_.clear();
  // Stop accepting orphans before tearing down transport state; after this
  // join no adoption can open a channel on the pump.
  if (rendezvous_) rendezvous_->stop();
  std::vector<std::jthread> threads;
  {
    std::lock_guard<std::mutex> dynamic_lock(dynamic_mutex_);
    // A dynamic leaf whose parent finished before adopting it never heard
    // of the shutdown; its closed inbox ends it (the others are done).
    for (auto& runtime : dynamic_runtimes_) runtime->inbox()->close();
    threads.swap(threads_);
  }
  threads.clear();  // join all service threads
  if (pump_) {
    // The root runtime shut down its child links on exit, so every node
    // process finishes and closes its end; stopping the pump releases the
    // root's sockets, then the processes this one forked are reaped.
    pump_->stop();
    pump_.reset();
    reap_children(std::exchange(child_pids_, {}), /*force=*/false);
  }
}

NodeMetricsSnapshot Network::node_metrics(NodeId id) const {
  if (id >= runtimes_.size()) throw ProtocolError("node id out of range");
  if (!runtimes_[id]) {
    throw ProtocolError(
        "this node runs in another process; its metrics arrive via "
        "FrontEnd::metrics() telemetry only");
  }
  return runtimes_[id]->telemetry_snapshot();
}

}  // namespace tbon
