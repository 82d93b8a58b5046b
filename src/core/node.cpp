#include "core/node.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.hpp"
#include "common/timer.hpp"

namespace tbon {

namespace {

/// The back-end ranks below each child slot of `id`.
std::vector<std::vector<std::uint32_t>> child_ranks(const Topology& topology, NodeId id) {
  std::vector<std::vector<std::uint32_t>> ranks;
  for (const NodeId child : topology.node(id).children) {
    ranks.push_back(topology.subtree_leaf_ranks(child));
  }
  return ranks;
}

}  // namespace

NodeRuntime::NodeRuntime(const Topology& topology, NodeId id, FilterRegistry& registry,
                         Delegate* delegate)
    : NodeRuntime(id,
                  topology.is_root(id)   ? NodeRole::kRoot
                  : topology.is_leaf(id) ? NodeRole::kLeaf
                                         : NodeRole::kInternal,
                  topology.is_leaf(id) ? topology.leaf_rank(id) : 0,
                  child_ranks(topology, id), registry, delegate) {}

NodeRuntime::NodeRuntime(NodeId id, std::uint32_t rank, FilterRegistry& registry,
                         Delegate* delegate)
    : NodeRuntime(id, NodeRole::kLeaf, rank, {}, registry, delegate) {}

NodeRuntime::NodeRuntime(NodeId id, NodeRole role, std::uint32_t leaf_rank,
                         std::vector<std::vector<std::uint32_t>> child_ranks,
                         FilterRegistry& registry, Delegate* delegate)
    : id_(id),
      role_(role),
      leaf_rank_(leaf_rank),
      registry_(registry),
      delegate_(delegate),
      inbox_(std::make_shared<Inbox>(/*capacity=*/4096)),
      child_alive_(child_ranks.size(), true),
      child_contributing_(child_ranks.size(), true),
      child_acked_(child_ranks.size(), false),
      live_children_(child_ranks.size()),
      contributing_children_(child_ranks.size()) {
  next_dynamic_slot_ = static_cast<std::uint32_t>(child_ranks.size());
  // Peer-message routing table: which child slot serves which back-end rank.
  for (std::uint32_t slot = 0; slot < child_ranks.size(); ++slot) {
    for (const std::uint32_t rank : child_ranks[slot]) rank_routes_[rank] = slot;
    slot_ranks_[slot] = std::move(child_ranks[slot]);
  }
}

std::uint32_t NodeRuntime::reserve_child_slot() noexcept {
  return next_dynamic_slot_.fetch_add(1, std::memory_order_relaxed);
}

void NodeRuntime::request_adopt(std::uint32_t slot, std::vector<std::uint32_t> ranks,
                                LinkPtr link) {
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    pending_child_ops_.push_back({PendingChildOp::Kind::kAdopt, slot, 0,
                                  std::move(ranks), std::move(link)});
  }
  inbox_->push(Envelope{Origin::kParent, 0, make_attach_marker_packet()});
}

void NodeRuntime::request_route(std::uint32_t backend_rank, std::uint32_t slot) {
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    pending_child_ops_.push_back(
        {PendingChildOp::Kind::kRoute, slot, backend_rank, {}, nullptr});
  }
  inbox_->push(Envelope{Origin::kParent, 0, make_attach_marker_packet()});
}

void NodeRuntime::request_unroute(std::uint32_t backend_rank) {
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    pending_child_ops_.push_back(
        {PendingChildOp::Kind::kUnroute, 0, backend_rank, {}, nullptr});
  }
  inbox_->push(Envelope{Origin::kParent, 0, make_attach_marker_packet()});
}

void NodeRuntime::set_flow_control(const FlowControlOptions& options) {
  fc_ = options;
  if (!fc_.enabled) return;
  // With credits on, per-channel data in flight is bounded by the window, so
  // an inbox sized over all channels (+ slack for exempt control/telemetry
  // traffic and wakeup markers) makes producer pushes effectively
  // non-blocking: backpressure is carried by credits, not by inbox blocking.
  const std::size_t channels = child_alive_.size() + 2;
  inbox_->resize(std::max<std::size_t>(4096, channels * fc_.window() + 1024));
}

void NodeRuntime::set_parent_granter(std::function<void(std::uint32_t)> granter) {
  std::lock_guard<std::mutex> lock(fc_mutex_);
  fc_parent_.granter = std::move(granter);
  fc_parent_.consumed = 0;
  fc_parent_.weighted = 0.0;
}

void NodeRuntime::set_child_granter(std::uint32_t slot,
                                    std::function<void(std::uint32_t)> granter) {
  std::lock_guard<std::mutex> lock(fc_mutex_);
  auto& channel = fc_children_[slot];
  channel.granter = std::move(granter);
  channel.consumed = 0;
  channel.weighted = 0.0;
}

void NodeRuntime::register_fc_link(std::shared_ptr<FlowControlledLink> link) {
  std::lock_guard<std::mutex> lock(fc_mutex_);
  fc_pump_.push_back(std::move(link));
}

void NodeRuntime::set_execution(const ExecutionOptions& options) {
  exec_options_ = options;
}

double NodeRuntime::grant_share(std::uint32_t stream_id) const {
  const auto cls = tenants_->classify(stream_id);
  if (cls.tenant == TenantTable::kNoTenant) return 1.0;
  return tenants_->budget(cls.tenant).credit_share();
}

void NodeRuntime::note_consumed(Origin origin, std::uint32_t slot,
                                std::uint32_t count, double share) {
  if (!fc_.enabled || count == 0) return;
  std::function<void(std::uint32_t)> granter;
  std::uint32_t grant = 0;
  bool weighted_pace = false;
  {
    std::lock_guard<std::mutex> lock(fc_mutex_);
    FcChannel* channel = nullptr;
    if (origin == Origin::kParent) {
      channel = &fc_parent_;
    } else {
      const auto it = fc_children_.find(slot);
      if (it != fc_children_.end()) channel = &it->second;
    }
    // Channels without a granter (e.g. the front-end's direct push into the
    // root inbox) are not flow-controlled; nothing to account.
    if (!channel || !channel->granter) return;
    channel->consumed += count;
    channel->weighted += static_cast<double>(count) *
                         (share > 0.0 && share <= 1.0 ? share : 1.0);
    if (channel->consumed >= fc_.grant_quantum()) {
      // Weighted grant pacing: grants for a channel whose traffic belongs to
      // fractional-share tenants come in proportionally larger, rarer quanta
      // (effective quantum = quantum / mean share), so at a fan-in point the
      // per-child refill rate tracks tenant share instead of raw FIFO
      // consumption order.  Clamped to the window: a sender at its full
      // window must always be granted, so the channel can never wedge — and
      // flush_partial_grants still rescues remainders at quiescence.
      const double mean_share =
          channel->weighted / static_cast<double>(channel->consumed);
      const double quantum = static_cast<double>(fc_.grant_quantum());
      double effective = quantum;
      if (mean_share < 1.0) {
        effective = std::min(quantum / std::max(mean_share, 1e-6),
                             static_cast<double>(fc_.window()));
      }
      if (static_cast<double>(channel->consumed) >= effective) {
        grant = channel->consumed;
        weighted_pace = effective > quantum;
        channel->consumed = 0;
        channel->weighted = 0.0;
        granter = channel->granter;
      }
    }
  }
  if (grant) {
    metrics_.fc_credits_granted.fetch_add(grant, std::memory_order_relaxed);
    if (weighted_pace) {
      metrics_.fc_weighted_grants.fetch_add(1, std::memory_order_relaxed);
    }
    granter(grant);
  }
}

void NodeRuntime::flush_partial_grants() {
  // Quantum-sized grants strand sub-quantum remainders at quiescence, which
  // would leave a sender's last packets pending forever; an idle loop tick
  // returns whatever has been consumed so far.
  std::vector<std::pair<std::function<void(std::uint32_t)>, std::uint32_t>> due;
  {
    std::lock_guard<std::mutex> lock(fc_mutex_);
    if (fc_parent_.granter && fc_parent_.consumed) {
      due.emplace_back(fc_parent_.granter, fc_parent_.consumed);
      fc_parent_.consumed = 0;
      fc_parent_.weighted = 0.0;
    }
    for (auto& [slot, channel] : fc_children_) {
      if (channel.granter && channel.consumed) {
        due.emplace_back(channel.granter, channel.consumed);
        channel.consumed = 0;
        channel.weighted = 0.0;
      }
    }
  }
  for (const auto& [granter, grant] : due) {
    metrics_.fc_credits_granted.fetch_add(grant, std::memory_order_relaxed);
    granter(grant);
  }
}

void NodeRuntime::pump_fc_links() {
  std::lock_guard<std::mutex> lock(fc_mutex_);
  for (const auto& link : fc_pump_) link->pump();
}

void NodeRuntime::set_recovery(const HeartbeatConfig& config) { hb_config_ = config; }

void NodeRuntime::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
}

void NodeRuntime::set_orphan_handler(std::function<bool(NodeRuntime&)> handler) {
  orphan_handler_ = std::move(handler);
}

void NodeRuntime::set_crash_handler(std::function<void()> handler) {
  crash_handler_ = std::move(handler);
}

void NodeRuntime::process_pending_attaches() {
  std::vector<PendingChildOp> ops;
  {
    std::lock_guard<std::mutex> lock(attach_mutex_);
    ops.swap(pending_child_ops_);
  }
  // Strict request order: an unroute+route pair queued by a subtree
  // migration re-points the rank in one drain without losing it.
  for (auto& op : ops) {
    switch (op.kind) {
      case PendingChildOp::Kind::kUnroute:
        rank_routes_.erase(op.backend_rank);
        break;
      case PendingChildOp::Kind::kRoute:
        rank_routes_[op.backend_rank] = op.slot;
        break;
      case PendingChildOp::Kind::kAdopt:
        TBON_INFO("node " << id_ << " adopting a child serving " << op.ranks.size()
                          << " back-end rank(s) at slot " << op.slot);
        wire_dynamic_child(op.slot, std::move(op.ranks), std::move(op.link));
        break;
    }
  }
}

void NodeRuntime::wire_dynamic_child(std::uint32_t slot,
                                     std::vector<std::uint32_t> ranks, LinkPtr link) {
  if (child_links_.size() <= slot) {
    child_links_.resize(slot + 1);
    child_alive_.resize(slot + 1, false);
    child_contributing_.resize(slot + 1, false);
    child_acked_.resize(slot + 1, false);
  }
  child_links_[slot] = std::move(link);
  child_alive_[slot] = true;
  child_acked_[slot] = false;
  ++live_children_;
  const bool was_empty = contributing_children_ == 0;
  if (!child_contributing_[slot]) {
    child_contributing_[slot] = true;
    ++contributing_children_;
  }
  // An emptied relay regaining its first member must re-arm the retired
  // wave-sync slot at its parent before any of the newcomer's data climbs
  // (both ride the same FIFO upstream link, so ordering is guaranteed).
  if (was_empty && role_ == NodeRole::kInternal && !shutting_down_) {
    notify_parent_membership(/*live=*/true);
  }
  for (const std::uint32_t rank : ranks) rank_routes_[rank] = slot;
  slot_ranks_[slot] = std::move(ranks);
  if (liveness_) liveness_->ensure_child(slot, now_ns());
  const auto& slot_ranks = slot_ranks_[slot];
  for (auto& [stream_id, stream] : streams_) {
    if (stream.slot_to_sync_index.size() <= slot) {
      stream.slot_to_sync_index.resize(slot + 1, -1);
    }
    const bool participates =
        stream.spec.endpoints.empty() ||
        std::any_of(slot_ranks.begin(), slot_ranks.end(),
                    [&](std::uint32_t rank) { return stream.spec.contains(rank); });
    if (participates && stream.slot_to_sync_index[slot] < 0) {
      const auto sync_index = stream.participating_slots.size();
      stream.slot_to_sync_index[slot] = static_cast<std::int32_t>(sync_index);
      stream.participating_slots.push_back(slot);
      if (stream.sync) apply_membership_change(stream, sync_index, /*added=*/true);
    }
    // Replay the announcement so the newcomer knows the stream exists.
    send_child(slot, stream.spec.to_packet());
  }
  if (shutting_down_) {
    send_child(slot, make_shutdown_packet());
    ++shutdown_acks_needed_;
  }
}

void NodeRuntime::run() {
  using namespace std::chrono_literals;
  if (hb_config_.enabled() && !liveness_) {
    liveness_ = std::make_unique<PeerLiveness>(
        hb_config_, role_ != NodeRole::kRoot && parent_link_ != nullptr,
        child_alive_.size(), now_ns());
  }
  // Leaves run no filters, so they never get a worker pool.
  if (exec_options_.enabled() && role_ != NodeRole::kLeaf && !executor_) {
    executor_ = std::make_unique<FilterExecutor>(exec_options_, &metrics_);
  }
  // At saturation this loop runs once per envelope, and per-iteration clock
  // reads are measurable overhead (telemetry arms a standing deadline, which
  // would otherwise cost a read before every pop).  One post-pop timestamp
  // serves the three polls and, slightly stale, the next wait computation:
  // it understates elapsed time by at most one handle_envelope, so a
  // deadline fires microseconds late — harmless at ms-scale deadlines.
  std::int64_t now = now_ns();
  while (!done_) {
    std::optional<Envelope> envelope;
    if (const auto deadline = earliest_deadline()) {
      const auto wait_ns = *deadline - now;
      if (wait_ns > 0) {
        envelope = inbox_->pop_for(std::chrono::nanoseconds(wait_ns));
      } else {
        envelope = inbox_->try_pop();
      }
    } else {
      envelope = inbox_->pop_for(200ms);
    }
    if (envelope) {
      handle_envelope(std::move(*envelope));
      if (crashed_) return;
    } else if (inbox_->closed() && inbox_->size() == 0) {
      // The node was killed (failure injection) or orphaned: signal EOF to
      // all peers, release a leaf's back-end (as crash() does) and stop.
      TBON_DEBUG("node " << id_ << " inbox closed; exiting");
      dead_.store(true, std::memory_order_release);
      if (executor_) executor_->stop();
      close_all_links();
      if (role_ == NodeRole::kLeaf && delegate_ != nullptr) delegate_->on_shutdown();
      return;
    } else if (fc_.enabled) {
      flush_partial_grants();  // idle: return sub-quantum credits
    }
    if (executor_) exec_drain_completions();
    if (fc_.enabled) pump_fc_links();
    now = now_ns();
    poll_timeouts(now);
    poll_liveness(now);
    poll_telemetry(now);
    if (crashed_) return;
  }
  dead_.store(true, std::memory_order_release);
  if (executor_) executor_->stop();
  close_all_links();
}

void NodeRuntime::handle_envelope(Envelope&& envelope) {
  if (envelope.origin == Origin::kParent && envelope.child_slot != parent_epoch_) {
    // A message from a previous parent (we were re-adopted since it was
    // sent).  Internal wakeup markers are epoch-agnostic; everything else —
    // in particular the old parent's EOF — must not reach the handlers, or
    // a stale EOF would re-orphan us out from under the new parent.
    const bool marker = envelope.packet &&
                        envelope.packet->stream_id() == kControlStream &&
                        envelope.packet->tag() == kTagAttachChild;
    if (!marker) {
      TBON_DEBUG("node " << id_ << " dropping stale parent envelope (epoch "
                         << envelope.child_slot << " != " << parent_epoch_ << ")");
      return;
    }
  }
  if (liveness_) {
    if (envelope.origin == Origin::kChild) {
      liveness_->note_recv_child(envelope.child_slot, now_ns());
    } else {
      liveness_->note_recv_parent(now_ns());
    }
  }
  if (envelope.origin == Origin::kParent && last_parent_hb_sent_ >= 0) {
    // First traffic from the parent since our last heartbeat: the channel
    // round trip is at most this long (heartbeat up + anything down).
    metrics_.heartbeat_rtt_ns.store(now_ns() - last_parent_hb_sent_,
                                    std::memory_order_relaxed);
    last_parent_hb_sent_ = -1;
  }

  if (envelope.batch) {
    // A coalesced run of data packets (the coalescer exempts control and
    // telemetry traffic, and wire decoding rejects them inside batch frames).
    // Checked before the EOF interpretation: a batch envelope also carries a
    // null `packet`.  With fault injection armed, split the batch into packet
    // envelopes so the injector counts each packet, and kill-at-data-packet-N
    // hits the same packet batched or unbatched; each is then consumed as a
    // run of one.
    const auto batch = std::move(envelope.batch);
    if (injector_) {
      for (const PacketPtr& packet : *batch) {
        handle_envelope(Envelope{envelope.origin, envelope.child_slot, packet});
        if (crashed_ || done_) return;
      }
      return;
    }
    if (envelope.origin == Origin::kChild) {
      handle_upstream_batch(envelope.child_slot, *batch);
    } else {
      for (const PacketPtr& packet : *batch) handle_downstream_data(packet);
    }
    return;
  }

  if (!envelope.packet) {
    // EOF marker from a peer.
    if (envelope.origin == Origin::kChild) {
      note_child_gone(envelope.child_slot);
    } else {
      handle_parent_lost();
    }
    return;
  }

  const Packet& packet = *envelope.packet;
  if (packet.stream_id() == kControlStream) {
    handle_control(envelope);
    return;
  }

  // Telemetry traffic is exempt from fault-injection counting: kill-at-
  // data-packet-N must hit the same application packet whether or not
  // telemetry is enabled.
  if (packet.stream_id() != kTelemetryStream && injector_ &&
      injector_->on_data_packet(id_) == FaultAction::kKill) {
    TBON_INFO("node " << id_ << " fault injection: crashing at data packet "
                      << injector_->data_packets(id_));
    crash();
    return;
  }

  // Crediting happens inside the data handlers: inline/dropped packets are
  // credited immediately, executor-dispatched ones when their filter work
  // completes (so worker-queue occupancy counts against the credit window).
  // An upstream packet envelope is a run of one.
  if (envelope.origin == Origin::kChild) {
    consume_upstream_run(envelope.child_slot, {&envelope.packet, 1});
  } else {
    handle_downstream_data(envelope.packet);
  }
}

void NodeRuntime::handle_control(const Envelope& envelope) {
  const Packet& packet = *envelope.packet;
  switch (packet.tag()) {
    case kTagNewStream:
      handle_new_stream(StreamSpec::from_packet(packet));
      forward_down(envelope.packet);
      break;
    case kTagDeleteStream:
      handle_delete_stream(static_cast<std::uint32_t>(packet.get_i64(0)));
      forward_down(envelope.packet);
      break;
    case kTagLoadFilter:
      // Idempotent per process: the registry tracks loaded paths.
      try {
        registry_.load_library(packet.get_str(0));
      } catch (const FilterError& error) {
        TBON_ERROR("node " << id_ << ": " << error.what());
      }
      forward_down(envelope.packet);
      break;
    case kTagShutdown:
      if (!shutting_down_) handle_shutdown();
      break;
    case kTagShutdownAck:
      if (envelope.origin == Origin::kChild && shutdown_acks_needed_ > 0 &&
          envelope.child_slot < child_acked_.size() &&
          !child_acked_[envelope.child_slot]) {
        child_acked_[envelope.child_slot] = true;
        --shutdown_acks_needed_;
        maybe_finish_shutdown();
      }
      break;
    case kTagPeerMessage:
      route_peer_message(envelope);
      break;
    case kTagSubscribe:
      handle_subscription(envelope, /*added=*/true);
      break;
    case kTagUnsubscribe:
      handle_subscription(envelope, /*added=*/false);
      break;
    case kTagAttachChild:
      process_pending_attaches();
      break;
    case kTagHeartbeat:
      // Pure liveness traffic: receipt already credited the channel.
      metrics_.heartbeats_received.fetch_add(1, std::memory_order_relaxed);
      break;
    case kTagCredit:
      // Credit grants are consumed by socket pumps (process and remote) or
      // granted through shared gates (threaded); one reaching the event loop
      // is stale or crafted.  Count and drop — never forward.
      metrics_.fc_invalid_grants.fetch_add(1, std::memory_order_relaxed);
      break;
    case kTagDie:
      if (die_packet_target(packet) == id_) {
        TBON_INFO("node " << id_ << " fault injection: die request");
        crash();
      } else {
        forward_down(envelope.packet);
      }
      break;
    case kTagDetach:
      handle_detach(envelope);
      break;
    case kTagQuiesce:
      handle_quiesce(envelope);
      break;
    case kTagRehome:
      handle_rehome(envelope);
      break;
    case kTagReconfigAck:
      handle_reconfig_ack(envelope);
      break;
    case kTagMembership:
      handle_membership(envelope);
      break;
    default:
      TBON_WARN("node " << id_ << " dropping unknown control tag " << packet.tag());
  }
}

void NodeRuntime::handle_subscription(const Envelope& envelope, bool added) {
  const Packet& packet = *envelope.packet;
  std::string prefix;
  try {
    prefix = subscribe_packet_prefix(packet);
  } catch (const CodecError& error) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping malformed subscription: " << error.what());
    return;
  }
  const std::uint32_t rank = packet.src_rank();
  if (added) {
    subs_[prefix].insert(rank);
  } else {
    const auto it = subs_.find(prefix);
    if (it != subs_.end()) {
      it->second.erase(rank);
      if (it->second.empty()) subs_.erase(it);
    }
  }
  // Subscriptions only climb: every ancestor of the subscriber learns the
  // prefix (that is exactly the set of nodes that route data down to it),
  // and the root reports it to the front-end for subscriber_count /
  // wait_subscribers.  Re-sends are idempotent, so adoption replay is safe.
  if (role_ == NodeRole::kRoot) {
    if (delegate_ != nullptr) delegate_->on_subscription(prefix, rank, added);
  } else if (parent_link_) {
    send_parent(envelope.packet);
  }
}

void NodeRuntime::route_peer_message(const Envelope& envelope) {
  const Packet& wrapper = *envelope.packet;
  if (role_ == NodeRole::kLeaf) {
    // Arrived at the destination back-end.
    metrics_.peer_messages_routed.fetch_add(1, std::memory_order_relaxed);
    if (delegate_ != nullptr) delegate_->on_peer_message(unwrap_peer_packet(wrapper));
    return;
  }
  const std::uint32_t dst = peer_packet_destination(wrapper);
  const auto route = rank_routes_.find(dst);
  if (route != rank_routes_.end()) {
    const std::uint32_t slot = route->second;
    if (slot < child_links_.size() && child_links_[slot] && child_alive_[slot]) {
      metrics_.peer_messages_routed.fetch_add(1, std::memory_order_relaxed);
      send_child(slot, envelope.packet);
    } else {
      metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
      TBON_WARN("node " << id_ << " dropping peer message for dead subtree of rank "
                        << dst);
    }
    return;
  }
  // Not in this subtree: forward toward the root ("using the internal
  // process-tree to route back-end to back-end messages", paper §2.1).
  if (parent_link_) {
    metrics_.peer_messages_routed.fetch_add(1, std::memory_order_relaxed);
    send_parent(envelope.packet);
  } else {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping peer message for unknown rank " << dst);
  }
}

void NodeRuntime::handle_new_stream(const StreamSpec& spec) {
  if (streams_.count(spec.id) != 0) return;  // duplicate announcement

  StreamLocal stream;
  stream.spec = spec;

  // Classify the stream for every tenant-aware consumer on this node: the
  // sender-side flow-controlled links (which share this table) and the
  // executor's weighted drain.
  tenants_->register_stream(spec.id, spec.priority_class, spec.tenant_name,
                            spec.tenant_budget());

  const std::size_t slots =
      slot_ranks_.empty() ? 0 : std::size_t{slot_ranks_.rbegin()->first} + 1;
  stream.slot_to_sync_index.assign(std::max(slots, child_links_.size()), -1);
  // Every child slot, static or wired since, joins by the ranks it serves.
  for (const auto& [slot, ranks] : slot_ranks_) {
    const bool participates =
        spec.endpoints.empty() ||
        std::any_of(ranks.begin(), ranks.end(),
                    [&](std::uint32_t rank) { return spec.contains(rank); });
    if (participates) {
      stream.slot_to_sync_index[slot] =
          static_cast<std::int32_t>(stream.participating_slots.size());
      stream.participating_slots.push_back(slot);
    }
  }

  stream.ctx.node_id = id_;
  stream.ctx.stream_id = spec.id;
  stream.ctx.num_children = stream.participating_slots.size();
  stream.ctx.is_root = role_ == NodeRole::kRoot;
  stream.ctx.is_leaf = role_ == NodeRole::kLeaf;
  stream.ctx.params = spec.parsed_params();
  stream.ctx.topic = spec.topic_path;
  stream.ctx.tenant = spec.tenant_name;
  stream.ctx.priority = tenants_->priority_of(spec.id);
  stream.ctx.membership = membership_snapshot(stream);
  stream.ctx.telemetry = TelemetryScope(&metrics_, /*worker=*/-1);

  if (role_ != NodeRole::kLeaf) {
    stream.sync = registry_.make_sync(spec.up_sync, stream.ctx);
    stream.up_filter = registry_.make_transform(spec.up_transform, stream.ctx);
    stream.down_filter = registry_.make_transform(spec.down_transform, stream.ctx);
    // The sync policy and filters stay instantiated even on the fast lanes
    // (flush/finish and membership compensation still go through them); the
    // lanes only bypass them on the per-packet hot path.  The telemetry
    // stream is never fast: its merge filter is what bounds root fan-in.
    if (spec.id != kTelemetryStream) {
      stream.fast_up =
          spec.up_sync == "null" && spec.up_transform == "passthrough";
      stream.fast_down = spec.down_transform == "passthrough";
      stream.null_sync = spec.up_sync == "null";
    }
    // A child may have died — or its subtree emptied out through planned
    // reconfiguration — before this stream was announced; the sync policy
    // and filters must not wait for it.
    for (const std::uint32_t slot : stream.participating_slots) {
      if (!slot_contributes(slot)) {
        apply_membership_change(
            stream, static_cast<std::size_t>(stream.slot_to_sync_index[slot]),
            /*added=*/false);
      }
    }
  }

  const auto emplaced = streams_.emplace(spec.id, std::move(stream));
  // Register with the executor only now: map storage is node-stable, so the
  // shard's tasks can safely hold a StreamLocal pointer.
  if (executor_ && emplaced.first->second.sync) {
    exec_register_stream(emplaced.first->second);
  }

  if (spec.id == kTelemetryStream) {
    // Arm periodic self-publishing; the interval rides in the stream params
    // so every node (including forked process-mode children) learns it from
    // the announcement itself.
    telemetry_armed_ = true;
    telemetry_interval_ns_ =
        std::max<std::int64_t>(1, spec.parsed_params().get_int("interval_ms", 200)) *
        1'000'000;
    telemetry_next_ = now_ns() + telemetry_interval_ns_;
  }

  if (delegate_ != nullptr) delegate_->on_stream_known(spec);
}

void NodeRuntime::handle_delete_stream(std::uint32_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) return;
  flush_stream(it->second);  // exec streams: posts the flush, drains the shard
  if (executor_ && it->second.exec) executor_->remove_stream(stream_id);
  tenants_->forget_stream(stream_id);
  streams_.erase(it);
  if (delegate_ != nullptr) delegate_->on_stream_deleted(stream_id);
}

// ---- planned reconfiguration (src/core/reconfig.hpp) ------------------------
//
// The runtime's half of the quiesce→rewire→replay protocol.  All frames ride
// the control stream, so they are FIFO-ordered against the data they fence:
// a detach/quiesce ack follows every packet its subtree sent beforehand, and
// the first node to see the ack applies membership compensation before any
// later wave can close without the departed contributor.

bool NodeRuntime::route_down_via_rank(std::uint32_t rank, const PacketPtr& packet,
                                      bool allow_dead) {
  const auto route = rank_routes_.find(rank);
  if (route != rank_routes_.end()) {
    const std::uint32_t slot = route->second;
    const bool usable = slot < child_links_.size() && child_links_[slot] &&
                        (allow_dead ||
                         (slot < child_alive_.size() && child_alive_[slot]));
    if (usable) return send_child(slot, packet);
  }
  metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
  TBON_WARN("node " << id_ << " cannot route reconfiguration frame via rank "
                    << rank);
  return false;
}

std::vector<std::uint32_t> NodeRuntime::served_ranks() const {
  if (role_ == NodeRole::kLeaf) return {leaf_rank_};
  std::vector<std::uint32_t> ranks;
  for (const auto& [rank, slot] : rank_routes_) {
    if (slot < child_alive_.size() && child_alive_[slot]) ranks.push_back(rank);
  }
  return ranks;
}

void NodeRuntime::handle_detach(const Envelope& envelope) {
  const Packet& packet = *envelope.packet;
  std::int64_t op_id = 0;
  std::uint32_t target_rank = 0;
  try {
    op_id = reconfig_op_id(packet);
    target_rank = reconfig_target(packet);
  } catch (const CodecError& error) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping malformed detach: " << error.what());
    return;
  }
  if (shutting_down_) return;  // departure is moot: the whole tree is leaving
  if (role_ == NodeRole::kLeaf && leaf_rank_ == target_rank) {
    TBON_INFO("node " << id_ << " (rank " << target_rank
                      << ") leaving on planned detach, op " << op_id);
    if (delegate_ != nullptr) delegate_->on_shutdown();
    // The ack is the fence: it follows every packet this back-end sent, so
    // the parent's membership compensation can never orphan in-flight data.
    send_parent(make_reconfig_ack_packet(op_id, id_, ReconfigAckKind::kDetach));
    if (parent_link_) parent_link_->flush();
    done_ = true;  // run() exits and closes all links (EOF is then a no-op
                   // at the parent: the ack already applied the removal)
    return;
  }
  route_down_via_rank(target_rank, envelope.packet, /*allow_dead=*/false);
}

void NodeRuntime::handle_quiesce(const Envelope& envelope) {
  const Packet& packet = *envelope.packet;
  std::int64_t op_id = 0;
  std::uint32_t target_node = 0;
  std::uint32_t via_rank = 0;
  try {
    op_id = reconfig_op_id(packet);
    target_node = reconfig_target(packet);
    via_rank = quiesce_via_rank(packet);
  } catch (const CodecError& error) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping malformed quiesce: " << error.what());
    return;
  }
  if (shutting_down_) return;
  if (target_node != id_) {
    route_down_via_rank(via_rank, envelope.packet, /*allow_dead=*/false);
    return;
  }
  TBON_INFO("node " << id_ << " quiescing for planned re-home, op " << op_id);
  // Pause the application handle first (leaves): its in-flight sends finish
  // before pause_sends returns, so they precede the ack on the channel.
  if (role_ == NodeRole::kLeaf && delegate_ != nullptr) {
    delegate_->on_reconfig_pause();
  }
  send_parent(make_reconfig_ack_packet(op_id, id_, ReconfigAckKind::kQuiesce));
  if (parent_link_) parent_link_->flush();
  // Park after the ack: everything this subtree emits from here on (late
  // executor completions included) is buffered and replayed to the new
  // parent, preserving per-stream order across the move.
  upstream_parked_ = true;
}

void NodeRuntime::handle_rehome(const Envelope& envelope) {
  const Packet& packet = *envelope.packet;
  std::int64_t op_id = 0;
  std::uint32_t target_node = 0;
  std::uint32_t new_parent = 0;
  std::uint32_t via_rank = 0;
  try {
    op_id = reconfig_op_id(packet);
    target_node = reconfig_target(packet);
    new_parent = rehome_new_parent(packet);
    via_rank = rehome_via_rank(packet);
  } catch (const CodecError& error) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping malformed rehome: " << error.what());
    return;
  }
  if (shutting_down_) return;
  if (target_node != id_) {
    // allow_dead: at the old parent the target's slot is already
    // membership-removed, but the link is intact — exactly the edge this
    // frame must cross.
    route_down_via_rank(via_rank, envelope.packet, /*allow_dead=*/true);
    return;
  }
  bool rewired = false;
  if (rehome_handler_) {
    rewired = rehome_handler_(*this, static_cast<NodeId>(new_parent));
  } else if (orphan_handler_) {
    // Process/remote instantiations re-home through the same rendezvous path
    // as fault recovery (the root re-adopts the subtree; `new_parent` is the
    // root there by construction).
    rewired = orphan_handler_(*this);
  }
  if (!rewired) {
    TBON_WARN("node " << id_ << " re-home failed (op " << op_id
                      << "); dying so children re-adopt");
    crash();
    return;
  }
  TBON_INFO("node " << id_ << " re-homed under node " << new_parent << ", op "
                    << op_id);
  metrics_.reconfig_moves.fetch_add(1, std::memory_order_relaxed);
  if (liveness_) liveness_->reset_parent(now_ns());
  // Replay parked emissions to the new parent — they land after the adopt
  // marker queued by the handler, so announcements still precede data — then
  // let the application handle send again, then complete the op.
  unpark_upstream();
  if (role_ == NodeRole::kLeaf && delegate_ != nullptr) {
    delegate_->on_reconfig_resume();
  }
  send_parent(make_reconfig_ack_packet(op_id, id_, ReconfigAckKind::kRehome));
}

void NodeRuntime::handle_reconfig_ack(const Envelope& envelope) {
  const Packet& packet = *envelope.packet;
  std::int64_t op_id = 0;
  std::uint32_t subject = 0;
  ReconfigAckKind kind = ReconfigAckKind::kForwarded;
  try {
    op_id = reconfig_op_id(packet);
    subject = reconfig_ack_subject(packet);
    kind = reconfig_ack_kind(packet);
  } catch (const CodecError& error) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping malformed reconfig ack: "
                      << error.what());
    return;
  }
  PacketPtr upward = envelope.packet;
  if (envelope.origin == Origin::kChild && (kind == ReconfigAckKind::kDetach ||
                                            kind == ReconfigAckKind::kQuiesce)) {
    // First hop: this node is the departing subtree's parent.  Apply the
    // planned removal now — membership compensation runs before any later
    // wave, exactly like a failure EOF, but without recovery side effects.
    metrics_.reconfig_detaches.fetch_add(1, std::memory_order_relaxed);
    note_child_gone(envelope.child_slot);
    upward = make_reconfig_ack_packet(op_id, subject, ReconfigAckKind::kForwarded);
  }
  if (role_ == NodeRole::kRoot) {
    if (delegate_ != nullptr) delegate_->on_reconfig_ack(op_id, subject);
    return;
  }
  send_parent(upward);
}

bool NodeRuntime::slot_contributes(std::uint32_t slot) const {
  return slot < child_alive_.size() && child_alive_[slot] &&
         (slot >= child_contributing_.size() || child_contributing_[slot]);
}

void NodeRuntime::notify_parent_membership(bool live) {
  if (parent_link_ == nullptr) return;
  TBON_INFO("node " << id_
                    << (live ? " subtree contributing again" : " subtree emptied")
                    << "; notifying parent");
  const PacketPtr packet = make_membership_packet(live);
  if (upstream_parked_) {
    // Mid-move: the notification replays to the new parent with everything
    // else parked, in order.
    parked_upstream_.push_back(packet);
    return;
  }
  send_parent(packet);
}

void NodeRuntime::handle_membership(const Envelope& envelope) {
  if (envelope.origin != Origin::kChild) return;
  const std::uint32_t slot = envelope.child_slot;
  if (slot >= child_alive_.size() || !child_alive_[slot]) return;
  const bool live = membership_packet_live(*envelope.packet);
  if (child_contributing_.size() <= slot) {
    child_contributing_.resize(slot + 1, true);
  }
  if (child_contributing_[slot] == live) return;  // duplicate notification
  const bool was_empty = contributing_children_ == 0;
  child_contributing_[slot] = live;
  if (live) {
    ++contributing_children_;
  } else {
    --contributing_children_;
  }
  TBON_INFO("node " << id_ << (live ? " reviving" : " retiring")
                    << " wave membership of child slot " << slot);
  for (auto& [stream_id, stream] : streams_) {
    if (!stream.sync) continue;
    const auto sync_index = slot < stream.slot_to_sync_index.size()
                                ? stream.slot_to_sync_index[slot]
                                : -1;
    if (sync_index < 0) continue;  // endpoint-scoped stream skips this subtree
    apply_membership_change(stream, static_cast<std::size_t>(sync_index),
                            /*added=*/live, /*revived=*/live);
  }
  // Cascade: retiring the slot may have emptied this node too (a chain of
  // relays), and reviving it may have refilled it.
  if (role_ == NodeRole::kInternal && !shutting_down_) {
    if (!live && contributing_children_ == 0) notify_parent_membership(false);
    if (live && was_empty) notify_parent_membership(true);
  }
}

void NodeRuntime::unpark_upstream() {
  if (!upstream_parked_) return;
  upstream_parked_ = false;
  std::vector<PacketPtr> parked;
  parked.swap(parked_upstream_);
  for (const PacketPtr& packet : parked) send_parent(packet);
}

void NodeRuntime::handle_shutdown() {
  shutting_down_ = true;
  shutdown_acks_needed_ = live_children_;
  if (role_ == NodeRole::kLeaf && delegate_ != nullptr) delegate_->on_shutdown();
  // Forward to every live child; leaves have none.
  for (std::uint32_t slot = 0; slot < child_links_.size(); ++slot) {
    if (child_links_[slot] && child_alive_[slot]) {
      send_child(slot, make_shutdown_packet());
    }
  }
  maybe_finish_shutdown();
}

void NodeRuntime::maybe_finish_shutdown() {
  if (!shutting_down_ || shutdown_acks_needed_ > 0 || done_) return;
  // Every subtree is quiescent: deliver what the sync filters still hold,
  // give transformation filters their flush() hook, then ack upward.
  flush_all_streams();
  // Final telemetry record: published after the flush (so it follows every
  // merged child record on the parent channel) and before the ack (so the
  // parent is guaranteed to buffer it before its own flush).  Channel FIFO
  // order makes the post-shutdown tree snapshot exact, not best-effort.
  if (telemetry_armed_) publish_telemetry();
  if (parent_link_) {
    send_parent(make_shutdown_ack_packet());
  }
  if (role_ == NodeRole::kRoot && delegate_ != nullptr) {
    delegate_->on_shutdown_complete();
  }
  done_ = true;
}

void NodeRuntime::handle_parent_lost() {
  if (role_ == NodeRole::kRoot) return;  // the root has no parent channel
  if (liveness_) liveness_->drop_parent();
  if (!shutting_down_) {
    metrics_.orphaned_events.fetch_add(1, std::memory_order_relaxed);
  }
  if (!shutting_down_ && orphan_handler_) {
    if (orphan_handler_(*this)) {
      TBON_INFO("node " << id_ << " re-adopted under a new parent (epoch "
                        << parent_epoch_ << ")");
      metrics_.adoptions.fetch_add(1, std::memory_order_relaxed);
      if (liveness_) liveness_->reset_parent(now_ns());
      // Rare overlap: the old parent died while this node was quiesced for a
      // planned move.  Fault recovery won the race — replay the parked
      // emissions to the adopter rather than holding them forever.
      unpark_upstream();
      return;
    }
    // Recovery is enabled but re-adoption failed (network tearing down, the
    // rendezvous is unreachable, or this node itself is compromised).  Die
    // abruptly — no shutdown broadcast — so our children see EOF and
    // re-adopt around us instead of shutting down.
    TBON_WARN("node " << id_ << " could not be re-adopted; dying so its "
                         "children can recover");
    crash();
    return;
  }
  // Legacy behaviour: the subtree can no longer deliver results; shut down.
  // Close the dead channel first, so the shutdown's last sends upward (the
  // final telemetry record and the ack) fail at once: a leaf's parent link
  // is relinkable, and a send on it would otherwise wait out the relink
  // timeout for a re-adoption that nobody will make.
  TBON_DEBUG("node " << id_ << " lost its parent; shutting down subtree");
  if (parent_link_) parent_link_->close();
  if (!shutting_down_) handle_shutdown();
  // No parent to ack to: finish immediately once children are gone.
  if (role_ == NodeRole::kLeaf || shutdown_acks_needed_ == 0) done_ = true;
}

void NodeRuntime::crash() {
  metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
  dead_.store(true, std::memory_order_release);
  // Crash semantics: abandon queued filter work (stop() joins workers after
  // their current task, so no worker can touch a link we're closing).
  if (executor_) executor_->stop();
  close_all_links();
  crashed_ = true;
  // A back-end must stop waiting on a runtime that is gone: a send for a
  // stream that never reached this leaf would wait out the announcement
  // timeout.
  if (role_ == NodeRole::kLeaf && delegate_ != nullptr) delegate_->on_shutdown();
  if (crash_handler_) crash_handler_();  // may not return (process: _Exit)
}

bool NodeRuntime::send_parent(const PacketPtr& packet) {
  if (!parent_link_) return false;
  if (upstream_parked_) {
    // Quiesced: buffer in order for replay to the new parent.
    parked_upstream_.push_back(packet);
    return true;
  }
  if (liveness_) liveness_->note_send_parent(now_ns());
  if (injector_) {
    if (injector_->sends_muted(id_)) return true;  // simulated hang: drop
    if (const auto delay = injector_->send_delay_ns(id_)) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
  }
  return parent_link_->send(packet);
}

bool NodeRuntime::send_child(std::uint32_t slot, const PacketPtr& packet) {
  if (slot >= child_links_.size() || !child_links_[slot]) return false;
  if (liveness_) liveness_->note_send_child(slot, now_ns());
  if (injector_) {
    if (injector_->sends_muted(id_)) return true;  // simulated hang: drop
    if (const auto delay = injector_->send_delay_ns(id_)) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
  }
  return child_links_[slot]->send(packet);
}

std::size_t NodeRuntime::live_participants(const StreamLocal& stream) const {
  std::size_t live = 0;
  for (const std::uint32_t slot : stream.participating_slots) {
    if (slot_contributes(slot)) ++live;
  }
  return live;
}

MembershipSnapshot NodeRuntime::membership_snapshot(const StreamLocal& stream) const {
  MembershipSnapshot snapshot;
  snapshot.num_total = stream.participating_slots.size();
  snapshot.live.reserve(snapshot.num_total);
  for (const std::uint32_t slot : stream.participating_slots) {
    const bool alive = slot_contributes(slot);
    snapshot.live.push_back(alive);
    if (alive) ++snapshot.num_live;
  }
  return snapshot;
}

void NodeRuntime::apply_membership_change(StreamLocal& stream,
                                          std::size_t sync_index, bool added,
                                          bool revived) {
  const std::size_t live = live_participants(stream);
  const MembershipChange change{sync_index, added, live, revived};
  MembershipSnapshot snapshot = membership_snapshot(stream);
  if (stream.exec) {
    // The stream's sync/filter/ctx belong to its shard now: apply the change
    // there, in FIFO order with any packet work already queued, and deliver
    // any compensation outputs through the completion path like everything
    // else.
    StreamLocal* sp = &stream;
    executor_->post(stream.spec.id, [this, sp, change, added,
                                     snapshot = std::move(snapshot)]() mutable {
      sp->ctx.num_children = change.num_children;
      sp->ctx.membership = std::move(snapshot);
      ExecCompletion completion;
      sp->sync->membership_changed(change, sp->ctx);
      if (!added) {
        // Failure may complete a pending wave for the survivors.
        completion.up_outputs =
            run_upstream_batches(*sp, sp->sync->drain_ready(now_ns(), sp->ctx));
      }
      sp->up_filter->membership_changed(change, completion.up_outputs, sp->ctx);
      exec_finish(*sp, std::move(completion));
    });
    return;
  }
  stream.ctx.num_children = live;
  stream.ctx.membership = std::move(snapshot);
  if (stream.sync) {
    stream.sync->membership_changed(change, stream.ctx);
    if (!added) {
      // Failure may complete a pending wave for the survivors.
      process_batches(stream, stream.sync->drain_ready(now_ns(), stream.ctx));
    }
  }
  if (stream.up_filter) {
    std::vector<PacketPtr> outputs;
    stream.up_filter->membership_changed(change, outputs, stream.ctx);
    emit_upstream(stream, outputs);
  }
}

void NodeRuntime::note_child_gone(std::uint32_t slot) {
  if (slot >= child_alive_.size() || !child_alive_[slot]) return;
  child_alive_[slot] = false;
  --live_children_;
  if (slot < child_contributing_.size() && child_contributing_[slot]) {
    child_contributing_[slot] = false;
    --contributing_children_;
  }
  if (liveness_) liveness_->drop_child(slot);
  TBON_DEBUG("node " << id_ << " lost child slot " << slot);
  for (auto& [stream_id, stream] : streams_) {
    if (!stream.sync) continue;
    const auto sync_index = stream.slot_to_sync_index[slot];
    if (sync_index >= 0) {
      apply_membership_change(stream, static_cast<std::size_t>(sync_index),
                              /*added=*/false);
    }
  }
  // Losing the last contributing child turns this interior into an empty
  // relay: nothing below it will ever feed another wave, so the parent must
  // stop waiting for this edge (and so on up the tree, recursively).
  if (contributing_children_ == 0 && role_ == NodeRole::kInternal &&
      !shutting_down_) {
    notify_parent_membership(/*live=*/false);
  }
  if (shutting_down_ && shutdown_acks_needed_ > 0 && !child_acked_[slot]) {
    child_acked_[slot] = true;
    --shutdown_acks_needed_;
    maybe_finish_shutdown();
  }
}

void NodeRuntime::handle_upstream_batch(std::uint32_t slot,
                                        std::span<const PacketPtr> packets) {
  // Group consecutive same-stream packets into runs: one coalesced frame
  // usually carries one stream's burst, so this almost always yields a
  // single run, and each run costs one stream lookup + one filter
  // invocation (or one shard task) instead of N.
  std::size_t i = 0;
  while (i < packets.size()) {
    std::size_t j = i + 1;
    while (j < packets.size() &&
           packets[j]->stream_id() == packets[i]->stream_id()) {
      ++j;
    }
    consume_upstream_run(slot, packets.subspan(i, j - i));
    i = j;
  }
}

void NodeRuntime::consume_upstream_run(std::uint32_t slot,
                                       std::span<const PacketPtr> run) {
  const std::uint32_t stream_id = run.front()->stream_id();
  const bool telemetry = stream_id == kTelemetryStream;
  if (telemetry) {
    metrics_.telemetry_packets.fetch_add(run.size(), std::memory_order_relaxed);
  } else {
    std::uint64_t payload = 0;
    for (const PacketPtr& packet : run) payload += packet->payload_bytes();
    metrics_.packets_up.fetch_add(run.size(), std::memory_order_relaxed);
    metrics_.bytes_up.fetch_add(payload, std::memory_order_relaxed);
  }
  // Every packet of the run is consumed from its channel whatever happens
  // below (filtered, forwarded or dropped) — except executor dispatch, which
  // defers the whole run's credits to completion delivery.
  const auto credit_run = [&] {
    if (!telemetry) {
      note_consumed(Origin::kChild, slot, static_cast<std::uint32_t>(run.size()),
                    grant_share(stream_id));
    }
  };

  if (slot < child_alive_.size() && !child_alive_[slot]) {
    metrics_.packets_dropped.fetch_add(run.size(), std::memory_order_relaxed);
    TBON_DEBUG("node " << id_ << " dropping run from dead child slot " << slot);
    credit_run();
    return;
  }
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    metrics_.packets_dropped.fetch_add(run.size(), std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping run for unknown stream " << stream_id);
    credit_run();
    return;
  }
  StreamLocal& stream = it->second;
  if (slot >= stream.slot_to_sync_index.size() ||
      stream.slot_to_sync_index[slot] < 0) {
    metrics_.packets_dropped.fetch_add(run.size(), std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping run from non-participating child slot "
                      << slot);
    credit_run();
    return;
  }
  const auto sync_index = static_cast<std::size_t>(stream.slot_to_sync_index[slot]);

  if (stream.fast_up) {
    // Fast pass-through lane: identity sync + identity transform, so the run
    // is relayed toward the parent (whose link re-coalesces it when batching
    // is on) or the root delegate, and a wire-backed packet crosses this hop
    // with zero payload memcpys.  No filter code runs and no clock is read:
    // one wave per packet, one zero-length filter observation per run.
    emit_upstream(stream, run);
    metrics_.waves.fetch_add(run.size(), std::memory_order_relaxed);
    metrics_.observe_filter_latency(0);
    credit_run();
    return;
  }
  if (stream.exec) {
    exec_dispatch_upstream_run(
        stream, sync_index, run, slot,
        telemetry ? 0 : static_cast<std::uint32_t>(run.size()));
    return;
  }
  if (stream.null_sync) {
    emit_upstream(stream, run_upstream_filter_batch(stream, run));
  } else {
    // Grouping syncs: feed the run packet-by-packet, then drain once —
    // same ready set and output order as interleaved drains, minus the
    // per-packet drain overhead.
    for (const PacketPtr& packet : run) {
      stream.sync->on_packet(sync_index, packet, stream.ctx);
    }
    process_batches(stream, stream.sync->drain_ready(now_ns(), stream.ctx));
  }
  credit_run();
}

std::vector<PacketPtr> NodeRuntime::run_upstream_filter_batch(
    StreamLocal& stream, std::span<const PacketPtr> run) {
  // One batch-aware filter invocation covering run.size() independent waves.
  // Only valid for null-sync streams, where each packet forms its own
  // singleton wave — filter_batch's contract is exactly that, so output is
  // byte-identical to run.size() single-packet filter() calls while letting
  // batch-aware filters amortize (vectorized kernels, shared lookups).
  const bool telemetry = stream.spec.id == kTelemetryStream;
  std::vector<PacketPtr> outputs;
  const auto start = now_ns();
  stream.up_filter->filter_batch(run, outputs, stream.ctx);
  if (!telemetry) {
    const auto elapsed = static_cast<std::uint64_t>(now_ns() - start);
    metrics_.waves.fetch_add(run.size(), std::memory_order_relaxed);
    metrics_.filter_ns.fetch_add(elapsed, std::memory_order_relaxed);
    metrics_.observe_filter_latency(elapsed);
  }
  return outputs;
}

void NodeRuntime::process_batches(StreamLocal& stream,
                                  std::vector<SyncPolicy::Batch> batches) {
  emit_upstream(stream, run_upstream_batches(stream, std::move(batches)));
}

std::vector<PacketPtr> NodeRuntime::run_upstream_batches(
    StreamLocal& stream, std::vector<SyncPolicy::Batch> batches) {
  // Runs on the stream's shard under the executor, inline on the event loop
  // otherwise.  Metrics are relaxed atomics, so the accounting is identical
  // either way.  The telemetry stream's own merge work is excluded from the
  // application wave/latency instruments it feeds.
  const bool telemetry = stream.spec.id == kTelemetryStream;
  std::vector<PacketPtr> outputs;
  for (auto& batch : batches) {
    if (batch.empty()) continue;
    if (!telemetry) metrics_.waves.fetch_add(1, std::memory_order_relaxed);
    const auto start = now_ns();
    stream.up_filter->filter(batch, outputs, stream.ctx);
    if (!telemetry) {
      const auto elapsed = static_cast<std::uint64_t>(now_ns() - start);
      metrics_.filter_ns.fetch_add(elapsed, std::memory_order_relaxed);
      metrics_.observe_filter_latency(elapsed);
    }
  }
  return outputs;
}

std::vector<PacketPtr> NodeRuntime::run_downstream_filter(StreamLocal& stream,
                                                          const PacketPtr& packet) {
  // Runs on the stream's shard under the executor, inline on the event loop
  // otherwise, like its upstream counterparts.
  std::vector<PacketPtr> outputs;
  const PacketPtr inputs[] = {packet};
  const auto start = now_ns();
  stream.down_filter->filter(inputs, outputs, stream.ctx);
  if (stream.spec.id != kTelemetryStream) {
    const auto elapsed = static_cast<std::uint64_t>(now_ns() - start);
    metrics_.filter_ns.fetch_add(elapsed, std::memory_order_relaxed);
    metrics_.observe_filter_latency(elapsed);
  }
  return outputs;
}

void NodeRuntime::emit_upstream(StreamLocal& stream, std::span<const PacketPtr> packets) {
  if (packets.empty()) return;
  if (role_ == NodeRole::kRoot) {
    if (delegate_ == nullptr) return;
    for (const PacketPtr& packet : packets) {
      delegate_->on_result(stream.spec.id, packet);
    }
    return;
  }
  if (!parent_link_) return;
  if (upstream_parked_) {
    parked_upstream_.insert(parked_upstream_.end(), packets.begin(), packets.end());
    return;
  }
  if (packets.size() == 1) {
    send_parent(packets.front());
    return;
  }
  // Multi-packet emission: hand the whole run to the parent link as one
  // batch (one wire frame / queue push instead of N; per-packet links fall
  // back to a loop).  Control and telemetry packets are barred from batch
  // frames by the wire codec, so runs containing them go out one by one.
  for (const PacketPtr& packet : packets) {
    if (flow_control_exempt(*packet)) {
      for (const PacketPtr& each : packets) send_parent(each);
      return;
    }
  }
  if (liveness_) liveness_->note_send_parent(now_ns());
  if (injector_) {
    if (injector_->sends_muted(id_)) return;  // simulated hang: drop the run
    if (const auto delay = injector_->send_delay_ns(id_)) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
  }
  parent_link_->send_batch(packets);
}

// ---- parallel filter execution ----------------------------------------------
//
// Division of labour: workers run the stream's sync policy and transformation
// filter (the CPU-bound part) and hand everything with side effects outside
// the stream — sends, credits, delegate callbacks — back to the event loop as
// completion records.  Links, liveness, the injector and the granter table
// are therefore still touched by exactly one thread, and per-stream output
// order is the completion queue's FIFO order, which matches inline mode.

void NodeRuntime::exec_register_stream(StreamLocal& stream) {
  executor_->add_stream(stream.spec.id, tenants_->priority_of(stream.spec.id));
  stream.ctx.telemetry = TelemetryScope(
      &metrics_, static_cast<int>(executor_->shard_of(stream.spec.id)));
  stream.exec = true;
}

void NodeRuntime::exec_dispatch_upstream_run(StreamLocal& stream,
                                             std::size_t sync_index,
                                             std::span<const PacketPtr> run,
                                             std::uint32_t slot,
                                             std::uint32_t credits) {
  // Whole run → one shard task → one filter invocation (null-sync streams)
  // or one sync feed + drain.  The task carries the run's full credit count,
  // returned in one go when its completion is delivered, so worker-queue
  // occupancy counts against the credit window.
  StreamLocal* sp = &stream;
  std::vector<PacketPtr> packets(run.begin(), run.end());
  executor_->post(stream.spec.id, [this, sp, sync_index, slot, credits,
                                   packets = std::move(packets)]() mutable {
    ExecCompletion completion;
    if (sp->null_sync) {
      completion.up_outputs = run_upstream_filter_batch(*sp, packets);
    } else {
      for (PacketPtr& packet : packets) {
        sp->sync->on_packet(sync_index, std::move(packet), sp->ctx);
      }
      completion.up_outputs =
          run_upstream_batches(*sp, sp->sync->drain_ready(now_ns(), sp->ctx));
    }
    completion.credits = credits;
    completion.credit_origin = Origin::kChild;
    completion.credit_slot = slot;
    exec_finish(*sp, std::move(completion));
  });
}

void NodeRuntime::exec_dispatch_downstream(StreamLocal& stream, PacketPtr packet) {
  const bool telemetry = packet->stream_id() == kTelemetryStream;
  StreamLocal* sp = &stream;
  executor_->post(stream.spec.id, [this, sp, telemetry,
                                   packet = std::move(packet)] {
    ExecCompletion completion;
    completion.down_outputs = run_downstream_filter(*sp, packet);
    completion.credits = telemetry ? 0 : 1;
    completion.credit_origin = Origin::kParent;
    completion.credit_slot = 0;
    exec_finish(*sp, std::move(completion));
  });
}

void NodeRuntime::exec_post_deadline_drain(StreamLocal& stream) {
  stream.exec_drain_posted = true;
  StreamLocal* sp = &stream;
  executor_->post(stream.spec.id, [this, sp] {
    ExecCompletion completion;
    completion.deadline_drain = true;
    completion.up_outputs =
        run_upstream_batches(*sp, sp->sync->drain_ready(now_ns(), sp->ctx));
    exec_finish(*sp, std::move(completion));
  });
}

void NodeRuntime::exec_finish(StreamLocal& stream, ExecCompletion&& completion) {
  // Reads are safe: every task runs on the stream's own shard.
  completion.stream_id = stream.spec.id;
  completion.buffered = stream.sync->buffered();
  completion.deadline = stream.sync->next_deadline().value_or(-1);
  exec_enqueue(std::move(completion));
}

void NodeRuntime::exec_enqueue(ExecCompletion&& completion) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(exec_mutex_);
    exec_completions_.push_back(std::move(completion));
    wake = !exec_wake_pending_;
    exec_wake_pending_ = true;
  }
  // Wake an idle loop with an epoch-agnostic marker envelope (coalesced: one
  // marker per drain).  If the inbox is full the push fails harmlessly — a
  // full inbox means the loop is awake and drains completions every
  // iteration anyway.
  if (wake) {
    inbox_->try_push(Envelope{Origin::kParent, 0, make_attach_marker_packet()});
  }
}

void NodeRuntime::exec_drain_completions() {
  std::deque<ExecCompletion> batch;
  {
    std::lock_guard<std::mutex> lock(exec_mutex_);
    exec_wake_pending_ = false;
    if (exec_completions_.empty()) return;
    batch.swap(exec_completions_);
  }
  for (auto& completion : batch) exec_deliver(std::move(completion));
}

void NodeRuntime::exec_deliver(ExecCompletion&& completion) {
  const auto it = streams_.find(completion.stream_id);
  if (it != streams_.end()) {
    StreamLocal& stream = it->second;
    stream.exec_buffered = completion.buffered;
    stream.exec_deadline = completion.deadline;
    if (completion.deadline_drain) stream.exec_drain_posted = false;
    emit_upstream(stream, completion.up_outputs);
    for (const PacketPtr& packet : completion.down_outputs) {
      forward_down_to_participants(stream, packet);
    }
  }
  if (completion.credits) {
    note_consumed(completion.credit_origin, completion.credit_slot,
                  completion.credits, grant_share(completion.stream_id));
  }
}

void NodeRuntime::flush_stream(StreamLocal& stream) {
  if (!stream.sync) return;
  if (stream.exec) {
    // Post the flush as the stream's last task (FIFO after all queued work),
    // wait for its shard to go quiet, then deliver every pending completion
    // — so flushed output follows in-flight output in exactly inline order,
    // and (at shutdown) precedes this node's own telemetry record and ack.
    StreamLocal* sp = &stream;
    executor_->post(stream.spec.id, [this, sp] {
      ExecCompletion completion;
      completion.up_outputs = run_upstream_batches(*sp, sp->sync->flush(sp->ctx));
      sp->up_filter->flush(completion.up_outputs, sp->ctx);
      exec_finish(*sp, std::move(completion));
    });
    executor_->drain_stream(stream.spec.id);
    exec_drain_completions();
    return;
  }
  process_batches(stream, stream.sync->flush(stream.ctx));
  std::vector<PacketPtr> finals;
  stream.up_filter->flush(finals, stream.ctx);
  emit_upstream(stream, finals);
}

void NodeRuntime::flush_all_streams() {
  for (auto& [stream_id, stream] : streams_) flush_stream(stream);
}

void NodeRuntime::poll_timeouts(std::int64_t now) {
  for (auto& [stream_id, stream] : streams_) {
    if (!stream.sync) continue;
    if (stream.exec) {
      // The loop may not touch an executor stream's sync policy: it drains
      // on the stream's shard, one drain per due deadline.
      if (!stream.exec_drain_posted && stream.exec_deadline >= 0 &&
          stream.exec_deadline <= now) {
        exec_post_deadline_drain(stream);
      }
      continue;
    }
    const auto deadline = stream.sync->next_deadline();
    if (deadline && *deadline <= now) {
      process_batches(stream, stream.sync->drain_ready(now, stream.ctx));
    }
  }
}

void NodeRuntime::poll_liveness(std::int64_t now) {
  if (!liveness_ || done_ || crashed_) return;
  // Explicit heartbeats on channels that have been send-idle too long.
  if (parent_link_ && !upstream_parked_ && liveness_->parent_heartbeat_due(now)) {
    send_parent(make_heartbeat_packet());
    metrics_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
    if (last_parent_hb_sent_ < 0) last_parent_hb_sent_ = now;
  }
  for (const std::uint32_t slot : liveness_->children_heartbeat_due(now)) {
    if (slot < child_links_.size() && child_links_[slot] && child_alive_[slot]) {
      send_child(slot, make_heartbeat_packet());
      metrics_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Failure declarations: a silent peer is treated exactly like an EOF.
  for (const std::uint32_t slot : liveness_->timed_out_children(now)) {
    if (slot >= child_alive_.size() || !child_alive_[slot]) {
      liveness_->drop_child(slot);
      continue;
    }
    TBON_WARN("node " << id_ << " heartbeat timeout: declaring child slot "
                      << slot << " dead");
    if (child_links_[slot]) child_links_[slot]->close();
    note_child_gone(slot);
  }
  // A parked node is between parents on purpose: the old channel going
  // quiet must not trigger spurious re-adoption mid-rehome.
  if (!shutting_down_ && !upstream_parked_ && role_ != NodeRole::kRoot &&
      liveness_->parent_timed_out(now)) {
    TBON_WARN("node " << id_ << " heartbeat timeout: declaring parent dead");
    if (parent_link_) parent_link_->close();
    handle_parent_lost();
  }
}

std::optional<std::int64_t> NodeRuntime::earliest_deadline() const {
  std::optional<std::int64_t> earliest;
  for (const auto& [stream_id, stream] : streams_) {
    if (!stream.sync) continue;
    // An executor stream's deadline is the shard's last report, and counts
    // only until its drain is posted (the drain's completion re-reports).
    std::optional<std::int64_t> deadline;
    if (!stream.exec) {
      deadline = stream.sync->next_deadline();
    } else if (!stream.exec_drain_posted && stream.exec_deadline >= 0) {
      deadline = stream.exec_deadline;
    }
    if (deadline && (!earliest || *deadline < *earliest)) earliest = deadline;
  }
  if (liveness_) {
    const auto deadline = liveness_->next_deadline();
    if (deadline && (!earliest || *deadline < *earliest)) earliest = deadline;
  }
  if (telemetry_armed_ && !shutting_down_ &&
      (!earliest || telemetry_next_ < *earliest)) {
    earliest = telemetry_next_;
  }
  return earliest;
}

void NodeRuntime::poll_telemetry(std::int64_t now) {
  if (!telemetry_armed_ || shutting_down_ || done_ || crashed_) return;
  if (now < telemetry_next_) return;
  telemetry_next_ = now + telemetry_interval_ns_;
  publish_telemetry();
}

void NodeRuntime::refresh_gauges() {
  metrics_.inbox_depth.store(inbox_->size(), std::memory_order_relaxed);
  std::uint64_t depth = 0;
  for (const auto& [stream_id, stream] : streams_) {
    if (stream.exec) {
      // The shard owns the sync policy; use the completion-updated mirror.
      depth += stream.exec_buffered;
    } else if (stream.sync) {
      depth += stream.sync->buffered();
    }
  }
  metrics_.sync_depth.store(depth, std::memory_order_relaxed);
  if (executor_) {
    metrics_.exec_queue_depth.store(executor_->queue_depth(),
                                    std::memory_order_relaxed);
  }
}

void NodeRuntime::publish_telemetry() {
  refresh_gauges();
  NodeTelemetry record = metrics_.publish(id_, role_byte());
  record.tenants = tenants_->snapshot();
  const PacketPtr packet =
      make_telemetry_packet(id_, serialize_records({&record, 1}));
  if (role_ == NodeRole::kRoot) {
    // The root's own record goes straight to the collector; child records
    // arrive through the telemetry stream's merge filter like any other
    // upstream result.
    if (delegate_ != nullptr) delegate_->on_result(kTelemetryStream, packet);
  } else {
    send_parent(packet);
  }
}

void NodeRuntime::forward_down(const PacketPtr& packet) {
  for (std::uint32_t slot = 0; slot < child_links_.size(); ++slot) {
    if (child_links_[slot] && child_alive_[slot]) send_child(slot, packet);
  }
}

void NodeRuntime::forward_down_to_participants(const StreamLocal& stream,
                                               const PacketPtr& packet) {
  for (const std::uint32_t slot : stream.participating_slots) {
    if (slot >= child_links_.size() || !child_links_[slot] || !child_alive_[slot]) {
      continue;
    }
    if (!topic_routed_to_slot(stream, slot)) {
      // Pub/sub pruning: no subscriber for this topic lives in that subtree.
      metrics_.topic_packets_pruned.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    send_child(slot, packet);
  }
}

bool NodeRuntime::topic_routed_to_slot(const StreamLocal& stream,
                                       std::uint32_t slot) const {
  const std::string& topic = stream.spec.topic_path;
  if (topic.empty()) return true;  // untopiced stream: classic multicast
  for (const auto& [prefix, ranks] : subs_) {
    if (!topic_matches(prefix, topic)) continue;
    for (const std::uint32_t rank : ranks) {
      const auto route = rank_routes_.find(rank);
      if (route != rank_routes_.end() && route->second == slot) return true;
    }
  }
  return false;
}

void NodeRuntime::handle_downstream_data(const PacketPtr& packet) {
  const bool deferred = consume_downstream_data(packet);
  if (!deferred && packet->stream_id() != kTelemetryStream) {
    note_consumed(Origin::kParent, 0, 1, grant_share(packet->stream_id()));
  }
}

/// Returns true when the packet was dispatched to the executor (its credit
/// is deferred to completion delivery), false when handled to completion.
bool NodeRuntime::consume_downstream_data(const PacketPtr& packet) {
  const bool telemetry = packet->stream_id() == kTelemetryStream;
  if (telemetry) {
    metrics_.telemetry_packets.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.packets_down.fetch_add(1, std::memory_order_relaxed);
    metrics_.bytes_down.fetch_add(packet->payload_bytes(), std::memory_order_relaxed);
  }

  if (role_ == NodeRole::kLeaf) {
    if (delegate_ != nullptr) delegate_->on_downstream(packet);
    return false;
  }
  const auto it = streams_.find(packet->stream_id());
  if (it == streams_.end()) {
    metrics_.packets_dropped.fetch_add(1, std::memory_order_relaxed);
    TBON_WARN("node " << id_ << " dropping downstream packet for unknown stream "
                      << packet->stream_id());
    return false;
  }
  StreamLocal& stream = it->second;
  if (stream.fast_down) {
    // Identity downstream filter: multicast the packet reference as-is
    // (one shared object across all child queues, relayed verbatim by fd
    // links).  No filter code runs and no clock is read: one zero-length
    // filter observation per packet.
    forward_down_to_participants(stream, packet);
    metrics_.observe_filter_latency(0);
    return false;
  }
  if (stream.exec) {
    exec_dispatch_downstream(stream, packet);
    return true;
  }
  for (const PacketPtr& output : run_downstream_filter(stream, packet)) {
    forward_down_to_participants(stream, output);
  }
  return false;
}

void NodeRuntime::close_all_links() {
  if (parent_link_) parent_link_->close();
  for (auto& link : child_links_) {
    if (link) link->close();
  }
}

}  // namespace tbon
