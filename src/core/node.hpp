// NodeRuntime: the event loop run by every process slot in the tree.
//
// One NodeRuntime instance serves one topology node.  It pops envelopes from
// its inbox and:
//   * routes downstream packets toward participating children (applying the
//     stream's downstream transformation filter),
//   * feeds upstream packets through the stream's synchronization filter and
//     transformation filter, forwarding the results toward the root,
//   * executes the control protocol (stream creation/teardown, dynamic
//     filter loading, shutdown with acknowledgements),
//   * detects peer failure (EOF envelopes) and degrades gracefully:
//     wait_for_all stops waiting on dead children.
//
// The same class is used for the front-end (role kRoot: results go to the
// Delegate instead of a parent link), internal communication processes
// (role kInternal) and back-ends (role kLeaf: downstream packets go to the
// Delegate; upstream sends bypass the runtime via the parent link).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <memory>
#include <vector>

#include "core/executor.hpp"
#include "core/flow_control.hpp"
#include "core/protocol.hpp"
#include "core/registry.hpp"
#include "core/runtime.hpp"
#include "core/tenant.hpp"
#include "recovery/fault_injector.hpp"
#include "recovery/heartbeat.hpp"
#include "topology/topology.hpp"

namespace tbon {

enum class NodeRole : std::uint8_t { kRoot, kInternal, kLeaf };

class NodeRuntime {
 public:
  /// Callbacks into the endpoint layer; all invoked on the runtime thread.
  class Delegate {
   public:
    virtual ~Delegate() = default;
    /// Root only: a fully aggregated upstream packet is available.
    virtual void on_result(std::uint32_t stream_id, PacketPtr packet) {
      (void)stream_id;
      (void)packet;
    }
    /// Leaf only: a downstream packet arrived for this back-end.
    virtual void on_downstream(PacketPtr packet) { (void)packet; }
    /// Any node: a stream now exists locally (leaves use this to unblock
    /// sends; the root uses it for bookkeeping).
    virtual void on_stream_known(const StreamSpec& spec) { (void)spec; }
    /// A stream was deleted.
    virtual void on_stream_deleted(std::uint32_t stream_id) { (void)stream_id; }
    /// Root only: every subtree acknowledged shutdown.
    virtual void on_shutdown_complete() {}
    /// Leaf only: the network is shutting down.
    virtual void on_shutdown() {}
    /// Leaf only: a tree-routed back-end-to-back-end message arrived.
    virtual void on_peer_message(PacketPtr inner) { (void)inner; }
    /// Root only: a subscription change reached the root (every subscribe /
    /// unsubscribe propagates to the front-end, which uses this to answer
    /// subscriber_count / wait_subscribers).
    virtual void on_subscription(const std::string& prefix, std::uint32_t rank,
                                 bool added) {
      (void)prefix;
      (void)rank;
      (void)added;
    }
    /// Root only: a reconfiguration operation's acknowledgement arrived
    /// (planned detach / quiesce / rehome; see src/core/reconfig.hpp).
    virtual void on_reconfig_ack(std::int64_t op_id, std::uint32_t subject) {
      (void)op_id;
      (void)subject;
    }
    /// Leaf only: the reconfiguration protocol is quiescing this back-end;
    /// application sends must pause until on_reconfig_resume.
    virtual void on_reconfig_pause() {}
    virtual void on_reconfig_resume() {}
  };

  /// Node `id` of a static topology: its role and the back-end ranks below
  /// each child slot are read from `topology` here, and never again.
  NodeRuntime(const Topology& topology, NodeId id, FilterRegistry& registry,
              Delegate* delegate);
  /// A leaf outside the static topology serving back-end `rank` (a
  /// dynamically attached back-end); its parent adopts it like any child.
  NodeRuntime(NodeId id, std::uint32_t rank, FilterRegistry& registry, Delegate* delegate);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Wiring (call before run()).
  void set_parent_link(LinkPtr link) { parent_link_ = std::move(link); }
  void add_child_link(LinkPtr link) { child_links_.push_back(std::move(link)); }
  const InboxPtr& inbox() const noexcept { return inbox_; }

  /// Dynamic topology support: reserve a child slot, then hand the runtime a
  /// link to the new child with request_adopt.
  std::uint32_t reserve_child_slot() noexcept;

  /// Tell this node (an ancestor of a newly wired child) that back-end
  /// `backend_rank` is reachable through child `slot`.
  void request_route(std::uint32_t backend_rank, std::uint32_t slot);

  /// Withdraw a rank route (planned subtree migration: the old path's
  /// ancestors stop claiming reachability).  Unroutes queued before routes
  /// are applied first, so an unroute+route pair re-points a rank atomically
  /// from the runtime thread's perspective.
  void request_unroute(std::uint32_t backend_rank);

  /// Called (on the runtime thread) when a kTagRehome frame targets this
  /// node: re-wire under `new_parent` and return true, or false to fail the
  /// operation (the runtime then crashes so its children re-adopt).  Without
  /// a handler the orphan handler is used as a fallback, ignoring
  /// `new_parent` — the process/remote instantiations re-home through the
  /// same rendezvous path as fault recovery.
  void set_rehome_handler(std::function<bool(NodeRuntime&, NodeId)> handler) {
    rehome_handler_ = std::move(handler);
  }

  /// Back-end ranks currently served by this node's subtree: the static
  /// subtree ranks plus dynamically attached/adopted ones, minus departed
  /// children.  A leaf returns its own rank.
  std::vector<std::uint32_t> served_ranks() const;

  /// The back-end rank a leaf serves (0 for the root and interiors).
  std::uint32_t leaf_rank() const noexcept { return leaf_rank_; }

  /// Children wired and alive right now (engine load gauge).
  std::size_t live_child_count() const noexcept { return live_children_; }

  // ---- flow control (src/core/flow_control.hpp) ---------------------------

  /// Enable credit accounting for data this node consumes, and grow the
  /// inbox so that exempt control/telemetry traffic never blocks behind the
  /// credit-bounded data plane.  Call before run().
  void set_flow_control(const FlowControlOptions& options);

  /// Install the callback that returns credits for data consumed from the
  /// parent channel / from child `slot`.  Threaded networks grant straight
  /// into the shared CreditGate; process mode sends a kTagCredit frame on
  /// the channel.  Safe from any thread (re-adoption replaces granters of a
  /// running node).
  void set_parent_granter(std::function<void(std::uint32_t)> granter);
  void set_child_granter(std::uint32_t slot,
                         std::function<void(std::uint32_t)> granter);

  /// Register a sender-side flow-controlled link whose pending ring this
  /// runtime's event loop flushes whenever it wakes (gate drain hooks push a
  /// wakeup marker into the inbox).  Safe from any thread.
  void register_fc_link(std::shared_ptr<FlowControlledLink> link);

  // ---- parallel filter execution (src/core/executor.hpp) ------------------

  /// Enable the stream-sharded filter worker pool: sync + transformation
  /// filter work runs on N workers (per-stream FIFO preserved; distinct
  /// streams concurrent) while this event loop keeps doing pure I/O +
  /// control.  Workers hand results back as completion records the loop
  /// delivers, so every send still happens on the loop thread and credits
  /// for dispatched packets are only returned once their filter work has
  /// completed.  Leaves ignore this (they run no filters).  Call before
  /// run(); num_workers = 0 keeps today's inline behaviour.
  void set_execution(const ExecutionOptions& options);

  // ---- recovery subsystem (src/recovery/) ---------------------------------

  /// Enable heartbeat-based failure detection on every channel of this node.
  /// Call before run().
  void set_recovery(const HeartbeatConfig& config);

  /// Deterministic fault injection; consulted on every data packet and send.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Called (on the runtime thread) when the parent channel dies while the
  /// network is not shutting down.  Return true once re-adopted (the runtime
  /// keeps running under the new parent); false to give up, in which case
  /// the runtime dies abruptly so its own children re-adopt in turn.
  /// Without a handler the legacy behaviour applies: orderly subtree
  /// shutdown.
  void set_orphan_handler(std::function<bool(NodeRuntime&)> handler);

  /// Called after an injected crash closed all links.  The multi-process
  /// instantiation installs `std::_Exit(0)` here; the default (threaded)
  /// simply stops the event loop.
  void set_crash_handler(std::function<void()> handler);

  /// Wire a child serving back-end `ranks` at reserved child `slot`: an
  /// orphaned or re-homed subtree, or a dynamically attached leaf.  Safe
  /// from any thread: the runtime wires it on its own thread when the
  /// kTagAttachChild marker arrives.  The child joins every stream whose
  /// endpoint set intersects `ranks`, and existing stream announcements are
  /// replayed to it.
  void request_adopt(std::uint32_t slot, std::vector<std::uint32_t> ranks,
                     LinkPtr link);

  /// Advance the parent-channel epoch (call while re-adopting, on the
  /// runtime thread).  Envelopes from a previous parent carry the old epoch
  /// and are discarded, so a stale EOF cannot re-orphan the node.
  std::uint32_t bump_parent_epoch() noexcept { return ++parent_epoch_; }
  std::uint32_t parent_epoch() const noexcept { return parent_epoch_; }

  /// True once this runtime stopped for any reason (crash, orphaned,
  /// shutdown); used when picking a live ancestor for adoption.
  bool is_dead() const noexcept { return dead_.load(std::memory_order_acquire); }

  NodeId id() const noexcept { return id_; }
  NodeRole role() const noexcept { return role_; }
  NodeMetrics& metrics() noexcept { return metrics_; }

  /// This node's tenant table: stream -> (priority, tenant) classification
  /// plus per-tenant budgets and counters.  Created with the runtime; shared
  /// with the sender-side FlowControlledLinks wired to this node so their
  /// sends are classified by the streams this node has announced.
  const TenantTablePtr& tenants() const noexcept { return tenants_; }

  /// Live snapshot of this node's metrics (does not advance the telemetry
  /// publish sequence).
  NodeTelemetry telemetry_snapshot() const noexcept {
    NodeTelemetry r = metrics_.peek(id_, role_byte());
    r.tenants = tenants_->snapshot();
    return r;
  }

  /// Process envelopes until shutdown completes or the inbox is destroyed.
  void run();

 private:
  struct StreamLocal {
    StreamSpec spec;
    FilterContext ctx;
    std::unique_ptr<SyncPolicy> sync;
    std::unique_ptr<TransformFilter> up_filter;
    std::unique_ptr<TransformFilter> down_filter;
    /// child slot -> index the sync policy sees, or -1 if not participating.
    std::vector<std::int32_t> slot_to_sync_index;
    /// child slots participating in this stream, in slot order.
    std::vector<std::uint32_t> participating_slots;
    /// Fast pass-through lanes: when a direction has only identity filters
    /// ("null" sync + "passthrough" transform up; "passthrough" down), the
    /// runtime forwards packets without touching the sync/filter machinery —
    /// a wire-backed packet then crosses the node with zero payload copies.
    /// They count waves like the filter lanes but read no clock: each run or
    /// packet is one zero-length filter-latency observation.
    bool fast_up = false;
    bool fast_down = false;
    /// Upstream sync is "null" (one singleton wave per packet): a run of N
    /// packets (N = 1 for a lone packet) is handed to the transformation
    /// filter as ONE filter_batch() call — N independent waves, amortized —
    /// with output byte-identical to N single-packet invocations.
    bool null_sync = false;
    /// Executor mode: sync/filter/ctx are only ever touched on the stream's
    /// shard once this is set (the loop dispatches tasks instead of running
    /// the machinery itself).
    bool exec = false;
    /// Loop-owned mirrors of what the shard last reported: sync->buffered()
    /// and sync->next_deadline() (-1 = none).  When the deadline falls due,
    /// the loop posts one drain task to the shard; `exec_drain_posted` keeps
    /// at most one outstanding.
    std::uint64_t exec_buffered = 0;
    std::int64_t exec_deadline = -1;
    bool exec_drain_posted = false;
  };

  /// What a worker hands back to the event loop after running filter work:
  /// outputs to send (the loop owns all links), the stream's post-task
  /// buffered count and next sync deadline, and the deferred flow-control
  /// credit for the packet that triggered the task.
  struct ExecCompletion {
    std::uint32_t stream_id = 0;
    std::vector<PacketPtr> up_outputs;    ///< toward the parent / root delegate
    std::vector<PacketPtr> down_outputs;  ///< multicast to participating children
    std::uint64_t buffered = 0;
    std::int64_t deadline = -1;           ///< next sync deadline; -1 = none
    bool deadline_drain = false;          ///< the loop's deadline drain task
    std::uint32_t credits = 0;     ///< credits to return on delivery (one per
                                   ///< packet the task consumed; a coalesced
                                   ///< run carries its whole count)
    Origin credit_origin = Origin::kParent;
    std::uint32_t credit_slot = 0;
  };

  void handle_envelope(Envelope&& envelope);
  void handle_control(const Envelope& envelope);
  void handle_subscription(const Envelope& envelope, bool added);
  /// True when downstream data on `stream` should reach child `slot`:
  /// untopiced streams go to every participant; topiced streams only where a
  /// subtree subscription prefix-matches the topic.
  bool topic_routed_to_slot(const StreamLocal& stream, std::uint32_t slot) const;
  void route_peer_message(const Envelope& envelope);
  /// Apply queued topology requests on receipt of a kTagAttachChild marker
  /// (see PendingChildOp).
  void process_pending_attaches();
  void wire_dynamic_child(std::uint32_t slot, std::vector<std::uint32_t> ranks,
                          LinkPtr link);
  NodeRuntime(NodeId id, NodeRole role, std::uint32_t leaf_rank,
              std::vector<std::vector<std::uint32_t>> child_ranks,
              FilterRegistry& registry, Delegate* delegate);
  void handle_new_stream(const StreamSpec& spec);
  void handle_delete_stream(std::uint32_t stream_id);
  void handle_detach(const Envelope& envelope);
  void handle_quiesce(const Envelope& envelope);
  void handle_rehome(const Envelope& envelope);
  void handle_reconfig_ack(const Envelope& envelope);
  /// kTagMembership from a child: retire (live == false) or revive its slot
  /// in every stream's wave sync; the link itself stays wired.
  void handle_membership(const Envelope& envelope);
  /// True when the slot both has a live link and serves at least one
  /// back-end (emptied relay interiors stay linked but stop contributing).
  bool slot_contributes(std::uint32_t slot) const;
  /// Tell the parent this subtree just lost its last contributing back-end
  /// (or regained its first), so wave syncs upstream never stall on it.
  void notify_parent_membership(bool live);
  /// Route a control frame one hop toward back-end `rank`; `allow_dead`
  /// lets a rehome frame cross the membership-removed edge at the old
  /// parent.  Returns false (and counts a drop) when no route exists.
  bool route_down_via_rank(std::uint32_t rank, const PacketPtr& packet,
                           bool allow_dead);
  /// Replay emissions parked while quiesced to the (new) parent, in order.
  void unpark_upstream();
  void handle_parent_lost();
  void handle_shutdown();
  void crash();
  bool send_parent(const PacketPtr& packet);
  bool send_child(std::uint32_t slot, const PacketPtr& packet);
  void poll_liveness(std::int64_t now);
  void apply_membership_change(StreamLocal& stream, std::size_t sync_index,
                               bool added, bool revived = false);
  std::size_t live_participants(const StreamLocal& stream) const;
  void note_child_gone(std::uint32_t slot);
  void handle_downstream_data(const PacketPtr& packet);
  bool consume_downstream_data(const PacketPtr& packet);
  void handle_upstream_batch(std::uint32_t slot, std::span<const PacketPtr> packets);
  /// The one upstream data path: a packet envelope arrives as a run of one.
  void consume_upstream_run(std::uint32_t slot, std::span<const PacketPtr> run);
  void process_batches(StreamLocal& stream, std::vector<SyncPolicy::Batch> batches);
  /// The three filter call sites, each timed into filter_ns once: a
  /// null-sync run, sync-formed waves, one downstream packet.
  std::vector<PacketPtr> run_upstream_filter_batch(StreamLocal& stream,
                                                   std::span<const PacketPtr> run);
  std::vector<PacketPtr> run_upstream_batches(StreamLocal& stream,
                                              std::vector<SyncPolicy::Batch> batches);
  std::vector<PacketPtr> run_downstream_filter(StreamLocal& stream,
                                               const PacketPtr& packet);
  MembershipSnapshot membership_snapshot(const StreamLocal& stream) const;
  void exec_register_stream(StreamLocal& stream);
  void exec_dispatch_upstream_run(StreamLocal& stream, std::size_t sync_index,
                                  std::span<const PacketPtr> run, std::uint32_t slot,
                                  std::uint32_t credits);
  void exec_dispatch_downstream(StreamLocal& stream, PacketPtr packet);
  /// On the loop: post the drain of a stream whose sync deadline is due.
  void exec_post_deadline_drain(StreamLocal& stream);
  /// On the shard, at the end of every task: record the stream's buffered
  /// count and next deadline in `completion`, then enqueue it.
  void exec_finish(StreamLocal& stream, ExecCompletion&& completion);
  void exec_enqueue(ExecCompletion&& completion);
  void exec_drain_completions();
  void exec_deliver(ExecCompletion&& completion);
  void emit_upstream(StreamLocal& stream, std::span<const PacketPtr> packets);
  void flush_stream(StreamLocal& stream);
  void flush_all_streams();
  void poll_timeouts(std::int64_t now);
  void poll_telemetry(std::int64_t now);
  /// `share` is the consuming stream's tenant credit share, used to pace
  /// grants so a small-share tenant's consumption refills the sender in
  /// proportionally larger, rarer quanta (weighted credit grants).
  void note_consumed(Origin origin, std::uint32_t slot, std::uint32_t count = 1,
                     double share = 1.0);
  /// Tenant credit share of `stream_id` for grant weighting (1.0 when the
  /// stream is untenanted or unknown).
  double grant_share(std::uint32_t stream_id) const;
  void flush_partial_grants();
  void pump_fc_links();
  void publish_telemetry();
  void refresh_gauges();
  std::uint8_t role_byte() const noexcept {
    return role_ == NodeRole::kRoot ? 0 : role_ == NodeRole::kInternal ? 1 : 2;
  }
  std::optional<std::int64_t> earliest_deadline() const;
  void forward_down(const PacketPtr& packet);
  void forward_down_to_participants(const StreamLocal& stream, const PacketPtr& packet);
  void maybe_finish_shutdown();
  void close_all_links();

  NodeId id_;
  NodeRole role_;
  std::uint32_t leaf_rank_;
  FilterRegistry& registry_;
  Delegate* delegate_;

  InboxPtr inbox_;
  LinkPtr parent_link_;
  std::vector<LinkPtr> child_links_;
  std::vector<bool> child_alive_;
  /// Parallel to child_alive_: false marks a slot whose subtree has no
  /// contributing back-ends left (an emptied relay interior after a merge
  /// or planned removals).  The link stays usable; wave syncs skip it.
  std::vector<bool> child_contributing_;
  std::vector<bool> child_acked_;  ///< shutdown ack received from this slot
  /// Atomic so the reconfiguration engine can read the fan-in gauge live.
  std::atomic<std::size_t> live_children_{0};
  std::size_t contributing_children_ = 0;

  /// Back-end rank -> child slot whose subtree serves it (peer routing).
  std::map<std::uint32_t, std::uint32_t> rank_routes_;

  /// Topic subscriptions seen by this node: prefix -> subscriber ranks.
  /// Rank-keyed (not slot-keyed) so re-adoption needs no re-sync: adopters
  /// are always ancestors of the orphan, so they already hold every
  /// subscription, and rank_routes_ re-points ranks at the new slot.
  std::map<std::string, std::set<std::uint32_t>> subs_;

  /// Stream classification + tenant budgets/counters for this node.
  TenantTablePtr tenants_ = std::make_shared<TenantTable>();

  /// Topology requests (adopt, route, unroute) share ONE queue drained in
  /// request order, so an unroute+route pair re-points a rank in one drain.
  struct PendingChildOp {
    enum class Kind { kAdopt, kRoute, kUnroute };
    Kind kind;
    std::uint32_t slot = 0;                 // adopt/route
    std::uint32_t backend_rank = 0;         // route/unroute
    std::vector<std::uint32_t> ranks;       // adopt
    LinkPtr link;                           // adopt
  };
  std::mutex attach_mutex_;
  std::vector<PendingChildOp> pending_child_ops_;
  std::atomic<std::uint32_t> next_dynamic_slot_{0};

  /// Back-end ranks served through each wired child slot: the static
  /// children's subtrees, then whatever each adoption carried.  Decides
  /// which slots join a stream with an endpoint set.
  std::map<std::uint32_t, std::vector<std::uint32_t>> slot_ranks_;

  std::map<std::uint32_t, StreamLocal> streams_;
  NodeMetrics metrics_;

  /// Flow control: per-channel consumed-since-last-grant counts, the
  /// granters that return credits to senders, and sender-side wrappers whose
  /// pending rings this loop pumps.  fc_mutex_ guards all three (granters
  /// are replaced from other threads during re-adoption); granters run
  /// outside the lock.
  FlowControlOptions fc_;
  std::mutex fc_mutex_;
  struct FcChannel {
    std::uint32_t consumed = 0;
    /// Share-weighted consumption since the last grant (weighted credit
    /// grants: sum of count * tenant credit share per note_consumed).
    double weighted = 0.0;
    std::function<void(std::uint32_t)> granter;
  };
  FcChannel fc_parent_;
  std::map<std::uint32_t, FcChannel> fc_children_;
  std::vector<std::shared_ptr<FlowControlledLink>> fc_pump_;

  /// Parallel filter execution: the worker pool plus the completion queue
  /// workers feed and the loop drains (a marker envelope wakes an idle loop;
  /// exec_wake_pending_ coalesces markers so a burst of completions costs
  /// one wakeup).
  ExecutionOptions exec_options_;
  std::unique_ptr<FilterExecutor> executor_;
  std::mutex exec_mutex_;
  std::deque<ExecCompletion> exec_completions_;
  bool exec_wake_pending_ = false;

  // Telemetry publishing (armed when the reserved telemetry stream is
  // announced; the publish interval rides in the stream params).
  bool telemetry_armed_ = false;
  std::int64_t telemetry_interval_ns_ = 0;
  std::int64_t telemetry_next_ = 0;
  std::int64_t last_parent_hb_sent_ = -1;  ///< pending heartbeat RTT probe

  // Recovery state.
  HeartbeatConfig hb_config_;
  std::unique_ptr<PeerLiveness> liveness_;
  std::shared_ptr<FaultInjector> injector_;
  std::function<bool(NodeRuntime&)> orphan_handler_;
  std::function<bool(NodeRuntime&, NodeId)> rehome_handler_;
  std::function<void()> crash_handler_;
  std::uint32_t parent_epoch_ = 0;

  /// Quiesce state: while parked, upstream emissions are buffered (in order)
  /// instead of sent, parent heartbeats stop, and the parent channel is not
  /// subject to liveness timeout — the node is between parents on purpose.
  bool upstream_parked_ = false;
  std::vector<PacketPtr> parked_upstream_;
  std::atomic<bool> dead_{false};
  bool crashed_ = false;

  bool shutting_down_ = false;
  std::size_t shutdown_acks_needed_ = 0;
  bool done_ = false;
};

}  // namespace tbon
