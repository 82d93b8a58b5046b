// The data-filter abstraction — the heart of the TBON model.
//
// "A filter can be any function that inputs a set of packets and outputs a
// single packet" (paper §2.1; the general model allows multiple outputs, so
// our interface appends to an output vector).  Filters are instantiated once
// per (node, stream): instance members ARE the persistent filter state the
// paper describes ("persistent filter state, used to carry side-effects from
// one filter execution to the next").
//
// Two filter kinds exist, as in MRNet:
//  * TransformFilter — aggregates/reduces one synchronized batch of packets.
//  * SyncPolicy      — decides *when* buffered upstream packets are grouped
//                      into a batch and delivered to the transformation
//                      filter (wait_for_all, time_out, null).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/packet.hpp"
#include "core/tenant.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {

/// The stream's participating-children set at this node, as the runtime
/// currently sees it.  `live[i]` is indexed by sync index (the dense
/// per-stream child ordering sync policies see); entries flip to false when
/// a child is declared dead and new children append as they are adopted.
struct MembershipSnapshot {
  std::size_t num_live = 0;   ///< children currently expected to contribute
  std::size_t num_total = 0;  ///< sync slots ever allocated (== live.size())
  std::vector<bool> live;     ///< liveness by sync index
};

/// Telemetry hook handed to filters through FilterContext.  Cheap to copy;
/// all methods are safe no-ops when telemetry is disabled.  Counts land in
/// the node's MetricsRegistry and aggregate tree-wide like every other
/// metric (filter_custom_events / the filter latency histogram).
class TelemetryScope {
 public:
  TelemetryScope() = default;
  TelemetryScope(MetricsRegistry* metrics, int worker) noexcept
      : metrics_(metrics), worker_(worker) {}

  /// False when the network runs with telemetry disabled.
  bool enabled() const noexcept { return metrics_ != nullptr; }

  /// Worker thread executing this filter call: 0..N-1 under the
  /// FilterExecutor, -1 when running inline on the node's event loop.
  int worker() const noexcept { return worker_; }

  /// Bump the node's custom-event counter (visible tree-wide as
  /// `filter_custom_events`) — a lightweight way for filters to export
  /// domain events without their own plumbing.
  void count(std::uint64_t n = 1) const noexcept {
    if (metrics_) {
      metrics_->filter_custom_events.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Record a duration in the node's filter-latency histogram.
  void observe_latency(std::uint64_t ns) const noexcept {
    if (metrics_) metrics_->observe_filter_latency(ns);
  }

 private:
  MetricsRegistry* metrics_ = nullptr;
  int worker_ = -1;
};

/// Everything a filter can consult while running: placement (node id, role),
/// stream identity and parameters, a live membership snapshot, and a
/// telemetry scope.  One context per (node, stream) filter instance; the
/// runtime keeps it current and passes it to every hook, replacing the old
/// ad-hoc setter threading.  A filter call may rely on the context being
/// stable for the duration of that call (the runtime only mutates it
/// between calls, on the same shard that runs the filter).
struct FilterContext {
  std::uint32_t node_id = 0;       ///< topology node this instance runs on
  std::uint32_t stream_id = 0;     ///< stream this instance serves
  std::size_t num_children = 0;    ///< live stream-participating children here
  bool is_root = false;            ///< true at the front-end node
  bool is_leaf = false;            ///< true at a back-end node
  Config params;                   ///< per-stream parameters (key=value)
  std::string topic;               ///< stream's topic path ("" = untopiced)
  std::string tenant;              ///< owning tenant name ("" = none)
  Priority priority = Priority::kNormal;  ///< stream's drain class
  MembershipSnapshot membership;   ///< per-sync-index liveness view
  TelemetryScope telemetry;        ///< custom counters + latency histogram
};

/// A change in a stream's participating-children set at one node, caused by
/// failure detection (child died / was declared dead) or re-adoption (a new
/// child was grafted in).  Stateful filters use this to re-baseline instead
/// of waiting forever for contributions that will never arrive.
struct MembershipChange {
  std::size_t child = 0;         ///< sync index of the affected child
  bool added = false;            ///< true: grafted in; false: gone
  std::size_t num_children = 0;  ///< live participating children *after* the change
  /// With `added`: the child is a previously-retired sync index resuming
  /// contribution (a re-populated relay interior), not a brand-new slot.
  bool revived = false;
};

/// Transformation filter: reduces one synchronized batch of upstream packets
/// (or one downstream packet) into zero or more output packets.
class TransformFilter {
 public:
  virtual ~TransformFilter() = default;

  /// Process a batch.  `in` is never empty.  Outputs are appended to `out`
  /// and forwarded toward the parent (upstream) or the children (downstream).
  virtual void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                      FilterContext& ctx) = 0;

  /// Batch-first hook: process several *independent* single-packet waves in
  /// one invocation.  The runtime calls this when a coalesced batch arrives
  /// on a null-sync stream — each packet in `in` is its own wave, so the
  /// required semantics are exactly `for each p: filter({p}, out, ctx)`,
  /// which is what the default does.  Override when per-wave work can be
  /// amortized across the batch (vectorized kernels, shared lookups);
  /// overrides must preserve the one-wave-per-packet contract.  Do NOT
  /// reduce across `in` here — cross-packet aggregation is what filter()
  /// with a grouping SyncPolicy is for.
  virtual void filter_batch(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                            FilterContext& ctx) {
    for (const PacketPtr& packet : in) {
      filter({&packet, 1}, out, ctx);
    }
  }

  /// Called once when the stream shuts down; filters holding buffered state
  /// (e.g. time-aligned aggregation) may emit final packets here.
  virtual void flush(std::vector<PacketPtr>& out, FilterContext& ctx) {
    (void)out;
    (void)ctx;
  }

  /// The stream's membership changed at this node (failure or re-adoption).
  /// `ctx.num_children` / `ctx.membership` already reflect the new state.
  /// Filters keyed on the expected number of contributors re-baseline here
  /// and may emit buffered aggregates that the change just completed;
  /// stateless filters ignore it (default).
  virtual void membership_changed(const MembershipChange& change,
                                  std::vector<PacketPtr>& out, FilterContext& ctx) {
    (void)change;
    (void)out;
    (void)ctx;
  }
};

/// Synchronization filter: groups upstream packets into batches.
///
/// The runtime calls on_packet() for each arriving packet, then drain_ready()
/// to collect complete batches.  Policies with time-based behaviour report a
/// deadline via next_deadline(); the runtime wakes the node at that time and
/// calls drain_ready() again.  flush() empties all buffers (stream teardown).
class SyncPolicy {
 public:
  virtual ~SyncPolicy() = default;

  using Batch = std::vector<PacketPtr>;

  /// A packet arrived from stream-participating child slot `child`.
  virtual void on_packet(std::size_t child, PacketPtr packet, FilterContext& ctx) = 0;

  /// Return every batch that is ready at monotonic time `now_ns`.
  virtual std::vector<Batch> drain_ready(std::int64_t now_ns, FilterContext& ctx) = 0;

  /// Deliver everything still buffered, regardless of completeness.
  virtual std::vector<Batch> flush(FilterContext& ctx) = 0;

  /// The stream's participating-children set changed at this node: a child
  /// was declared failed (stop waiting for it — wait_for_all degrades to the
  /// survivors), a child was adopted or attached at runtime (paper §2.2:
  /// "back-end processes may join after the internal tree has been
  /// instantiated"), or a retired index resumed contributing
  /// (`change.revived`).  Index-agnostic policies (timeout, null) need
  /// nothing, which is the default.
  virtual void membership_changed(const MembershipChange& change, FilterContext& ctx) {
    (void)change;
    (void)ctx;
  }

  /// Monotonic deadline at which drain_ready() should be re-polled, if any.
  virtual std::optional<std::int64_t> next_deadline() const { return std::nullopt; }

  /// Packets currently buffered awaiting batch formation (telemetry gauge).
  virtual std::size_t buffered() const { return 0; }
};

/// Factory signatures used by the registry.
using TransformFactory =
    std::function<std::unique_ptr<TransformFilter>(const FilterContext& ctx)>;
using SyncFactory = std::function<std::unique_ptr<SyncPolicy>(const FilterContext& ctx)>;

}  // namespace tbon
