// FilterExecutor: a per-node pool of worker threads that runs filter work
// off the event loop, so the loop shrinks to pure I/O + control (heartbeats,
// credits, adoption never wait behind a slow filter).
//
// Ordering model — "stream sharding":
//   * Every stream is pinned to one worker: shard = hash(stream_id) % N.
//   * Each stream has its own FIFO run queue; a worker executes one stream's
//     tasks strictly in post order.
// Together these preserve per-stream FIFO delivery and stateful-filter
// sequencing *exactly* (a stream's sync policy and transformation filter are
// only ever touched from its shard), while distinct streams execute
// concurrently on distinct workers.
//
// The executor knows nothing about packets or links: the NodeRuntime posts
// closures that run the sync/filter machinery and hand their outputs back to
// the event loop as completion records (see node.hpp).  Timed sync policies
// (time_out) are drained by tasks too: each completion reports the stream's
// next sync deadline, and the loop posts a drain task to the stream's shard
// when it falls due, so even timer-driven drains keep the sharding guarantee.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "core/tenant.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {

/// Typed executor configuration (part of NetworkOptions).  The default —
/// zero workers — keeps today's inline behaviour: every filter runs on the
/// node's event-loop thread and existing programs are unchanged.
struct ExecutionOptions {
  /// Worker threads per interior node (the front-end and every internal
  /// communication process; leaves run no filters).  0 = inline.
  std::uint32_t num_workers = 0;

  /// Per-stream run-queue bound.  A full queue blocks the event loop's
  /// post(), which in turn stops the loop from returning flow-control
  /// credits — worker-queue occupancy therefore counts against the
  /// channel's credit window and the bounded-depth guarantee survives.
  std::size_t stream_queue_capacity = 1024;

  bool enabled() const noexcept { return num_workers > 0; }
};

class FilterExecutor {
 public:
  using Task = std::function<void()>;

  /// `metrics` (optional) receives exec_tasks / exec_task_ns /
  /// exec_queue_peak as work flows through; workers start immediately.
  FilterExecutor(const ExecutionOptions& options, MetricsRegistry* metrics);
  ~FilterExecutor();

  FilterExecutor(const FilterExecutor&) = delete;
  FilterExecutor& operator=(const FilterExecutor&) = delete;

  std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// The worker a stream is pinned to (stable for the executor's lifetime).
  std::uint32_t shard_of(std::uint32_t stream_id) const noexcept;

  /// Register a stream before posting work for it.  `priority` places the
  /// stream's tasks in its shard's weighted drain (control > high > normal >
  /// bulk with weights 4/2/1 below control, which always drains first) so a
  /// bulk flood sharing a shard cannot starve a high-priority stream.
  void add_stream(std::uint32_t stream_id, Priority priority = Priority::kNormal);

  /// Unregister (call only after drain_stream: no tasks may be in flight).
  void remove_stream(std::uint32_t stream_id);

  /// Enqueue a task on the stream's shard, preserving per-stream FIFO order.
  /// Blocks while the stream's queue is at capacity (backpressure toward
  /// the event loop, which is what keeps credits unreturned).
  void post(std::uint32_t stream_id, Task task);

  /// Barrier: every task posted so far (all streams) has finished.
  void drain();

  /// Barrier for one stream's queue.
  void drain_stream(std::uint32_t stream_id);

  /// Tasks currently queued across all streams (telemetry gauge).
  std::uint64_t queue_depth() const;

  /// Stop workers after their current task, abandoning queued work (crash
  /// teardown; orderly shutdown drains first).  Idempotent.
  void stop();

 private:
  struct StreamState {
    Priority priority = Priority::kNormal;
    std::size_t queued = 0;           ///< tasks waiting in the run queue
    bool running = false;             ///< a task is executing now
  };

  struct Worker {
    mutable std::mutex mutex;
    std::condition_variable wake;     ///< work arrived / stop
    std::condition_variable settled;  ///< task finished (post backpressure, drains)
    /// Per-priority cross-stream FIFOs; within one class tasks run in post
    /// order, so per-stream FIFO holds (a stream lives in exactly one class).
    std::array<std::deque<std::pair<std::uint32_t, Task>>, kNumPriorities> queues;
    std::map<std::uint32_t, StreamState> streams;
    std::size_t executing = 0;        ///< tasks running right now
    /// Weighted-round-robin drain state over kHigh/kNormal/kBulk.
    std::size_t wrr_class = static_cast<std::size_t>(Priority::kHigh);
    std::uint32_t wrr_left = 0;
    std::jthread thread;
  };

  bool pop_task_locked(Worker& worker, std::uint32_t& stream_id, Task& task);
  void worker_loop(Worker& worker);

  ExecutionOptions options_;
  MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace tbon
