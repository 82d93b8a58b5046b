#include "core/executor.hpp"

#include "common/timer.hpp"

namespace tbon {

namespace {

/// splitmix64 finalizer: stream ids are small sequential integers, so a
/// plain modulo would shard id and id+N onto the same worker in lockstep;
/// mixing first spreads any id pattern evenly across the pool.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Drain weights per priority class.  kControl's weight is unused (its queue
/// is always drained first); high : normal : bulk share slots 4 : 2 : 1.
constexpr std::array<std::uint32_t, kNumPriorities> kDrainWeights{0, 4, 2, 1};

}  // namespace

FilterExecutor::FilterExecutor(const ExecutionOptions& options,
                               MetricsRegistry* metrics)
    : options_(options), metrics_(metrics) {
  workers_.reserve(options_.num_workers);
  for (std::uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Start only after the vector is complete: worker_loop never touches
  // workers_ but keeping construction and launch separate is free insurance.
  for (auto& worker : workers_) {
    worker->thread = std::jthread([this, w = worker.get()] { worker_loop(*w); });
  }
  if (metrics_) {
    metrics_->exec_workers.store(options_.num_workers, std::memory_order_relaxed);
  }
}

FilterExecutor::~FilterExecutor() { stop(); }

std::uint32_t FilterExecutor::shard_of(std::uint32_t stream_id) const noexcept {
  return static_cast<std::uint32_t>(mix64(stream_id) % workers_.size());
}

void FilterExecutor::add_stream(std::uint32_t stream_id, Priority priority) {
  Worker& worker = *workers_[shard_of(stream_id)];
  std::lock_guard<std::mutex> lock(worker.mutex);
  worker.streams[stream_id].priority = priority;
}

void FilterExecutor::remove_stream(std::uint32_t stream_id) {
  Worker& worker = *workers_[shard_of(stream_id)];
  std::lock_guard<std::mutex> lock(worker.mutex);
  worker.streams.erase(stream_id);
}

void FilterExecutor::post(std::uint32_t stream_id, Task task) {
  Worker& worker = *workers_[shard_of(stream_id)];
  std::unique_lock<std::mutex> lock(worker.mutex);
  StreamState& state = worker.streams[stream_id];
  // Backpressure: a full per-stream queue parks the posting event loop,
  // which stops consuming envelopes and returning credits — exactly how
  // worker occupancy is made to count against the credit window.
  worker.settled.wait(lock, [&] {
    return state.queued < options_.stream_queue_capacity ||
           stop_.load(std::memory_order_relaxed);
  });
  if (stop_.load(std::memory_order_relaxed)) return;
  ++state.queued;
  worker.queues[static_cast<std::size_t>(state.priority)].emplace_back(
      stream_id, std::move(task));
  if (metrics_) update_max(metrics_->exec_queue_peak, state.queued);
  worker.wake.notify_one();
}

void FilterExecutor::drain() {
  const auto all_empty = [](const Worker& worker) {
    for (const auto& queue : worker.queues) {
      if (!queue.empty()) return false;
    }
    return true;
  };
  for (auto& worker : workers_) {
    std::unique_lock<std::mutex> lock(worker->mutex);
    worker->settled.wait(lock, [&] {
      return (all_empty(*worker) && worker->executing == 0) ||
             stop_.load(std::memory_order_relaxed);
    });
  }
}

void FilterExecutor::drain_stream(std::uint32_t stream_id) {
  Worker& worker = *workers_[shard_of(stream_id)];
  std::unique_lock<std::mutex> lock(worker.mutex);
  worker.settled.wait(lock, [&] {
    const auto it = worker.streams.find(stream_id);
    if (it == worker.streams.end()) return true;
    return (it->second.queued == 0 && !it->second.running) ||
           stop_.load(std::memory_order_relaxed);
  });
}

std::uint64_t FilterExecutor::queue_depth() const {
  std::uint64_t depth = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    for (const auto& queue : worker->queues) depth += queue.size();
  }
  return depth;
}

void FilterExecutor::stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      // Abandon queued tasks (crash semantics; orderly paths drain first)
      // and zero the per-stream counts so blocked posters wake cleanly.
      for (auto& queue : worker->queues) queue.clear();
      for (auto& [stream_id, state] : worker->streams) state.queued = 0;
    }
    worker->wake.notify_all();
    worker->settled.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool FilterExecutor::pop_task_locked(Worker& worker, std::uint32_t& stream_id,
                                     Task& task) {
  const auto take = [&](std::size_t cls) {
    auto& queue = worker.queues[cls];
    stream_id = queue.front().first;
    task = std::move(queue.front().second);
    queue.pop_front();
    if (metrics_) {
      MetricsRegistry::Counter* drained[] = {
          &metrics_->prio_drained_control, &metrics_->prio_drained_high,
          &metrics_->prio_drained_normal, &metrics_->prio_drained_bulk};
      drained[cls]->fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Control always preempts the weighted classes.
  if (!worker.queues[static_cast<std::size_t>(Priority::kControl)].empty()) {
    take(static_cast<std::size_t>(Priority::kControl));
    return true;
  }
  // Weighted round-robin over high/normal/bulk: each class gets up to its
  // weight in consecutive slots, then the turn passes on.  An empty class
  // forfeits its turn, so a lone class still drains at full speed.
  for (std::size_t scanned = 0; scanned < kNumPriorities - 1; ++scanned) {
    auto& queue = worker.queues[worker.wrr_class];
    if (!queue.empty() && worker.wrr_left > 0) {
      const std::size_t cls = worker.wrr_class;
      if (--worker.wrr_left == 0) {
        worker.wrr_class = worker.wrr_class == kNumPriorities - 1
                               ? static_cast<std::size_t>(Priority::kHigh)
                               : worker.wrr_class + 1;
        worker.wrr_left = kDrainWeights[worker.wrr_class];
      }
      take(cls);
      return true;
    }
    worker.wrr_class = worker.wrr_class == kNumPriorities - 1
                           ? static_cast<std::size_t>(Priority::kHigh)
                           : worker.wrr_class + 1;
    worker.wrr_left = kDrainWeights[worker.wrr_class];
  }
  return false;
}

void FilterExecutor::worker_loop(Worker& worker) {
  std::unique_lock<std::mutex> lock(worker.mutex);
  if (worker.wrr_left == 0) {
    worker.wrr_left = kDrainWeights[worker.wrr_class];
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    std::uint32_t stream_id = 0;
    Task task;
    if (pop_task_locked(worker, stream_id, task)) {
      const auto it = worker.streams.find(stream_id);
      if (it != worker.streams.end()) {
        --it->second.queued;
        it->second.running = true;
      }
      ++worker.executing;
      lock.unlock();
      const std::int64_t start = now_ns();
      task();
      const auto elapsed = static_cast<std::uint64_t>(now_ns() - start);
      if (metrics_) {
        metrics_->exec_tasks.fetch_add(1, std::memory_order_relaxed);
        metrics_->exec_task_ns.fetch_add(elapsed, std::memory_order_relaxed);
      }
      lock.lock();
      --worker.executing;
      const auto after = worker.streams.find(stream_id);
      if (after != worker.streams.end()) after->second.running = false;
      worker.settled.notify_all();
      continue;
    }
    worker.wake.wait(lock);
  }
}

}  // namespace tbon
