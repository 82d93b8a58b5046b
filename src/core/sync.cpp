#include "core/sync.hpp"

#include <algorithm>

#include "common/timer.hpp"

namespace tbon {

// ---- WaitForAllSync ---------------------------------------------------------

WaitForAllSync::WaitForAllSync(const FilterContext& ctx)
    : per_child_(ctx.num_children),
      alive_(per_child_.size(), true),
      num_alive_(per_child_.size()) {}

void WaitForAllSync::on_packet(std::size_t child, PacketPtr packet,
                               FilterContext&) {
  per_child_.at(child).push_back(std::move(packet));
}

bool WaitForAllSync::wave_ready() const {
  if (num_alive_ == 0) {
    // All children failed: deliver whatever remains rather than deadlock.
    return std::any_of(per_child_.begin(), per_child_.end(),
                       [](const auto& q) { return !q.empty(); });
  }
  for (std::size_t c = 0; c < per_child_.size(); ++c) {
    if (alive_[c] && per_child_[c].empty()) return false;
  }
  return true;
}

std::vector<SyncPolicy::Batch> WaitForAllSync::drain_ready(std::int64_t,
                                                           FilterContext&) {
  std::vector<Batch> batches;
  while (wave_ready()) {
    Batch wave;
    for (auto& queue : per_child_) {
      if (!queue.empty()) {
        wave.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    if (wave.empty()) break;
    batches.push_back(std::move(wave));
  }
  return batches;
}

std::vector<SyncPolicy::Batch> WaitForAllSync::flush(FilterContext&) {
  // Deliver remaining packets as (partial) waves, preserving per-child FIFO
  // order: repeatedly take the front packet of every non-empty child queue.
  std::vector<Batch> batches;
  while (true) {
    Batch wave;
    for (auto& queue : per_child_) {
      if (!queue.empty()) {
        wave.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    if (wave.empty()) break;
    batches.push_back(std::move(wave));
  }
  return batches;
}

std::size_t WaitForAllSync::buffered() const {
  std::size_t total = 0;
  for (const auto& queue : per_child_) total += queue.size();
  return total;
}

void WaitForAllSync::membership_changed(const MembershipChange& change,
                                        FilterContext&) {
  if (!change.added) {
    if (change.child < alive_.size() && alive_[change.child]) {
      alive_[change.child] = false;
      --num_alive_;
    }
  } else if (change.revived) {
    // The index already has a (now empty) queue; re-arming the alive flag is
    // all it takes to wait for the re-populated subtree again.
    if (change.child < alive_.size() && !alive_[change.child]) {
      alive_[change.child] = true;
      ++num_alive_;
    }
  } else {
    per_child_.emplace_back();
    alive_.push_back(true);
    ++num_alive_;
  }
}

// ---- TimeOutSync ------------------------------------------------------------

TimeOutSync::TimeOutSync(const FilterContext& ctx)
    : window_ns_(ctx.params.get_int("window_ms", 50) * 1'000'000) {}

void TimeOutSync::on_packet(std::size_t, PacketPtr packet, FilterContext&) {
  // Arm the window when the first packet of a batch is buffered, not when
  // drain_ready() happens to run next: arming lazily let the window start
  // drift later than the packet that opened it, inflating delivery latency
  // by up to one event-loop iteration per batch.
  if (pending_.empty()) deadline_ns_ = now_ns() + window_ns_;
  pending_.push_back(std::move(packet));
}

std::vector<SyncPolicy::Batch> TimeOutSync::drain_ready(std::int64_t now_ns,
                                                        FilterContext&) {
  if (pending_.empty()) {
    deadline_ns_ = -1;
    return {};
  }
  // Buffered packets with no armed window deliver immediately.  Re-arming
  // here used to double-arm the timer: on_packet opens the window, and a
  // drain that raced the disarm (e.g. after a send blocked on upstream
  // flow control) would start a *second* window, silently delaying the
  // batch by up to window_ms beyond the packet that opened it.
  if (now_ns < deadline_ns_) return {};
  deadline_ns_ = -1;
  std::vector<Batch> batches;
  batches.push_back(std::move(pending_));
  pending_.clear();
  return batches;
}

std::optional<std::int64_t> TimeOutSync::next_deadline() const {
  if (deadline_ns_ < 0) return std::nullopt;
  return deadline_ns_;
}

std::vector<SyncPolicy::Batch> TimeOutSync::flush(FilterContext&) {
  if (pending_.empty()) return {};
  std::vector<Batch> batches;
  batches.push_back(std::move(pending_));
  pending_.clear();
  deadline_ns_ = -1;
  return batches;
}

// ---- NullSync ---------------------------------------------------------------

void NullSync::on_packet(std::size_t, PacketPtr packet, FilterContext&) {
  ready_.push_back(Batch{std::move(packet)});
}

std::vector<SyncPolicy::Batch> NullSync::drain_ready(std::int64_t, FilterContext&) {
  return std::exchange(ready_, {});
}

std::vector<SyncPolicy::Batch> NullSync::flush(FilterContext&) {
  return std::exchange(ready_, {});
}

}  // namespace tbon
