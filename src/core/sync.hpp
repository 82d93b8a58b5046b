// MRNet's three built-in synchronization filters.
//
//  * WaitForAll — "delivers packets in groups based on packet receipt from
//    all downstream children".
//  * TimeOut    — "delivers packets received within a specified window"
//    (parameter `window_ms`, default 50).
//  * NullSync   — "delivers packets immediately upon receipt".
#pragma once

#include <deque>
#include <vector>

#include "core/filter.hpp"

namespace tbon {

/// Wave-synchronous delivery: one batch per "wave", containing exactly one
/// packet from every live participating child.  Leaves (num_children == 0)
/// never buffer.
class WaitForAllSync final : public SyncPolicy {
 public:
  explicit WaitForAllSync(const FilterContext& ctx);

  void on_packet(std::size_t child, PacketPtr packet, FilterContext& ctx) override;
  std::vector<Batch> drain_ready(std::int64_t now_ns, FilterContext& ctx) override;
  std::vector<Batch> flush(FilterContext& ctx) override;
  std::size_t buffered() const override;
  void membership_changed(const MembershipChange& change, FilterContext& ctx) override;

 private:
  bool wave_ready() const;

  std::vector<std::deque<PacketPtr>> per_child_;
  std::vector<bool> alive_;
  std::size_t num_alive_ = 0;
};

/// Window-based delivery: the first packet of a batch opens a window of
/// `window_ms` milliseconds; everything received before it closes is
/// delivered together.
class TimeOutSync final : public SyncPolicy {
 public:
  explicit TimeOutSync(const FilterContext& ctx);

  void on_packet(std::size_t child, PacketPtr packet, FilterContext& ctx) override;
  std::vector<Batch> drain_ready(std::int64_t now_ns, FilterContext& ctx) override;
  std::optional<std::int64_t> next_deadline() const override;
  std::vector<Batch> flush(FilterContext& ctx) override;
  std::size_t buffered() const override { return pending_.size(); }

 private:
  std::int64_t window_ns_;
  std::int64_t deadline_ns_ = -1;  // -1: no open window
  Batch pending_;
};

/// Immediate delivery: each packet forms its own batch.
class NullSync final : public SyncPolicy {
 public:
  explicit NullSync(const FilterContext&) {}

  void on_packet(std::size_t child, PacketPtr packet, FilterContext& ctx) override;
  std::vector<Batch> drain_ready(std::int64_t now_ns, FilterContext& ctx) override;
  std::vector<Batch> flush(FilterContext& ctx) override;

 private:
  std::vector<Batch> ready_;
};

}  // namespace tbon
