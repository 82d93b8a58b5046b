// Time-aligned data aggregation — one of the paper's headline complex
// filters ("time-aligned data synchronization", §1/§4).
//
// Back-ends emit samples tagged with a time bucket.  Children's packets may
// arrive arbitrarily interleaved across buckets, so wave-based sync filters
// cannot align them; this filter instead keeps *persistent state* (the
// paper's filter-state feature) holding per-bucket partial aggregates and
// emits a bucket only once every participating child has contributed to it
// (each child produces exactly one packet per bucket) — producing one
// time-aligned, element-wise-summed sample vector per bucket.
//
// Use with up_sync = "null".  Payload format: "u64 vf64" = (bucket, values).
// flush() emits incomplete trailing buckets (e.g. after a child failure)
// at stream teardown.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/filter.hpp"

namespace tbon {

class TimeAlignedFilter final : public TransformFilter {
 public:
  static constexpr const char* kFormat = "u64 vf64";

  explicit TimeAlignedFilter(const FilterContext& ctx)
      : expected_children_(ctx.num_children) {}

  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                 FilterContext& ctx) override;
  void flush(std::vector<PacketPtr>& out, FilterContext& ctx) override;

  /// Re-baseline on membership change.  Shrink (failure or planned detach):
  /// the departed child will never contribute to pending buckets, so their
  /// expectation is capped and any bucket the change just completed is
  /// emitted instead of hanging.  Growth (planned attach): only buckets
  /// opened *after* the join expect the newcomer — in-flight buckets keep
  /// the expectation snapshotted at creation, so a join mid-wave cannot
  /// stall them waiting for a contributor that never saw their bucket.
  void membership_changed(const MembershipChange& change,
                            std::vector<PacketPtr>& out,
                            FilterContext& ctx) override;

 private:
  /// Emit and erase every bucket with >= its own expected contributions.
  void emit_complete(std::vector<PacketPtr>& out);

  struct Bucket {
    std::vector<double> sums;
    std::size_t contributions = 0;
    std::size_t expected = 0;  ///< membership when the bucket opened
  };

  void emit(std::uint64_t bucket_id, const Bucket& bucket, std::vector<PacketPtr>& out);

  std::size_t expected_children_;
  std::map<std::uint64_t, Bucket> buckets_;  ///< persistent filter state
  std::uint32_t stream_id_ = 0;
  std::int32_t tag_ = 0;  // adopted from the first packet seen
};

}  // namespace tbon
