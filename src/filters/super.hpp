// Super filter — filter chaining via composition.
//
// "MRNet does not support filter chaining where a sequence of filters are
// applied at each communication process.  A single 'super filter' that
// propagates the packet flow to a sequence of filters could seamlessly
// mimic this functionality." (paper §2.2)  This is that super filter.
//
// Configure with the stream parameter `chain`, a comma-separated list of
// registered transform filter names applied left to right, e.g.
//   params = "chain=sum,passthrough"
// The output packets of stage i become the input batch of stage i+1.
#pragma once

#include <memory>
#include <vector>

#include "core/filter.hpp"

namespace tbon {

class FilterRegistry;

class SuperFilter final : public TransformFilter {
 public:
  SuperFilter(const FilterContext& ctx, const FilterRegistry& registry);

  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                 FilterContext& ctx) override;
  void flush(std::vector<PacketPtr>& out, FilterContext& ctx) override;

  /// Forward the change to every stage; packets a stage emits in response
  /// (e.g. a time_aligned bucket the failure completed) flow through the
  /// remaining stages, mirroring flush().
  void membership_changed(const MembershipChange& change,
                            std::vector<PacketPtr>& out,
                            FilterContext& ctx) override;

 private:
  std::vector<std::unique_ptr<TransformFilter>> stages_;
};

}  // namespace tbon
