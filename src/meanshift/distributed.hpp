// Distributed mean-shift as a TBON filter — the paper's case study (§3.1):
//
//   "Each leaf node gets a part of the data set.  Each node applies the mean
//    shift procedure then sends the resulting data set and the list of peaks
//    to the next higher node in the network.  Each parent node merges the
//    data sets of its children and then applies the mean shift procedure to
//    the new data set using the peaks determined by child nodes as the
//    starting points."
//
// The "resulting data set" a node forwards is the density-relevant reduction
// of its input: points within `keep_factor * bandwidth` of a discovered
// peak, capped at `max_forward` points (uniformly thinned).  This is what
// makes the computation a *data reduction* in the paper's §2.3 sense —
// output smaller than input, same form as input — while preserving enough
// mass around each mode for parents to re-estimate peak positions.
//
// Stream parameters (all optional):
//   bandwidth, kernel, density_threshold, max_iterations, keep_factor,
//   max_forward, trace (=1 records TraceEvents for critical-path analysis).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "core/filter.hpp"
#include "core/filter_params.hpp"
#include "meanshift/meanshift.hpp"

namespace tbon::ms {

/// Parameters of the distributed protocol on top of MeanShiftParams.
struct DistributedParams {
  MeanShiftParams shift;
  double keep_factor = 1.0;        ///< forward points within keep_factor * h of a peak
  std::size_t max_forward = 4000;  ///< cap on forwarded points per node
  bool trace = false;              ///< record TraceEvents
};

/// Parse stream params ("bandwidth=50 kernel=gaussian ...").
DistributedParams params_from_config(const Config& config);
/// Render as typed stream params (inverse of params_from_config); pass the
/// result to StreamSpec::with_params.
FilterParams to_filter_params(const DistributedParams& params);

/// What one node sends upward: reduced data set + peak list.
struct LocalResult {
  std::vector<Point2> points;
  std::vector<Peak> peaks;
};

/// Payload codec.  Format "vf64 vf64 vf64 vf64 vi64" =
/// (point xs, point ys, peak xs, peak ys, peak supports).
struct MeanShiftCodec {
  static constexpr const char* kFormat = "vf64 vf64 vf64 vf64 vi64";
  static std::vector<DataValue> to_values(const LocalResult& result);
  static LocalResult from_values(const Packet& packet, std::size_t first_field = 0);
};

/// The leaf-side step: run mean-shift on local data (density-scan seeding)
/// and reduce the data set for forwarding.
LocalResult leaf_compute(std::span<const Point2> data, const DistributedParams& params,
                         std::uint32_t node_id_for_trace = 0);

/// The internal/root step: merge child results, re-shift from child peaks.
LocalResult merge_compute(std::span<const LocalResult> children,
                          const DistributedParams& params,
                          std::uint32_t node_id_for_trace = 0);

/// The TBON transformation filter (register name "mean_shift"; use with
/// up_sync = "wait_for_all").
class MeanShiftFilter final : public TransformFilter {
 public:
  explicit MeanShiftFilter(const FilterContext& ctx)
      : params_(params_from_config(ctx.params)) {}

  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                 FilterContext& ctx) override;

 private:
  DistributedParams params_;
};

/// Register "mean_shift" with a registry (idempotent).
void register_mean_shift_filter();

}  // namespace tbon::ms
