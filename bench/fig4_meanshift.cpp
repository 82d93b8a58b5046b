// Figure 4 reproduction: mean-shift processing times for single-node, flat
// (1-deep) and deep (2-deep) organizations as the input scale grows.
//
//   ./fig4_meanshift [scales=16,32,48,64,128,256,324] [points=150]
//                    [clusters=6] [reps=1] [full=0]
//
// Methodology (DESIGN.md §5): the host has far fewer cores than tree
// nodes, so raw wall-clock over hundreds of node threads would measure
// serialized execution.  For
// the distributed configurations we therefore run the *real* TBON stack
// (threaded transport, real filters, real data) with per-node compute
// tracing, and report the critical-path makespan under a Gigabit-Ethernet
// link model — the time a cluster with one CPU per tree node (the paper's
// testbed) would take.  The single-node configuration is measured directly
// (it is single-threaded by definition).  A calibrated analytic model is
// printed alongside as a cross-check.
//
// Expected shape (paper §3.2): single grows linearly; flat tracks deep at
// small scale but blows up once front-end consolidation dominates (fan-out
// 64..128); deep stays nearly constant with a small rise beyond 64 leaves.
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>

#include "benchlib/table.hpp"
#include "calibrate.hpp"
#include "common/config.hpp"
#include "common/trace.hpp"
#include "core/network.hpp"
#include "meanshift/distributed.hpp"
#include "meanshift/synth.hpp"
#include "sim/critical_path.hpp"

using namespace tbon;
using namespace tbon::bench;

namespace {

struct RunResult {
  double makespan_seconds = 0.0;   ///< cluster-equivalent (critical path)
  double wallclock_seconds = 0.0;  ///< serialized 1-core wall clock, for reference
  std::size_t peaks = 0;
  double match = 0.0;              ///< fraction of true centers recovered
};

/// Measure the single-node baseline directly.
RunResult run_single(std::size_t scale, const ms::SynthParams& synth,
                     const ms::DistributedParams& params) {
  const auto data = ms::generate_union(scale, synth);
  // The density threshold is an absolute per-window point count; stacking
  // `scale` leaves' data multiplies window populations by `scale`, so the
  // threshold scales with it (otherwise background noise turns every grid
  // cell into a seed and the baseline degenerates to O(scale^2)).
  ms::MeanShiftParams shift = params.shift;
  shift.density_threshold *= static_cast<double>(scale);
  Stopwatch watch;
  const auto peaks = ms::cluster_single_node(data, shift);
  RunResult result;
  result.wallclock_seconds = watch.elapsed_seconds();
  result.makespan_seconds = result.wallclock_seconds;
  result.peaks = peaks.size();
  result.match = ms::match_fraction(peaks, ms::true_centers(synth), 15.0);
  return result;
}

/// 2-deep balanced tree with fan-out ceil(sqrt(scale)) — the paper's "deep"
/// organization at every scale (18x18 at the top scale of 324).
Topology deep_tree(std::size_t scale) {
  const auto fanout = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(scale))));
  return fanout < 2 ? Topology::flat(scale)
                    : Topology::balanced_for_leaves(fanout, scale);
}

/// Run the real TBON and derive the parallel makespan from the trace.
RunResult run_distributed(const Topology& topology, const ms::SynthParams& synth,
                          ms::DistributedParams params, const sim::LinkModel& link) {
  params.trace = true;
  ms::register_mean_shift_filter();
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);

  Stopwatch watch;
  const auto backend_main = [&](BackEnd& be) {
    const auto go = be.recv_for(std::chrono::seconds(120));
    if (!go) return;
    const auto data = ms::generate_leaf_data(be.rank(), synth);
    const NodeId leaf_node = topology.leaves()[be.rank()];
    const ms::LocalResult local = ms::leaf_compute(data, params, leaf_node);
    be.send(1, kFirstAppTag, ms::MeanShiftCodec::kFormat,
            ms::MeanShiftCodec::to_values(local));
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("mean_shift").with_params(ms::to_filter_params(params)));
  // The measured window starts with the control broadcast (paper §3.2); we
  // include it in the makespan via the link model's broadcast term.
  stream.send(kFirstAppTag, "str", {std::string("start")});

  const auto packet = stream.recv_for(std::chrono::seconds(600));
  RunResult result;
  result.wallclock_seconds = watch.elapsed_seconds();
  if (packet) {
    const auto merged = ms::MeanShiftCodec::from_values(**packet);
    result.peaks = merged.peaks.size();
    result.match = ms::match_fraction(merged.peaks, ms::true_centers(synth), 15.0);
  }
  net->shutdown();
  recorder.set_enabled(false);

  const auto costs = sim::costs_from_trace(recorder.events());
  result.makespan_seconds = sim::critical_path_seconds(topology, costs, link);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config(argc, argv);

  std::vector<std::size_t> scales;
  {
    const std::string list = config.get("scales", "16,32,48,64,128,256,324");
    std::size_t pos = 0;
    while (pos < list.size()) {
      auto end = list.find(',', pos);
      if (end == std::string::npos) end = list.size();
      scales.push_back(static_cast<std::size_t>(
          std::strtoull(list.substr(pos, end - pos).c_str(), nullptr, 10)));
      pos = end + 1;
    }
  }

  ms::SynthParams synth;
  synth.num_clusters = static_cast<std::size_t>(config.get_int("clusters", 6));
  synth.points_per_cluster =
      static_cast<std::size_t>(config.get_int("points", config.get_bool("full") ? 400 : 150));
  synth.noise_points = synth.points_per_cluster / 2;

  ms::DistributedParams params;
  params.shift.bandwidth = config.get_double("bandwidth", 50.0);
  params.shift.density_threshold = config.get_double("density_threshold", 10.0);
  params.max_forward = static_cast<std::size_t>(config.get_int("max_forward", 4000));

  const auto reps = static_cast<std::size_t>(config.get_int("reps", 1));
  const sim::LinkModel link;  // GigE defaults, as in the paper's testbed

  banner("Figure 4: mean-shift processing times (single vs flat vs deep)");
  std::printf("points per leaf: %zu   bandwidth: %.0f   deep tree: 2-deep, "
              "fan-out ceil(sqrt(scale))\n",
              synth.num_clusters * synth.points_per_cluster + synth.noise_points,
              params.shift.bandwidth);
  std::printf("distributed times = critical-path makespan over real traced runs "
              "(GigE link model); wallclock columns are this host's serialized "
              "1-core times, for reference.\n");

  const auto model = calibrate_meanshift(params, synth);
  std::printf("calibration: leaf %.2f us/point (+%.2f ms), merge %.2f us/point "
              "(+%.2f ms)\n\n",
              model.leaf.slope * 1e6, model.leaf.intercept * 1e3,
              model.merge.slope * 1e6, model.merge.intercept * 1e3);

  // Warm caches and the allocator so the first measured configuration is not
  // penalized relative to later ones.
  run_single(std::min<std::size_t>(scales.front(), 8), synth, params);

  Table table({"scale", "single_s", "flat_s", "deep_s", "flat_model_s", "deep_model_s",
               "single_match", "flat_match", "deep_match"});

  std::map<std::size_t, std::array<double, 3>> series;

  for (const std::size_t scale : scales) {
    RunResult single, flat, deep;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const RunResult s = run_single(scale, synth, params);
      const RunResult f = run_distributed(Topology::flat(scale), synth, params, link);
      const RunResult d = run_distributed(deep_tree(scale), synth, params, link);
      if (rep == 0 || s.makespan_seconds < single.makespan_seconds) single = s;
      if (rep == 0 || f.makespan_seconds < flat.makespan_seconds) flat = f;
      if (rep == 0 || d.makespan_seconds < deep.makespan_seconds) deep = d;
    }

    // Analytic cross-check from the calibrated model.
    const double points_per_leaf = static_cast<double>(
        synth.num_clusters * synth.points_per_cluster + synth.noise_points);
    const double forwarded =
        std::min(static_cast<double>(params.max_forward), points_per_leaf * 0.9);
    const double flat_model = sim::modeled_makespan(Topology::flat(scale), model, link,
                                                    points_per_leaf, forwarded);
    const double deep_model =
        sim::modeled_makespan(deep_tree(scale), model, link, points_per_leaf, forwarded);

    series[scale] = {single.makespan_seconds, flat.makespan_seconds,
                     deep.makespan_seconds};
    table.add_row({fmt_int(static_cast<long long>(scale)),
                   fmt("%.3f", single.makespan_seconds),
                   fmt("%.3f", flat.makespan_seconds),
                   fmt("%.3f", deep.makespan_seconds), fmt("%.3f", flat_model),
                   fmt("%.3f", deep_model), fmt("%.2f", single.match),
                   fmt("%.2f", flat.match), fmt("%.2f", deep.match)});
    std::printf("scale %zu done (single %.2fs, flat %.2fs, deep %.2fs)\n", scale,
                single.makespan_seconds, flat.makespan_seconds, deep.makespan_seconds);
  }

  std::printf("\n");
  table.print("fig4");

  // Shape summary against the paper's observations.
  if (series.size() >= 3) {
    const auto first = series.begin()->second;
    const auto last = series.rbegin()->second;
    std::printf("\nshape checks vs paper:\n");
    std::printf("  single grows ~linearly: %.2fx time for %.0fx scale\n",
                last[0] / first[0],
                static_cast<double>(series.rbegin()->first) /
                    static_cast<double>(series.begin()->first));
    std::printf("  deep vs flat at the largest scale: deep is %.2fx faster\n",
                last[1] / last[2]);
    std::printf("  deep growth across all scales: %.2fx (paper: ~constant, small "
                "rise beyond 64)\n",
                last[2] / first[2]);
  }
  return 0;
}
