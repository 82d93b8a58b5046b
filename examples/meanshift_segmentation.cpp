// Distributed mean-shift clustering — the paper's case study as a demo.
//
//   ./meanshift_segmentation [topology=bal:4x2] [clusters=6] [points=400]
//                            [bandwidth=50] [kernel=gaussian]
//
// Every back-end "captures" one tile of synthetic image-like feature data
// (the same Gaussian mixture with slightly shifted centers per leaf, as in
// §3.1), runs mean-shift locally, and the tree merges and refines peaks on
// the way to the front-end, which prints the recovered segmentation.
#include <cstdio>

#include "common/config.hpp"
#include "core/network.hpp"
#include "meanshift/distributed.hpp"
#include "meanshift/synth.hpp"

using namespace tbon;
using namespace tbon::ms;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:4x2"));

  SynthParams synth;
  synth.num_clusters = static_cast<std::size_t>(config.get_int("clusters", 6));
  synth.points_per_cluster = static_cast<std::size_t>(config.get_int("points", 400));

  DistributedParams params;
  params.shift.bandwidth = config.get_double("bandwidth", 50.0);
  params.shift.kernel = parse_kernel(config.get("kernel", "gaussian"));
  params.shift.density_threshold = config.get_double("density_threshold", 10.0);

  register_mean_shift_filter();
  // Runs once per back-end, on its own thread; it sends on stream 1, the
  // first one the front-end opens.
  const auto backend_main = [&](BackEnd& be) {
    const auto data = generate_leaf_data(be.rank(), synth);
    const LocalResult local = leaf_compute(data, params);
    be.send(1, kFirstAppTag, MeanShiftCodec::kFormat,
            MeanShiftCodec::to_values(local));
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("mean_shift").with_params(to_filter_params(params)));

  const auto result = stream.recv_for(std::chrono::seconds(60));
  if (!result) {
    std::fprintf(stderr, "no result from the tree\n");
    return 1;
  }
  const LocalResult merged = MeanShiftCodec::from_values(**result);
  net->shutdown();

  const auto centers = true_centers(synth);
  std::printf("true cluster centers (%zu):\n", centers.size());
  for (const auto& center : centers) {
    std::printf("  (%8.2f, %8.2f)\n", center.x, center.y);
  }
  std::printf("peaks found by the tree (%zu):\n", merged.peaks.size());
  for (const auto& peak : merged.peaks) {
    std::printf("  (%8.2f, %8.2f)  support %llu\n", peak.position.x, peak.position.y,
                static_cast<unsigned long long>(peak.support));
  }
  std::printf("match fraction within 15 units: %.2f\n",
              match_fraction(merged.peaks, centers, 15.0));

  // Segment one leaf's data against the global peaks (image segmentation
  // use-case from §3: "segment the input image into layers").
  const auto tile = generate_leaf_data(0, synth);
  const auto labels = assign_clusters(tile, merged.peaks, params.shift);
  std::vector<std::size_t> sizes(merged.peaks.size(), 0);
  std::size_t noise = 0;
  for (const auto label : labels) {
    if (label < 0) {
      ++noise;
    } else {
      ++sizes[static_cast<std::size_t>(label)];
    }
  }
  std::printf("segmentation of leaf 0's tile (%zu points):\n", tile.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    std::printf("  layer %zu: %zu points\n", k, sizes[k]);
  }
  std::printf("  noise  : %zu points\n", noise);
  return 0;
}
