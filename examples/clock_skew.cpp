// Tree-based clock-skew detection (paper §1/§2.2).
//
//   ./clock_skew [topology=bal:4x2] [seed=42]
//
// Runs the probe/reply protocol with injected virtual per-node clock skews
// and prints estimated vs true offsets for every back-end.  On a cluster the
// same code estimates real skews; here the virtual clocks make the result
// verifiable (see src/filters/clockskew.hpp).
#include <cstdio>

#include "common/config.hpp"
#include "core/network.hpp"
#include "filters/clockskew.hpp"
#include "filters/register.hpp"

using namespace tbon;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:4x2"));
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 42));

  filters::register_all(FilterRegistry::instance());
  // Runs once per back-end, on its own thread; it sends on stream 1, the
  // first one the front-end opens.
  const auto backend_main = [&, seed](BackEnd& be) {
    const auto probe = be.recv_for(std::chrono::seconds(5));
    if (!probe) return;
    const PacketPtr reply = make_clock_reply(**probe, be.rank(), seed);
    be.send(1, kFirstAppTag, "vi64 vf64",
            {reply->get_vi64(0), reply->get_vf64(1)});
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("clock_skew").down("clock_probe").with_params(
          FilterParams().set("skew_seed", static_cast<std::int64_t>(seed))));

  // The probe carries the front-end's (unskewed reference) clock.
  stream.send(kFirstAppTag, "vf64",
              {std::vector<double>{virtual_now_seconds(1'000'000u, 0)}});

  const auto result = stream.recv_for(std::chrono::seconds(10));
  if (!result) {
    std::fprintf(stderr, "no result\n");
    return 1;
  }
  const auto& ranks = (*result)->get_vi64(0);
  const auto& offsets = (*result)->get_vf64(1);
  net->shutdown();

  std::printf("%-8s  %-14s  %-14s  %s\n", "backend", "estimated (s)", "true (s)",
              "error (us)");
  double worst = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double truth =
        virtual_skew(static_cast<std::uint32_t>(ranks[i]) + 1'000'000u, seed);
    const double error = offsets[i] - truth;
    worst = std::max(worst, std::abs(error));
    std::printf("%-8lld  %-14.6f  %-14.6f  %.1f\n",
                static_cast<long long>(ranks[i]), offsets[i], truth, error * 1e6);
  }
  std::printf("worst error: %.1f us (bounded by one-way path latency)\n", worst * 1e6);
  return 0;
}
