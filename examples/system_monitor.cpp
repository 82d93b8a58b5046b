// A Ganglia/Supermon-style distributed system monitor (paper §2.3,
// "Distributed System Tools").
//
//   ./system_monitor [topology=bal:4x2] [rounds=5]
//
// Every back-end plays a monitoring daemon producing one metric sample per
// round: load average, free memory, and a latency reading.  Three concurrent
// streams aggregate them differently:
//   * time-aligned sums of (load, free-mem) per round — avg at the front-end,
//   * a cluster-wide latency histogram (exact tree merge),
//   * the top-3 most loaded hosts per round.
#include <cstdio>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"
#include "filters/histogram_filter.hpp"
#include "filters/register.hpp"
#include "filters/time_aligned.hpp"
#include "filters/topk.hpp"

using namespace tbon;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:4x2"));
  const auto rounds = static_cast<std::uint64_t>(config.get_int("rounds", 5));
  const std::size_t hosts = topology.num_leaves();

  filters::register_all(FilterRegistry::instance());
  // Stream ids follow the order in which the front-end opens the streams.
  constexpr std::uint32_t kAligned = 1, kLatency = 2, kHogs = 3;
  // Runs once per back-end, on its own thread.
  const auto backend_main = [&](BackEnd& be) {
    Rng rng(1000 + be.rank());
    Histogram local_latency(0.0, 20.0, 20);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      const double load = std::max(0.0, rng.gaussian(1.0 + 0.1 * (be.rank() % 4), 0.3));
      const double free_mb = rng.uniform(200.0, 1800.0);
      // Per-round aligned sample: [load, free memory].
      be.send(kAligned, kFirstAppTag, TimeAlignedFilter::kFormat,
              {round, std::vector<double>{load, free_mb}});
      // Top-3 most loaded hosts this round.
      be.send(kHogs, kFirstAppTag, TopKFilter::kFormat,
              {std::vector<double>{load},
               std::vector<std::string>{"host-" + std::to_string(be.rank())}});
      for (int probe = 0; probe < 16; ++probe) {
        local_latency.add(std::max(0.1, rng.gaussian(5.0, 2.5)));
      }
    }
    be.send(kLatency, kFirstAppTag, HistogramCodec::kFormat,
            HistogramCodec::to_values(local_latency));
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});

  Stream& aligned = net->front_end().open_stream(
      {.up_transform = "time_aligned", .up_sync = "null"});
  Stream& latency = net->front_end().open_stream({.up_transform = "histogram_merge"});
  Stream& hogs = net->front_end().open_stream(
      StreamSpec().up("topk").with_params(FilterParams().set("k", 3)));

  std::printf("%-6s  %-12s  %-12s  %s\n", "round", "avg load", "avg free MB",
              "top loaded hosts");
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const auto sample = aligned.recv_for(std::chrono::seconds(5));
    const auto top = hogs.recv_for(std::chrono::seconds(5));
    if (!sample || !top) break;
    const auto& sums = (*sample)->get_vf64(1);
    const auto& names = (*top)->get_vstr(1);
    std::string top_list;
    for (const auto& name : names) top_list += name + " ";
    std::printf("%-6llu  %-12.3f  %-12.1f  %s\n",
                static_cast<unsigned long long>((*sample)->get_u64(0)),
                sums[0] / static_cast<double>(hosts),
                sums[1] / static_cast<double>(hosts), top_list.c_str());
  }

  if (const auto merged = latency.recv_for(std::chrono::seconds(5))) {
    const Histogram h = HistogramCodec::from_values(**merged);
    std::printf("\ncluster latency histogram (%llu probes): p50=%.2f ms  p95=%.2f ms\n",
                static_cast<unsigned long long>(h.total()), h.quantile(0.5),
                h.quantile(0.95));
  }

  net->shutdown();
  return 0;
}
