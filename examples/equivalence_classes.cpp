// Paradyn-style startup aggregation with equivalence classes (paper §2.2).
//
//   ./equivalence_classes [daemons=64] [fanout=8] [functions=32] [variants=3]
//
// Each "daemon" (back-end) reports its table of instrumented functions at
// startup.  Most daemons run identical binaries, so reports fall into a few
// equivalence classes; the filter collapses them in-flight, and the
// front-end receives the classes instead of `daemons` near-identical
// reports.  The demo prints the achieved compression, the mechanism behind
// the paper's 3.4x Paradyn startup speedup.
#include <cstdio>

#include "common/config.hpp"
#include "core/network.hpp"
#include "filters/equivalence.hpp"
#include "filters/register.hpp"

using namespace tbon;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const auto daemons = static_cast<std::size_t>(config.get_int("daemons", 64));
  const auto fanout = static_cast<std::size_t>(config.get_int("fanout", 8));
  const auto functions = static_cast<int>(config.get_int("functions", 32));
  const auto variants = static_cast<std::uint32_t>(config.get_int("variants", 3));

  filters::register_all(FilterRegistry::instance());
  const Topology topology = Topology::balanced_for_leaves(fanout, daemons);
  // Runs once per back-end, on its own thread; it sends on stream 1, the
  // first one the front-end opens.
  std::atomic<std::size_t> raw_bytes{0};
  const auto backend_main = [&](BackEnd& be) {
    // A daemon's report: the canonical rendering of its function table.
    // Daemons running the same binary variant produce identical reports.
    const std::uint32_t variant = be.rank() % variants;
    std::string report = "binary-v" + std::to_string(variant) + ":";
    for (int fn = 0; fn < functions; ++fn) {
      report += "fn" + std::to_string(fn) + "@" + std::to_string(0x400000 + fn * 64 + variant) + ";";
    }
    raw_bytes.fetch_add(report.size());
    EquivalenceClasses mine;
    mine.add(report, be.rank());
    be.send(1, kFirstAppTag, EquivalenceClasses::kFormat, mine.to_values());
  };
  auto net = Network::create({.topology = topology, .backend_main = backend_main});
  Stream& stream = net->front_end().open_stream({.up_transform = "equivalence_class"});

  const auto result = stream.recv_for(std::chrono::seconds(30));
  if (!result) {
    std::fprintf(stderr, "no result\n");
    return 1;
  }
  const auto classes = EquivalenceClasses::from_values(**result);
  const std::size_t filtered_bytes = (*result)->payload_bytes();
  net->shutdown();

  std::printf("daemons            : %zu (tree fan-out %zu, depth %zu)\n", daemons,
              fanout, topology.depth());
  std::printf("distinct classes   : %zu\n", classes.num_classes());
  std::printf("members accounted  : %zu\n", classes.num_members());
  std::printf("raw report bytes   : %zu (what one-to-many would push at the FE)\n",
              raw_bytes.load());
  std::printf("filtered bytes     : %zu at the front-end\n", filtered_bytes);
  std::printf("compression        : %.1fx\n",
              static_cast<double>(raw_bytes.load()) /
                  static_cast<double>(filtered_bytes));
  for (const auto& [key, members] : classes.classes()) {
    std::printf("  class '%.24s...' -> %zu daemons\n", key.c_str(), members.size());
  }
  return 0;
}
