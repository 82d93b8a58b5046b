// Multi-process quickstart: one OS process per tree node (fork +
// socketpairs + serialized packets), the closest analogue to a real MRNet
// deployment on one host.
//
//   ./process_mode [topology=bal:3x2]
#include <unistd.h>

#include <cstdio>

#include "common/config.hpp"
#include "core/network.hpp"

using namespace tbon;

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:3x2"));
  std::printf("spawning %zu processes (front-end pid %d)...\n",
              topology.num_nodes() - 1, static_cast<int>(::getpid()));

  // Stream ids are assigned in order, so the back-ends can rely on id 1.
  auto net = Network::create({.mode = NetworkMode::kProcess,
                              .topology = topology,
                              .backend_main = [](BackEnd& be) {
                                be.send(1, kFirstAppTag, "vi64 vstr",
                                        {std::vector<std::int64_t>{::getpid()},
                                         std::vector<std::string>{
                                             "rank-" + std::to_string(be.rank())}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "concat"});

  const auto result = stream.recv_for(std::chrono::seconds(10));
  if (result) {
    const auto& pids = (*result)->get_vi64(0);
    std::set<std::int64_t> distinct(pids.begin(), pids.end());
    std::printf("gathered from %zu back-ends in %zu distinct OS processes:\n",
                pids.size(), distinct.size());
    std::printf("  %s\n", (*result)->to_string().c_str());
  }
  net->shutdown();
  std::printf("all children reaped; done\n");
  return 0;
}
