// Remote-instantiation quickstart: every tree node is a separate OS process
// connected only by TCP, launched the way a real multi-host MRNet deployment
// would be.  The same binary plays front-end and node: relaunched copies
// carry `--tbon-node=<id> --tbon-bootstrap=<host:port>` and are diverted
// into the node runtime by net::maybe_run_remote_node before main() does
// anything else.
//
//   ./remote_two_host                         # all nodes on this machine
//   ./remote_two_host host2=db42 bind=10.0.0.1
//       # the root's last subtree runs on db42 (passwordless ssh; this
//       # binary must exist at the same path there), everything else here;
//       # bind= is the address db42 can reach this machine at.
//
//   topology=bal:2x2   tree shape (see TopologyOptions::from_spec)
//   ssh_bin=ssh        launcher for the host2 subtree
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/network.hpp"
#include "net/remote.hpp"

using namespace tbon;

namespace {

// Runs inside every back-end node process, wherever it was launched.
void backend_main(BackEnd& be) {
  char host[HOST_NAME_MAX + 1] = {};
  ::gethostname(host, sizeof(host) - 1);
  be.send(1, kFirstAppTag, "vi64 vstr",
          {std::vector<std::int64_t>{::getpid()},
           std::vector<std::string>{std::string(host) + "/rank-" +
                                    std::to_string(be.rank())}});
}

// Nodes in the subtree rooted at the root's last child: the slice of the
// tree the example places on the second host.
std::vector<NodeId> last_subtree(const Topology& topology) {
  const auto& children = topology.node(topology.root()).children;
  std::vector<NodeId> subtree;
  if (children.empty()) return subtree;
  const NodeId head = children.back();
  for (NodeId id = 0; id < topology.num_nodes(); ++id) {
    const auto path = topology.path_to_root(id);
    for (const NodeId hop : path) {
      if (hop == head) {
        subtree.push_back(id);
        break;
      }
    }
  }
  return subtree;
}

}  // namespace

int main(int argc, char** argv) {
  // Relaunched copies become tree nodes here and never reach the code below.
  if (net::maybe_run_remote_node(argc, argv, backend_main)) {
    return 0;
  }

  const Config config(argc, argv);
  Topology topology =
      TopologyOptions::from_spec(config.get("topology", "bal:2x2")).build();
  const std::string host2 = config.get("host2", "");

  NetworkOptions options;
  options.mode = NetworkMode::kRemote;
  options.backend_main = backend_main;
  if (!host2.empty()) {
    // Place the root's last subtree on the second machine and launch those
    // nodes over ssh; the rest keep the default fork launcher.  A real
    // deployment would drop the fork fallback and exec/ssh everything.
    std::vector<std::pair<NodeId, std::string>> placements;
    for (const NodeId id : last_subtree(topology)) {
      placements.emplace_back(id, host2);
    }
    topology = topology.with_placements(placements);
    options.remote.bind_host = config.get("bind", "127.0.0.1");
    const std::vector<std::string> command = {argv[0]};
    auto local = net::exec_spawn(command);
    auto remote = net::ssh_spawn(command, config.get("ssh_bin", "ssh"));
    options.remote.spawn = [local, remote,
                            host2](const RemoteSpawnRequest& request) {
      const bool off_host = request.host.rfind(host2, 0) == 0;
      (off_host ? remote : local)(request);
    };
  } else {
    // Single-machine stand-in: exec this very binary for every node, which
    // exercises the full --tbon-node relaunch path without ssh.
    options.remote.spawn = net::exec_spawn({argv[0]});
  }
  options.topology = topology;

  std::printf("launching %zu node processes over TCP (front-end pid %d)...\n",
              topology.num_nodes() - 1, static_cast<int>(::getpid()));
  auto net = Network::create(std::move(options));

  Stream& stream = net->front_end().open_stream({.up_transform = "concat"});
  const auto result = stream.recv_for(std::chrono::seconds(15));
  if (result) {
    const auto& pids = (*result)->get_vi64(0);
    const auto& names = (*result)->get_vstr(1);
    std::set<std::string> hosts;
    for (const auto& name : names) hosts.insert(name.substr(0, name.find('/')));
    std::printf("gathered from %zu back-end processes on %zu host(s):\n",
                pids.size(), hosts.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::printf("  %-24s pid %lld\n", names[i].c_str(),
                  static_cast<long long>(pids[i]));
    }
  } else {
    std::printf("no packet within the deadline\n");
  }
  net->shutdown();
  std::printf("all node processes reaped; done\n");
  return 0;
}
