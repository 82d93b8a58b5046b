// Quickstart: build a TBON, broadcast a command, reduce the replies.
//
//   ./quickstart [topology=bal:4x2] [mode=threaded|process|remote]
//
// Demonstrates the core API surface: topology construction, network
// instantiation, stream creation with built-in reduction filters,
// downstream multicast, upstream aggregation and orderly shutdown.  The
// back-end code is the same in every instantiation: threaded (one thread
// per tree node in this program), process (one forked OS process per node,
// joined by socketpairs) or remote (node processes joined by TCP).
#include <unistd.h>

#include <cstdio>
#include <set>
#include <stdexcept>

#include "common/config.hpp"
#include "core/network.hpp"

using namespace tbon;

namespace {

constexpr std::int32_t kGo = kFirstAppTag;

// Stream ids are assigned in the order the front-end opens them.
constexpr std::uint32_t kSums = 1;
constexpr std::uint32_t kMaxima = 2;
constexpr std::uint32_t kPids = 3;

NetworkMode parse_mode(const std::string& name) {
  if (name == "threaded") return NetworkMode::kThreaded;
  if (name == "process") return NetworkMode::kProcess;
  if (name == "remote") return NetworkMode::kRemote;
  throw std::invalid_argument("mode must be threaded, process or remote, not " + name);
}

// Runs once per back-end: on its own thread, or in its own process.
void backend_main(BackEnd& be) {
  const auto command = be.recv_for(std::chrono::seconds(10));
  if (!command) return;
  const auto value = static_cast<std::int64_t>(be.rank()) * 10;
  be.send(kSums, kGo, "i64 vf64",
          {value, std::vector<double>{1.0, static_cast<double>(be.rank())}});
  be.send(kMaxima, kGo, "f64", {static_cast<double>(be.rank() % 7)});
  be.send(kPids, kGo, "vi64", {std::vector<std::int64_t>{::getpid()}});
}

}  // namespace

int main(int argc, char** argv) {
  const Config config(argc, argv);
  const Topology topology = TopologyOptions::from_spec(config.get("topology", "bal:4x2"));
  const std::string mode = config.get("mode", "threaded");
  std::printf("topology: %zu nodes, %zu back-ends, %zu internal, depth %zu; mode %s\n",
              topology.num_nodes(), topology.num_leaves(), topology.num_internal(),
              topology.depth(), mode.c_str());

  auto net = Network::create(
      {.mode = parse_mode(mode), .topology = topology, .backend_main = backend_main});

  // A stream whose upstream packets are summed field-wise at every level and
  // delivered in waves (one packet per back-end per wave).
  Stream& sums = net->front_end().open_stream({.up_transform = "sum"});
  // Concurrent streams computing the max and gathering each back-end's pid
  // (streams may overlap).
  Stream& maxima = net->front_end().open_stream({.up_transform = "max"});
  Stream& pids = net->front_end().open_stream({.up_transform = "concat"});

  // Broadcast a command downstream; each back-end replies on every stream.
  sums.send(kGo, "str", {std::string("report")});

  const auto sum = sums.recv_for(std::chrono::seconds(10));
  const auto max = maxima.recv_for(std::chrono::seconds(10));
  const auto gathered = pids.recv_for(std::chrono::seconds(10));
  if (sum) std::printf("sum reduction : %s\n", (*sum)->to_string().c_str());
  if (max) std::printf("max reduction : %s\n", (*max)->to_string().c_str());
  if (gathered) {
    const auto& values = (*gathered)->get_vi64(0);
    const std::set<std::int64_t> distinct(values.begin(), values.end());
    std::printf("gathered from %zu back-ends in %zu distinct OS processes\n",
                values.size(), distinct.size());
  }

  net->shutdown();
  std::printf("front-end metrics: %llu packets up, %llu waves\n",
              static_cast<unsigned long long>(net->node_metrics(0).packets_up),
              static_cast<unsigned long long>(net->node_metrics(0).waves));
  if (!sum || !max || !gathered) {
    std::fprintf(stderr, "a reduction never arrived\n");
    return 1;
  }
  return 0;
}
