// A credit-bound sum flood on the repository benchmark's deployment
// (perfbench: balanced(2,2), block flow control with 64 credits, batching on,
// no workers), shared by the batching and remote suites.
//
// Under this load each interior node's credit window to the root stays
// drained.  Its coalescer must still ship multi-packet frames: a run that
// FlowControlledLink hands over after draining the window is one frame, not
// one frame per packet.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/network.hpp"

namespace tbon::flood {

inline constexpr int kWaves = 2048;

/// The benchmark's deployment in `mode`, with telemetry on.
inline NetworkOptions options(NetworkMode mode) {
  NetworkOptions net_options;
  net_options.mode = mode;
  net_options.topology = Topology::balanced(2, 2);
  net_options.flow_control = {.enabled = true,
                              .capacity = 64,
                              .policy = FlowControlPolicy::kBlock};
  net_options.batching = BatchingOptions::on();
  net_options.execution.num_workers = 0;
  net_options.telemetry = {.enabled = true, .interval_ms = 50};
  return net_options;
}

/// Back-end `rank`'s report for `wave`: 32 integer-valued doubles, so the
/// tree's sum is exact.
inline std::vector<double> report(std::uint32_t rank, int wave) {
  std::vector<double> values(32);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((rank + 1) * (wave + 1)) + static_cast<double>(i);
  }
  return values;
}

/// Back-end body: every wave on stream 1, as fast as credits allow.
inline void send_waves(BackEnd& be) {
  for (int wave = 0; wave < kWaves; ++wave) {
    be.send(1, kFirstAppTag, "vf64", {report(be.rank(), wave)});
  }
}

/// Receive every wave's aggregate and check it exactly, then shut down and
/// check the frames each interior node (ids 1 and 2) sent to the root.
inline void expect_exact_sums_and_full_interior_frames(Network& net, Stream& stream) {
  using namespace std::chrono_literals;
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = stream.recv_for(30s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    const std::vector<double>& sum = (*result)->get_vf64(0);
    ASSERT_EQ(sum.size(), 32u) << "wave " << wave;
    for (std::size_t i = 0; i < sum.size(); ++i) {
      // Ranks 0-3 contribute (rank + 1) * (wave + 1) + i each.
      ASSERT_EQ(sum[i], 10.0 * (wave + 1) + 4.0 * static_cast<double>(i))
          << "wave " << wave << " element " << i;
    }
  }
  net.shutdown();

  const TreeMetricsSnapshot snap = net.front_end().metrics();
  for (const NodeId node : {NodeId{1}, NodeId{2}}) {
    const NodeTelemetry* interior = snap.find(node);
    ASSERT_NE(interior, nullptr) << "node " << node;
    ASSERT_GT(interior->batch_frames_out, 0u) << "node " << node;
    const double per_frame = static_cast<double>(interior->batch_packets_out) /
                             static_cast<double>(interior->batch_frames_out);
    EXPECT_GE(per_frame, 8.0)
        << "node " << node << " sent " << interior->batch_packets_out
        << " packets in " << interior->batch_frames_out << " frames ("
        << interior->batch_flush_pressure << " pressure flushes)";
  }
}

}  // namespace tbon::flood
