// Stress and property tests over the full stack: randomized topologies,
// high-volume flows, many concurrent streams, failure storms.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "core/network.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

/// Build a random tree: up to `max_nodes` nodes, fan-out capped, guaranteed
/// at least one non-root leaf.
Topology random_topology(std::uint64_t seed, std::size_t max_nodes,
                         std::size_t max_fanout) {
  Rng rng(seed);
  const std::size_t nodes = 2 + rng.next_below(max_nodes - 1);
  std::vector<NodeId> parents(nodes, kNoNode);
  std::vector<std::size_t> fanouts(nodes, 0);
  for (NodeId id = 1; id < nodes; ++id) {
    // Pick a parent among earlier nodes whose fan-out is not exhausted.
    while (true) {
      const NodeId candidate = static_cast<NodeId>(rng.next_below(id));
      if (fanouts[candidate] < max_fanout) {
        parents[id] = candidate;
        ++fanouts[candidate];
        break;
      }
    }
  }
  return Topology::from_parents(parents);
}

// Property: a sum reduction over ANY tree shape equals the closed form.
class RandomTreeReduction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeReduction, SumMatchesClosedForm) {
  const Topology topology = random_topology(GetParam(), 40, 5);
  if (topology.is_leaf(topology.root())) GTEST_SKIP();
  auto net = Network::create({.topology = topology,
                              .backend_main = [&](BackEnd& be) {
                                be.send(1, kTag, "i64", {std::int64_t{be.rank()} * 3 + 1});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  const auto n = static_cast<std::int64_t>(topology.num_leaves());
  EXPECT_EQ((*result)->get_i64(0), 3 * n * (n - 1) / 2 + n);
  net->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeReduction,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Property: concat over any tree preserves global rank order.
class RandomTreeOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeOrder, ConcatKeepsRankOrder) {
  const Topology topology = random_topology(GetParam() + 1000, 30, 4);
  if (topology.is_leaf(topology.root())) GTEST_SKIP();
  auto net = Network::create({.topology = topology,
                              .backend_main = [&](BackEnd& be) {
                                be.send(1, kTag, "vi64", {std::vector<std::int64_t>{be.rank()}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "concat"});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  const auto& ranks = (*result)->get_vi64(0);
  ASSERT_EQ(ranks.size(), topology.num_leaves());
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(ranks.size()); ++i) {
    EXPECT_EQ(ranks[static_cast<std::size_t>(i)], i);
  }
  net->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeOrder, ::testing::Values(7u, 11u, 19u, 42u));

TEST(Stress, HighVolumeWaves) {
  constexpr int kWaves = 300;
  auto net = Network::create({.topology = Topology::balanced(4, 2),
                              .backend_main = [&](BackEnd& be) {
                                for (int wave = 0; wave < kWaves; ++wave) {
                                  be.send(1, kTag, "i64", {std::int64_t{1}});
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = stream.recv_for(10s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    ASSERT_EQ((*result)->get_i64(0), 16);
  }
  net->shutdown();
  EXPECT_EQ(net->node_metrics(0).waves, static_cast<std::uint64_t>(kWaves));
}

TEST(Stress, ManyConcurrentStreams) {
  constexpr std::size_t kStreams = 12;
  auto net = Network::create({.topology = Topology::balanced(3, 2),
                              .backend_main = [&](BackEnd& be) {
                                for (std::size_t i = 0; i < kStreams; ++i) {
                                  be.send(static_cast<std::uint32_t>(i + 1), kTag, "i64",
                                          {static_cast<std::int64_t>(i * 100 + be.rank())});
                                }
                              }});
  std::vector<Stream*> streams;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(&net->front_end().open_stream({.up_transform = "sum"}));
  }
  for (std::size_t i = 0; i < kStreams; ++i) {
    const auto result = streams[i]->recv_for(10s);
    ASSERT_TRUE(result.has_value());
    // 9 leaves: sum(i*100 + rank) = 900 i + 36.
    EXPECT_EQ((*result)->get_i64(0), static_cast<std::int64_t>(900 * i + 36));
  }
  net->shutdown();
}

TEST(Stress, LargePayloads) {
  constexpr std::size_t kDoubles = 100'000;  // 800 KB per packet
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .backend_main = [&](BackEnd& be) {
                                const auto value = static_cast<double>(be.rank());
                                be.send(1, kTag, "vf64", {std::vector<double>(kDoubles, value)});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(30s);
  ASSERT_TRUE(result.has_value());
  const auto& values = (*result)->get_vf64(0);
  ASSERT_EQ(values.size(), kDoubles);
  EXPECT_DOUBLE_EQ(values[0], 0.0 + 1 + 2 + 3);
  net->shutdown();
}

TEST(Stress, SurvivorsKeepProducingAfterKills) {
  // Kill a third of the back-ends (one per subtree) before they send; the
  // survivors' waves must keep flowing.
  constexpr int kWaves = 30;
  const std::set<std::uint32_t> victims = {0u, 4u, 8u};
  auto net = Network::create({.topology = Topology::balanced(3, 2),  // 9 leaves
                              .backend_main = [&](BackEnd& be) {
                                if (victims.count(be.rank())) return;  // its node dies
                                for (int wave = 0; wave < kWaves; ++wave) {
                                  be.send(1, kTag, "i64", {std::int64_t{1}});
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (const std::uint32_t victim : victims) {
    net->kill_node(net->topology().leaves()[victim]);
  }

  std::size_t delivered = 0;
  std::int64_t total = 0;
  while (const auto result = stream.recv_for(500ms)) {
    ++delivered;
    total += (*result)->get_i64(0);
    if (delivered == kWaves) break;
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(kWaves));
  EXPECT_EQ(total, kWaves * 6);  // 6 survivors per wave
  net->shutdown();
}

TEST(Stress, ConcurrentFailureStormShutsDownCleanly) {
  // Kills racing live traffic: delivery is timing-dependent, but the network
  // must never hang, crash or double-count shutdown acknowledgements.
  auto net = Network::create({.topology = Topology::balanced(3, 2),
                              .backend_main = [&](BackEnd& be) {
                                for (int wave = 0; wave < 10 && !be.shutting_down(); ++wave) {
                                  try {
                                    be.send(1, kTag, "i64", {std::int64_t{1}});
                                  } catch (const Error&) {
                                    return;  // killed mid-send (stream announcement lost)
                                  }
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});

  std::jthread killer([&] {
    for (const std::uint32_t victim : {0u, 4u, 8u}) {
      net->kill_node(net->topology().leaves()[victim]);
    }
  });

  while (stream.recv_for(std::chrono::milliseconds(0))) {
  }
  net->shutdown();
  SUCCEED();
}

// Backpressure soak: a 3-level tree with bursty leaves and a fault-injector
// delay at the root and both interiors, repeated many times.  Every repeat
// must satisfy the conservation law `delivered + dropped == sent` (dropped
// read from the fc_packets_shed telemetry counters) and must never deadlock
// — the polling loop below times the repeat out at 30 s if it wedges.
TEST(Stress, BackpressureSoakConservesPacketsAcrossRepeats) {
  constexpr int kRepeats = 100;
  constexpr std::int64_t kPerLeaf = 20;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    RecoveryOptions recovery;
    recovery.fault_plan.delay(0, 200'000).delay(1, 200'000).delay(2, 200'000);
    auto net = Network::create(
        {.topology = Topology::balanced(2, 2),
         .recovery = recovery,
         .flow_control = {.enabled = true,
                          .capacity = 4,
                          .policy = FlowControlPolicy::kDropOldest},
         .backend_main = [&](BackEnd& be) {
           for (std::int64_t i = 0; i < kPerLeaf; ++i) {
             be.send(1, kTag, "i64", {i});  // full-speed burst
           }
         }});
    Stream& stream = net->front_end().open_stream({.up_sync = "null"});

    const std::uint64_t sent = 4 * kPerLeaf;
    std::uint64_t delivered = 0;
    auto shed_total = [&] {
      std::uint64_t shed = 0;
      for (NodeId id = 0; id < 7; ++id) shed += net->node_metrics(id).fc_packets_shed;
      return shed;
    };
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (stream.recv_for(std::chrono::milliseconds(0))) {
        ++delivered;
      } else if (delivered + shed_total() == sent) {
        break;
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
    ASSERT_EQ(delivered + shed_total(), sent) << "repeat " << repeat;
    net->shutdown();
  }
}

TEST(Stress, ProcessModeManyChildren) {
  auto net = Network::create({.mode = NetworkMode::kProcess,
                              .topology = Topology::flat(16),
                              .backend_main = [](BackEnd& be) {
                                for (int wave = 0; wave < 20; ++wave) {
                                  be.send(1, kTag, "i64", {std::int64_t{wave}});
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "min"});
  for (int wave = 0; wave < 20; ++wave) {
    const auto result = stream.recv_for(20s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_i64(0), wave);
  }
  net->shutdown();
}

}  // namespace
}  // namespace tbon
