// Tests for the distributed mean-shift protocol: codec, leaf/merge steps,
// end-to-end equivalence with the single-node baseline over real networks.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "common/trace.hpp"
#include "core/network.hpp"
#include "meanshift/distributed.hpp"
#include "meanshift/synth.hpp"

namespace tbon::ms {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

SynthParams small_synth() {
  SynthParams synth;
  synth.num_clusters = 4;
  synth.points_per_cluster = 300;
  synth.noise_points = 60;
  return synth;
}

DistributedParams default_params() {
  DistributedParams params;
  params.shift.bandwidth = 50.0;
  params.shift.density_threshold = 10.0;
  return params;
}

TEST(MeanShiftCodec, RoundTrip) {
  LocalResult result;
  result.points = {{1, 2}, {3, 4}, {5, 6}};
  result.peaks = {{{10, 20}, 7}, {{30, 40}, 3}};
  const PacketPtr packet = Packet::make(1, kTag, 0, MeanShiftCodec::kFormat,
                                        MeanShiftCodec::to_values(result));
  const LocalResult copy = MeanShiftCodec::from_values(*packet);
  EXPECT_EQ(copy.points, result.points);
  EXPECT_EQ(copy.peaks, result.peaks);
}

TEST(MeanShiftCodec, EmptyResult) {
  const LocalResult empty;
  const PacketPtr packet = Packet::make(1, kTag, 0, MeanShiftCodec::kFormat,
                                        MeanShiftCodec::to_values(empty));
  const LocalResult copy = MeanShiftCodec::from_values(*packet);
  EXPECT_TRUE(copy.points.empty());
  EXPECT_TRUE(copy.peaks.empty());
}

TEST(DistributedParamsTest, ConfigRoundTrip) {
  DistributedParams params;
  params.shift.bandwidth = 42.0;
  params.shift.kernel = Kernel::kEpanechnikov;
  params.shift.density_threshold = 3.5;
  params.keep_factor = 2.0;
  params.max_forward = 123;
  params.trace = true;

  Config config;
  const std::string text = to_filter_params(params).to_wire();
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    config.add(std::string_view(text).substr(pos, end - pos));
    pos = end + 1;
  }
  const DistributedParams copy = params_from_config(config);
  EXPECT_DOUBLE_EQ(copy.shift.bandwidth, 42.0);
  EXPECT_EQ(copy.shift.kernel, Kernel::kEpanechnikov);
  EXPECT_DOUBLE_EQ(copy.shift.density_threshold, 3.5);
  EXPECT_DOUBLE_EQ(copy.keep_factor, 2.0);
  EXPECT_EQ(copy.max_forward, 123u);
  EXPECT_TRUE(copy.trace);
}

TEST(LeafCompute, FindsLocalPeaksAndReducesData) {
  const SynthParams synth = small_synth();
  const auto data = generate_leaf_data(0, synth);
  const auto params = default_params();
  const LocalResult result = leaf_compute(data, params);

  EXPECT_GE(match_fraction(result.peaks, true_centers(synth), 15.0), 1.0);
  // The forwarded set is a genuine reduction (paper §2.3 property 2).
  EXPECT_LT(result.points.size(), data.size());
  EXPECT_GT(result.points.size(), 0u);
  // All forwarded points lie near some peak.
  for (const auto& p : result.points) {
    double nearest = 1e18;
    for (const auto& peak : result.peaks) {
      nearest = std::min(nearest, distance(p, peak.position));
    }
    EXPECT_LE(nearest, params.keep_factor * params.shift.bandwidth + 1e-9);
  }
}

TEST(LeafCompute, MaxForwardCapRespected) {
  const SynthParams synth = small_synth();
  const auto data = generate_leaf_data(1, synth);
  auto params = default_params();
  params.max_forward = 100;
  const LocalResult result = leaf_compute(data, params);
  EXPECT_LE(result.points.size(), 100u);
  EXPECT_FALSE(result.peaks.empty());
}

TEST(MergeCompute, RefinesChildPeaks) {
  const SynthParams synth = small_synth();
  const auto params = default_params();
  std::vector<LocalResult> children;
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    children.push_back(leaf_compute(generate_leaf_data(rank, synth), params));
  }
  const LocalResult merged = merge_compute(children, params);
  EXPECT_GE(match_fraction(merged.peaks, true_centers(synth), 15.0), 1.0);
  // Merging must not multiply peaks: children see (nearly) the same modes.
  EXPECT_LE(merged.peaks.size(), children[0].peaks.size() + 3);
}

TEST(MergeCompute, TraceRecordsWhenEnabled) {
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);

  const SynthParams synth = small_synth();
  auto params = default_params();
  params.trace = true;
  const auto data = generate_leaf_data(0, synth);
  leaf_compute(data, params, /*node_id_for_trace=*/5);
  const LocalResult child = leaf_compute(data, params, 6);
  const LocalResult children[] = {child, child};
  merge_compute(children, params, 2);

  recorder.set_enabled(false);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].node_id, 5u);
  EXPECT_EQ(events[0].label, "leaf_compute");
  EXPECT_GT(events[0].duration_ns(), 0);
  EXPECT_GT(events[0].bytes_out, 0u);
  EXPECT_EQ(events[2].node_id, 2u);
  EXPECT_EQ(events[2].label, "merge_shift");
  EXPECT_GT(recorder.node_busy_ns(5), 0);
  recorder.clear();
}

// The headline correctness property: the distributed TBON computation finds
// the same peaks as the single-node baseline, across tree shapes in the
// threaded instantiation and on one small shape in each forked one, where
// large serialized payloads (point sets) cross real kernel channels.
struct EquivalenceCase {
  NetworkMode mode;
  const char* shape;
};

/// Names a case by its shape, and a forked one by its mode as well.
void PrintTo(const EquivalenceCase& param, std::ostream* os) {
  *os << '"' << param.shape << '"';
  if (param.mode == NetworkMode::kProcess) *os << "/process";
  if (param.mode == NetworkMode::kRemote) *os << "/remote";
}

class DistributedEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  // Before the network, so forked nodes inherit it.
  static void SetUpTestSuite() { register_mean_shift_filter(); }
};

TEST_P(DistributedEquivalence, PeaksMatchSingleNode) {
  const Topology topology = TopologyOptions::from_spec(GetParam().shape);
  const SynthParams synth = small_synth();
  const auto params = default_params();

  // Distributed run through the real network.
  auto net = tbon::Network::create(
      {.mode = GetParam().mode,
       .topology = topology,
       .backend_main = [synth, params](tbon::BackEnd& be) {
         const auto data = generate_leaf_data(be.rank(), synth);
         const LocalResult local = leaf_compute(data, params);
         be.send(1, kTag, MeanShiftCodec::kFormat, MeanShiftCodec::to_values(local));
       }});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("mean_shift").with_params(to_filter_params(params)));
  const auto result = stream.recv_for(60s);
  ASSERT_TRUE(result.has_value());
  const LocalResult distributed = MeanShiftCodec::from_values(**result);
  net->shutdown();

  // Single-node reference over the union of all leaf data.
  const auto union_data = generate_union(topology.num_leaves(), synth);
  const auto reference = cluster_single_node(union_data, params.shift);

  const auto centers = true_centers(synth);
  EXPECT_GE(match_fraction(reference, centers, 15.0), 1.0);
  EXPECT_GE(match_fraction(distributed.peaks, centers, 15.0), 1.0);

  // Every distributed peak is close to a reference peak.
  for (const auto& peak : distributed.peaks) {
    if (peak.support < 20) continue;
    double nearest = 1e18;
    for (const auto& ref : reference) {
      nearest = std::min(nearest, distance(peak.position, ref.position));
    }
    EXPECT_LT(nearest, 15.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedEquivalence,
    ::testing::Values(EquivalenceCase{NetworkMode::kThreaded, "flat:4"},
                      EquivalenceCase{NetworkMode::kThreaded, "bal:2x2"},
                      EquivalenceCase{NetworkMode::kThreaded, "bal:4x2"},
                      EquivalenceCase{NetworkMode::kThreaded, "bal:2x3"},
                      EquivalenceCase{NetworkMode::kThreaded, "auto:3:5"},
                      EquivalenceCase{NetworkMode::kProcess, "bal:2x2"},
                      EquivalenceCase{NetworkMode::kRemote, "bal:2x2"}));

// The Figure 4 critical path sums each node's trace events, so every stage
// must be recorded once, where it runs: each leaf's leaf_compute and one
// merge_shift per non-leaf node, both the filter's own CPU time.  The runtime
// records nothing beside them.
TEST(DistributedTrace, EachNodeRecordsItsComputeOnce) {
  register_mean_shift_filter();
  const Topology topology = Topology::balanced(2, 2);
  const SynthParams synth = small_synth();
  auto params = default_params();
  params.trace = true;
  auto& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);

  // Threaded: TraceRecorder collects events from this process only.
  auto net = Network::create({.topology = topology, .backend_main = [&](BackEnd& be) {
                                const auto data = generate_leaf_data(be.rank(), synth);
                                const LocalResult local =
                                    leaf_compute(data, params, topology.leaves()[be.rank()]);
                                be.send(1, kTag, MeanShiftCodec::kFormat,
                                        MeanShiftCodec::to_values(local));
                              }});
  Stream& stream = net->front_end().open_stream(
      StreamSpec().up("mean_shift").with_params(to_filter_params(params)));
  ASSERT_TRUE(stream.recv_for(30s).has_value());
  net->shutdown();
  recorder.set_enabled(false);

  std::map<std::pair<NodeId, std::string>, int> counts;
  for (const TraceEvent& event : recorder.events()) {
    ++counts[{event.node_id, event.label}];
  }
  recorder.clear();
  std::map<std::pair<NodeId, std::string>, int> expected;
  for (NodeId id = 0; id < topology.num_nodes(); ++id) {
    expected[{id, topology.is_leaf(id) ? "leaf_compute" : "merge_shift"}] = 1;
  }
  EXPECT_EQ(counts, expected);
}

}  // namespace
}  // namespace tbon::ms
