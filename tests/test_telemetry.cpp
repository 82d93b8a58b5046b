// In-band telemetry subsystem: merge_records algebra, the wire codec, the
// front-end collector, and end-to-end exactness of FrontEnd::metrics() in
// every instantiation — including across an interior kill with re-adoption.
//
// Exactness protocol: a downstream "go" broadcast gates the back-end sends,
// so the stream announcement (FIFO-ordered ahead of the go packet on every
// hop) is installed tree-wide before any data flows, and receiving all
// front-end results proves every counted packet was processed.  Shutdown
// then flushes a final record from every node before the root acknowledges,
// so the frozen snapshot is exact, not approximate.
//
// NOTE: fork-based tests must not create threads before the network; the
// forked cases build their network first thing (prior tests' threads are
// joined by their shutdown()).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "core/network.hpp"
#include "modes.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

NodeTelemetry record(std::uint32_t node, std::uint64_t seq,
                     std::uint64_t packets_up = 0) {
  NodeTelemetry r;
  r.node = node;
  r.seq = seq;
  r.packets_up = packets_up;
  return r;
}

/// A record whose every metric and histogram bucket holds its own value,
/// base, base + 1, ... in list order, set through the lists themselves.
NodeTelemetry distinct_record(std::uint32_t node, std::uint64_t seq,
                              std::uint64_t base) {
  NodeTelemetry r = record(node, seq);
  std::uint64_t next = base;
#define SET_METRIC(type, name, init, rule) r.name = static_cast<type>(next++);
  TBON_NODE_METRICS(SET_METRIC)
#undef SET_METRIC
#define SET_HISTOGRAM(name, buckets) \
  for (std::uint64_t& count : r.name) count = next++;
  TBON_NODE_HISTOGRAMS(SET_HISTOGRAM)
#undef SET_HISTOGRAM
  return r;
}

// ---- merge_records algebra --------------------------------------------------

TEST(MetricsMerge, MaxSeqWinsPerNodeAndOutputIsSorted) {
  const std::vector<NodeTelemetry> a = {record(2, 7, 100), record(5, 1, 10)};
  const std::vector<NodeTelemetry> b = {record(1, 3, 30), record(2, 9, 200)};
  const auto merged = merge_records(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].node, 1u);
  EXPECT_EQ(merged[1].node, 2u);
  EXPECT_EQ(merged[2].node, 5u);
  // Node 2: b's seq 9 beats a's seq 7.
  EXPECT_EQ(merged[1].seq, 9u);
  EXPECT_EQ(merged[1].packets_up, 200u);
}

TEST(MetricsMerge, TieOnSeqKeepsLeftOperand) {
  const auto merged =
      merge_records(std::vector{record(1, 4, 111)}, std::vector{record(1, 4, 222)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].packets_up, 111u);
}

TEST(MetricsMerge, AssociativeAndCommutative) {
  // Overlapping node sets with distinct seqs: any association / order of the
  // merge must converge to the same record set.  This is the property that
  // makes the aggregate insensitive to tree shape and to re-adoption moving
  // a subtree's records onto a different path (metrics.hpp).
  const std::vector<NodeTelemetry> a = {record(1, 5, 50), record(2, 1, 10)};
  const std::vector<NodeTelemetry> b = {record(2, 8, 80), record(3, 2, 20)};
  const std::vector<NodeTelemetry> c = {record(1, 9, 90), record(3, 1, 19)};

  const auto left = merge_records(merge_records(a, b), c);
  const auto right = merge_records(a, merge_records(b, c));
  EXPECT_EQ(left, right);
  EXPECT_EQ(merge_records(a, b), merge_records(b, a));

  ASSERT_EQ(left.size(), 3u);
  EXPECT_EQ(left[0].seq, 9u);   // node 1: c wins
  EXPECT_EQ(left[1].seq, 8u);   // node 2: b wins
  EXPECT_EQ(left[2].seq, 2u);   // node 3: b wins
}

TEST(MetricsMerge, SerializationRoundTrips) {
  // Distinct values everywhere, so a field the codec drops, swaps or
  // misreads cannot come back equal.
  NodeTelemetry r1 = distinct_record(4, 12, 1000);
  r1.role = 1;
  r1.tenants = {{"a", 1, 2, 3, 4}, {"b", 5, 6, 7, 8}};
  const NodeTelemetry r2 = record(9, 1);  // defaults: heartbeat_rtt_ns == -1
  const std::vector<NodeTelemetry> records = {r1, r2};

  const Bytes wire = serialize_records(records);
  EXPECT_EQ(deserialize_records(wire), records);
  EXPECT_THROW(deserialize_records(std::vector<std::byte>(3, std::byte{0x7f})),
               CodecError);
}

// ---- the front-end collector ------------------------------------------------

TEST(Collector, AgesOutSilentNodesAndFreezeStopsTheClock) {
  TelemetryCollector collector(/*age_out_ns=*/50 * 1'000'000);
  collector.ingest_records(std::vector{record(1, 1, 11)});
  std::this_thread::sleep_for(120ms);
  collector.ingest_records(std::vector{record(2, 1, 22)});

  auto snap = collector.snapshot();
  EXPECT_EQ(snap.nodes_reporting, 1u);
  EXPECT_EQ(snap.find(1), nullptr);
  ASSERT_NE(snap.find(2), nullptr);
  EXPECT_EQ(snap.find(2)->packets_up, 22u);

  // After freeze(), nodes alive at freeze time never age out.
  collector.freeze();
  std::this_thread::sleep_for(120ms);
  snap = collector.snapshot();
  EXPECT_EQ(snap.nodes_reporting, 1u);
  EXPECT_NE(snap.find(2), nullptr);
}

TEST(Collector, TotalFollowsEachMetricsRuleAndJsonCarriesIt) {
  // Node 2 holds the larger value of every metric and node 3 only
  // defaults, so the max rule reads node 2's value, while keeping the
  // first or last record, or summing, reads something else.
  const NodeTelemetry a = distinct_record(1, 1, 100);
  const NodeTelemetry b = distinct_record(2, 1, 5000);
  TelemetryCollector collector(1'000'000'000);
  collector.ingest_records(std::vector{a, b, record(3, 1)});
  collector.freeze();
  const TreeMetricsSnapshot snap = collector.snapshot();
  ASSERT_EQ(snap.nodes_reporting, 3u);

  const std::string json = snap.to_json();
  const std::size_t from = json.find("\"total\":");
  const std::string total_json =
      json.substr(from, json.find("\"filter_ms_per_node\"") - from);
  const std::set<std::string> maxed = {"fc_inflight_peak", "exec_queue_peak",
                                       "net_send_queue_peak", "heartbeat_rtt_ns"};
  std::size_t maxed_seen = 0;
#define CHECK_TOTAL(type, name, init, rule)                                     \
  {                                                                             \
    const bool is_max = maxed.count(#name) != 0;                                \
    const type expected = is_max ? std::max(a.name, b.name) : a.name + b.name;  \
    EXPECT_EQ(snap.total.name, expected) << #name;                              \
    const std::string key_value = "\"" #name "\":" + std::to_string(expected);  \
    EXPECT_NE(total_json.find(key_value + ","), std::string::npos) << #name;    \
    maxed_seen += is_max;                                                       \
  }
  TBON_NODE_METRICS(CHECK_TOTAL)
#undef CHECK_TOTAL
#define CHECK_HISTOGRAM(name, buckets)                                          \
  {                                                                             \
    std::string values;                                                         \
    for (std::size_t i = 0; i < buckets; ++i) {                                 \
      EXPECT_EQ(snap.total.name[i], a.name[i] + b.name[i]) << #name;            \
      values += (i ? "," : "") + std::to_string(a.name[i] + b.name[i]);         \
    }                                                                           \
    EXPECT_NE(total_json.find("\"" #name "\":[" + values + "]"),                \
              std::string::npos)                                                \
        << #name;                                                               \
  }
  TBON_NODE_HISTOGRAMS(CHECK_HISTOGRAM)
#undef CHECK_HISTOGRAM
  EXPECT_EQ(maxed_seen, maxed.size());
}

TEST(Collector, MalformedPayloadsAreCountedNotThrown) {
  TelemetryCollector collector(1'000'000'000);
  const std::vector<std::byte> garbage(5, std::byte{0xee});
  EXPECT_NO_THROW(collector.ingest(garbage));
  EXPECT_EQ(collector.malformed_payloads(), 1u);
  EXPECT_EQ(collector.snapshot().nodes_reporting, 0u);
}

// ---- end-to-end exactness ---------------------------------------------------

// balanced(2,2): node 0 is the root, 1-2 interior, 3-6 leaves (back-end
// ranks 0-3).  Each leaf sends kWaves 16-byte packets gated behind a "go"
// broadcast; with wait_for_all the ground truth is exact:
//   packets_up   = interior 2*kWaves each + root 2*kWaves       = 6*kWaves
//   bytes_up     = 16 bytes per counted packet                  = 96*kWaves
//   waves        = one aligned batch per wave at each filter node = 3*kWaves
//   packets_down = the go broadcast, once per node               = 7
void run_exact_counters_check(Network& net, Stream& stream, int waves) {
  for (int wave = 0; wave < waves; ++wave) {
    ASSERT_TRUE(stream.recv_for(30s).has_value());
  }
  net.shutdown();

  const TreeMetricsSnapshot snap = net.front_end().metrics();
  EXPECT_EQ(snap.nodes_reporting, 7u);
  const auto n = static_cast<std::uint64_t>(waves);
  EXPECT_EQ(snap.total.packets_up, 6 * n);
  EXPECT_EQ(snap.total.bytes_up, 96 * n);
  EXPECT_EQ(snap.total.waves, 3 * n);
  EXPECT_EQ(snap.total.packets_down, 7u);
  EXPECT_GT(snap.total.telemetry_packets, 0u);

  // Per-node records survive the interior merge intact.
  for (std::uint32_t node = 0; node < 7; ++node) {
    ASSERT_NE(snap.find(node), nullptr) << "node " << node << " not reporting";
  }
  EXPECT_EQ(snap.find(0)->packets_up, 2 * n);
  EXPECT_EQ(snap.find(1)->packets_up, 2 * n);
  EXPECT_EQ(snap.find(2)->packets_up, 2 * n);
  EXPECT_EQ(snap.find(3)->packets_up, 0u);  // leaf runtimes relay no app data

  // The latency histogram covers both directions: one observation per
  // upstream wave plus one per node that ran the go broadcast through its
  // downstream filter (root + 2 interiors; leaves deliver without one).
  std::uint64_t observations = 0;
  for (const auto count : snap.total.filter_latency_hist) observations += count;
  EXPECT_EQ(observations, 3 * n + 3);
}

class AggregateTelemetry : public modes::Test {};

TEST_P(AggregateTelemetry, CountersAreExact) {
  constexpr int kWaves = 10;
  auto net = create({.topology = Topology::balanced(2, 2),
                     .telemetry = {.enabled = true, .interval_ms = 25},
                     .backend_main = [](BackEnd& be) {
                       if (!be.recv_for(30s).ok()) return;  // the go broadcast
                       for (int wave = 0; wave < kWaves; ++wave) {
                         be.send(1, kTag, "vf64", {std::vector<double>{1.0, 2.0}});
                       }
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  ASSERT_EQ(stream.id(), 1u);
  stream.send(kTag, "str", {std::string("go")});
  run_exact_counters_check(*net, stream, kWaves);

  const TreeMetricsSnapshot snap = net->front_end().metrics();
  if (forked()) {
    // Only the forked modes serialize every hop, so only there must wire
    // accounting be live.
    EXPECT_GT(snap.total.wire_bytes_out, 0u);
    EXPECT_GT(snap.total.wire_bytes_in, 0u);
  }
  const std::string json = net->front_end().metrics_json();
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_up\""), std::string::npos);
}

TBON_INSTANTIATE_MODES(AggregateTelemetry);

TEST(TelemetryThreaded, MetricsThrowWhenTelemetryDisabled) {
  auto net = Network::create({.topology = Topology::flat(2)});
  EXPECT_THROW(net->front_end().metrics(), ProtocolError);
  EXPECT_THROW(net->front_end().metrics_json(), ProtocolError);
  net->shutdown();
}

TEST(TelemetryOptionsValidation, RejectsNonPositiveInterval) {
  EXPECT_THROW(Network::create({.topology = Topology::flat(2),
                                .telemetry = {.enabled = true, .interval_ms = 0}}),
               ProtocolError);
}

// An interior node is killed by a deterministic fault plan; its orphans
// re-adopt to the root and their records keep flowing along the new path,
// while the dead node's stale record ages out of the snapshot.  Phased
// sends (drained at the front-end between phases) keep the surviving
// counters exact even across the crash:
//   gate:    the go broadcast is node 1's data packet #1 (downstream data
//            counts toward the fault plan's trigger)
//   phase 1: 4 leaves x 2 packets, null sync  -> interior 4+4, root 8 (#2-5)
//   trigger: one solo send from rank 0 is node 1's 6th data packet (lost)
//   phase 2: 4 leaves x 2 packets             -> node 2 +4, root +8 (4 direct)
// Root 16 + node 2 8 = 24; node 1's partial count (4) is aged out.
TEST(TelemetryThreaded, SnapshotSurvivesInteriorKillAndReadoption) {
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  recovery.fault_plan.kill(1, 6);
  // Threaded: the test thread times the crash and the second phase through
  // net->backend(rank).
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .recovery = recovery,
                              .telemetry = {.enabled = true, .interval_ms = 20},
                              .backend_main = [](BackEnd& be) {
                                if (!be.recv_for(30s).ok()) return;
                                be.send(1, kTag, "i64", {std::int64_t{1}});
                                be.send(1, kTag, "i64", {std::int64_t{1}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string("go")});
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(stream.recv_for(30s).has_value());

  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{1}});  // the kill
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));

  // Let node 1's last record fall out of the age-out window (5 x 20ms)
  // while the survivors keep publishing.
  std::this_thread::sleep_for(400ms);

  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{1}});
    net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{1}});
  }
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(stream.recv_for(30s).has_value());
  net->shutdown();

  const TreeMetricsSnapshot snap = net->front_end().metrics();
  EXPECT_EQ(snap.nodes_reporting, 6u);
  EXPECT_EQ(snap.find(1), nullptr) << "dead node failed to age out";
  ASSERT_NE(snap.find(0), nullptr);
  ASSERT_NE(snap.find(2), nullptr);
  EXPECT_EQ(snap.find(0)->packets_up, 16u);
  EXPECT_EQ(snap.find(2)->packets_up, 8u);
  EXPECT_EQ(snap.total.packets_up, 24u);
  EXPECT_EQ(snap.total.adoptions, 2u);
  EXPECT_GE(snap.total.orphaned_events, 2u);
}

}  // namespace
}  // namespace tbon
