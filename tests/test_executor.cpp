// Parallel filter execution: the FilterExecutor's stream-sharded ordering
// guarantees in isolation, and the end-to-end promise through real networks
// — per-stream output is byte-identical to inline execution (workers change
// *where* filters run, never *what* they produce), flow-control depth stays
// bounded, recovery keeps working mid-flight, and the executor's telemetry
// aggregates tree-wide.  Also covers the recv-deadline API additions
// (Stream::recv_until, FrontEnd::recv_any*).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/network.hpp"
#include "filters/calltree.hpp"
#include "filters/equivalence.hpp"
#include "filters/register.hpp"
#include "modes.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

// ---- FilterExecutor in isolation --------------------------------------------

TEST(ExecutorUnit, PerStreamFifoUnder8Workers) {
  MetricsRegistry metrics;
  ExecutionOptions options;
  options.num_workers = 8;
  options.stream_queue_capacity = 64;
  FilterExecutor exec(options, &metrics);
  ASSERT_EQ(exec.num_workers(), 8u);

  constexpr std::uint32_t kStreams = 16;
  constexpr int kTasks = 200;
  // Per-stream sinks: each is touched only by its stream's tasks, which the
  // sharding contract runs strictly sequentially — no locking needed.
  std::vector<std::vector<int>> seen(kStreams);
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    exec.add_stream(s + 1);
  }
  for (int t = 0; t < kTasks; ++t) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      exec.post(s + 1, [&seen, s, t] { seen[s].push_back(t); });
    }
  }
  exec.drain();
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(seen[s].size(), static_cast<std::size_t>(kTasks)) << "stream " << s;
    EXPECT_TRUE(std::is_sorted(seen[s].begin(), seen[s].end())) << "stream " << s;
  }
  EXPECT_EQ(metrics.exec_tasks.load(), kStreams * static_cast<std::uint64_t>(kTasks));
  exec.stop();
}

TEST(ExecutorUnit, ShardingIsStablePerStream) {
  ExecutionOptions options;
  options.num_workers = 4;
  FilterExecutor exec(options, nullptr);
  for (std::uint32_t id = 1; id < 64; ++id) {
    const std::uint32_t shard = exec.shard_of(id);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(exec.shard_of(id), shard);  // stable
  }
  exec.stop();
}

// ---- sync deadlines under workers -------------------------------------------

// A time_out wave that never fills leaves once its window passes, with no
// later packet to wake anything: the node loop keeps the stream's sync
// deadline, as each completion reports it, and posts the drain to the
// stream's shard.
TEST(ExecutorDeadlines, PartialTimeOutWaveLeavesOnAnIdleTree) {
  constexpr std::uint32_t kStream = 1;
  auto net = Network::create({.topology = Topology::flat(4),
                              .execution = {.num_workers = 2},
                              .backend_main = [](BackEnd& be) {
                                if (be.rank() != 0) return;
                                be.send(kStream, kTag, "i64", {std::int64_t{7}});
                              }});
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "sum",
       .up_sync = "time_out",
       .params = FilterParams().set("window_ms", 50).to_wire()});
  ASSERT_EQ(stream.id(), kStream);
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 7);
  net->shutdown();
}

// ---- byte-identical output: workers vs inline -------------------------------

class ExecutorFilters : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { filters::register_all(FilterRegistry::instance()); }
};

std::string bytes_of(const Packet& packet) {
  const BufferView payload = packet.payload_view();  // keep the buffer alive
  const auto span = payload.span();
  return std::string(reinterpret_cast<const char*>(span.data()), span.size());
}

std::vector<std::string> collect_payloads(Stream& stream, std::size_t count) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto result = stream.recv_for(20s);
    if (!result.has_value()) break;
    out.push_back(bytes_of(**result));
  }
  return out;
}

/// Time-aligned aggregation (stateful, persistent bucket state) over 8
/// back-ends in `mode`.  Values are small integers, so the per-bucket
/// double sums are exact regardless of contribution order and the emitted
/// payload bytes must match the inline run exactly.
std::vector<std::string> time_aligned_payloads(NetworkMode mode, std::uint32_t workers) {
  constexpr std::uint64_t kBuckets = 12;
  NetworkOptions options;
  options.mode = mode;
  options.topology = Topology::balanced(2, 3);  // 8 leaves, interior depth
  options.execution.num_workers = workers;
  options.backend_main = [](BackEnd& be) {
    for (std::uint64_t bucket = 0; bucket < kBuckets; ++bucket) {
      be.send(1, kTag, "u64 vf64",
              {bucket, std::vector<double>{static_cast<double>(be.rank()),
                                           static_cast<double>(bucket)}});
    }
  };
  auto net = Network::create(options);
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "time_aligned", .up_sync = "null"});
  auto payloads = collect_payloads(stream, kBuckets);
  net->shutdown();
  return payloads;
}

class ExecutorModes : public modes::Test {
 protected:
  static void SetUpTestSuite() { filters::register_all(FilterRegistry::instance()); }
};

TEST_P(ExecutorModes, TimeAlignedByteIdentical) {
  const auto inline_run = time_aligned_payloads(mode(), 0);
  ASSERT_EQ(inline_run.size(), 12u);
  EXPECT_EQ(time_aligned_payloads(mode(), 4), inline_run);
}

TBON_INSTANTIATE_MODES(ExecutorModes);

/// Equivalence classes (stateful merge across waves, wait_for_all sync).
std::vector<std::string> equivalence_payloads(std::uint32_t workers) {
  constexpr int kWaves = 4;
  NetworkOptions options;
  options.topology = Topology::balanced(2, 3);
  options.execution.num_workers = workers;
  options.backend_main = [](BackEnd& be) {
    for (int wave = 0; wave < kWaves; ++wave) {
      EquivalenceClasses mine;
      mine.add("class-" + std::to_string((be.rank() + wave) % 3), be.rank());
      be.send(1, kTag, EquivalenceClasses::kFormat, mine.to_values());
    }
  };
  auto net = Network::create(options);
  Stream& stream = net->front_end().open_stream({.up_transform = "equivalence_class"});
  auto payloads = collect_payloads(stream, kWaves);
  net->shutdown();
  return payloads;
}

TEST_F(ExecutorFilters, EquivalenceClassByteIdentical) {
  const auto inline_run = equivalence_payloads(0);
  ASSERT_EQ(inline_run.size(), 4u);
  EXPECT_EQ(equivalence_payloads(4), inline_run);
}

/// Call-tree folding (SGFA) — the third stateful complex filter.
std::vector<std::string> sgfa_payloads(std::uint32_t workers) {
  NetworkOptions options;
  options.topology = Topology::balanced(3, 2);  // 9 leaves
  options.execution.num_workers = workers;
  options.backend_main = [](BackEnd& be) {
    CallTree tree;
    const std::string shared[] = {"main", "solve", "mpi_wait"};
    tree.add_path(shared, be.rank());
    if (be.rank() % 3 == 0) {
      const std::string outlier[] = {"main", "checkpoint"};
      tree.add_path(outlier, be.rank());
    }
    be.send(1, kTag, CallTree::kFormat, tree.to_values());
  };
  auto net = Network::create(options);
  Stream& stream = net->front_end().open_stream({.up_transform = "sgfa"});
  auto payloads = collect_payloads(stream, 1);
  net->shutdown();
  return payloads;
}

TEST_F(ExecutorFilters, SgfaByteIdentical) {
  const auto inline_run = sgfa_payloads(0);
  ASSERT_EQ(inline_run.size(), 1u);
  EXPECT_EQ(sgfa_payloads(4), inline_run);
}

// ---- end-to-end ordering + recv_any -----------------------------------------

TEST_F(ExecutorFilters, PerStreamFifoSurvivesWorkersEndToEnd) {
  // 8 concurrently-filtering passthrough streams over 8 workers: every
  // (stream, sender) subsequence must arrive in send order at the front-end.
  constexpr std::size_t kStreams = 8;
  constexpr std::int64_t kPerBackend = 50;
  auto net = Network::create({.topology = Topology::flat(4),
                              .execution = {.num_workers = 8},
                              .backend_main = [](BackEnd& be) {
                                for (std::int64_t seq = 0; seq < kPerBackend; ++seq) {
                                  for (std::uint32_t id = 1; id <= kStreams; ++id) {
                                    be.send(id, kTag, "i64", {seq});
                                  }
                                }
                              }});
  for (std::size_t s = 0; s < kStreams; ++s) {
    net->front_end().open_stream({.up_sync = "null"});
  }

  // Drain everything through recv_any: the natural multi-stream consumer.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> next_seq;
  std::size_t received = 0;
  const std::size_t expected = kStreams * 4 * static_cast<std::size_t>(kPerBackend);
  while (received < expected) {
    const AnyRecvResult any = net->front_end().recv_any_for(20'000ms);
    ASSERT_TRUE(any.result.ok()) << "after " << received << " packets";
    const auto key = std::make_pair(any.stream_id, (*any.result)->src_rank());
    EXPECT_EQ((*any.result)->get_i64(0), next_seq[key])
        << "stream " << key.first << " rank " << key.second;
    next_seq[key] = (*any.result)->get_i64(0) + 1;
    ++received;
  }
  net->shutdown();
  EXPECT_EQ(net->front_end().recv_any().result.status(), RecvStatus::kShutdown);
}

TEST_F(ExecutorFilters, RecvDeadlinesReportTimeout) {
  // The back-ends send only once the front-end says go.
  auto net = Network::create({.topology = Topology::flat(2), .backend_main = [](BackEnd& be) {
                                if (!be.recv_for(20s).ok()) return;
                                be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  // Nothing sent yet: deadline spellings must report kTimeout, not block.
  EXPECT_EQ(stream.recv_until(std::chrono::steady_clock::now() + 10ms).status(),
            RecvStatus::kTimeout);
  EXPECT_EQ(net->front_end().recv_any_for(10ms).result.status(), RecvStatus::kTimeout);
  EXPECT_EQ(net->front_end()
                .recv_any_until(std::chrono::steady_clock::now() + 10ms)
                .result.status(),
            RecvStatus::kTimeout);

  stream.send(kTag, "str", {std::string("go")});
  const AnyRecvResult any = net->front_end().recv_any();
  ASSERT_TRUE(any.result.ok());
  EXPECT_EQ(any.stream_id, stream.id());
  EXPECT_EQ((*any.result)->get_i64(0), 3);
  net->shutdown();
  EXPECT_EQ(stream.recv_until(std::chrono::steady_clock::now()).status(),
            RecvStatus::kShutdown);
}

// ---- recovery + flow control under workers ----------------------------------

TEST_F(ExecutorFilters, KillAndReadoptMidFlightWithWorkers) {
  // Threaded: the test thread sends each wave through net->backend(rank)
  // so it can time waves against the kill.
  const Topology topo = Topology::balanced(2, 3);  // 8 leaves, depth 3
  auto net = Network::create({.topology = topo,
                              .recovery = {.auto_readopt = true},
                              .execution = {.num_workers = 2}});
  Stream& stream = net->front_end().open_stream(
      {.up_transform = "sum", .up_sync = "wait_for_all"});
  auto send_wave = [&] {
    for (std::uint32_t rank = 0; rank < 8; ++rank) {
      net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{rank + 1}});
    }
  };
  constexpr std::int64_t kFullSum = 36;  // 1 + 2 + ... + 8

  send_wave();
  auto result = stream.recv_for(20s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), kFullSum);

  net->kill_node(1);  // interior node; its two children re-adopt
  ASSERT_TRUE(net->wait_for_adoptions(2, 20s));

  // Waves straddling the kill may surface as partial sums (positive terms,
  // so a partial is strictly < kFullSum); once re-adoption settles, the
  // exact full aggregate must reappear.
  bool exact = false;
  for (int attempt = 0; attempt < 50 && !exact; ++attempt) {
    send_wave();
    while (const auto r = stream.recv_for(5s)) {
      EXPECT_LE((*r)->get_i64(0), kFullSum);
      if ((*r)->get_i64(0) == kFullSum) {
        exact = true;
        break;
      }
    }
  }
  EXPECT_TRUE(exact);
  net->shutdown();
}

TEST_F(ExecutorFilters, FlowControlDepthStaysBoundedWithWorkers) {
  // Worker-queue occupancy counts against the credit window: credits for a
  // dispatched packet return only when its completion is delivered, so the
  // per-channel in-flight peak must respect the window and nothing is shed.
  constexpr int kWaves = 40;
  constexpr std::uint32_t kCapacity = 4;
  auto net = Network::create(
      {.topology = Topology::balanced(2, 2),
       .flow_control = {.enabled = true,
                        .capacity = kCapacity,
                        .policy = FlowControlPolicy::kBlock,
                        .block_timeout_ms = 30'000},
       .execution = {.num_workers = 2, .stream_queue_capacity = 8},
       .backend_main = [](BackEnd& be) {
         for (int wave = 0; wave < kWaves; ++wave) be.send(1, kTag, "i64", {std::int64_t{1}});
       }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = stream.recv_for(30s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    EXPECT_EQ((*result)->get_i64(0), 4);
  }
  net->shutdown();
  for (NodeId id = 0; id < 7; ++id) {
    const NodeMetricsSnapshot m = net->node_metrics(id);
    EXPECT_LE(m.fc_inflight_peak, kCapacity) << "node " << id;
    EXPECT_EQ(m.fc_packets_shed, 0u) << "node " << id;
    EXPECT_EQ(m.fc_invalid_grants, 0u) << "node " << id;
  }
}

// ---- telemetry + inline fast path --------------------------------------------

TEST_F(ExecutorFilters, TelemetryAggregatesExecutorMetricsTreeWide) {
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .telemetry = {.enabled = true, .interval_ms = 50},
                              .execution = {.num_workers = 2},
                              .backend_main = [](BackEnd& be) {
                                for (int wave = 0; wave < 10; ++wave) {
                                  be.send(1, kTag, "i64", {std::int64_t{be.rank()}});
                                }
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (int wave = 0; wave < 10; ++wave) {
    ASSERT_TRUE(stream.recv_for(20s).has_value());
  }
  net->shutdown();
  const TreeMetricsSnapshot snap = net->front_end().metrics();
  // 3 non-leaf nodes × 2 workers, summed tree-wide.
  EXPECT_EQ(snap.total.exec_workers, 6u);
  EXPECT_GT(snap.total.exec_tasks, 0u);
  EXPECT_GT(snap.total.exec_task_ns, 0u);
  // JSON export carries the new fields.
  EXPECT_NE(net->front_end().metrics_json().find("\"exec_workers\""), std::string::npos);
  EXPECT_NE(net->front_end().metrics_json().find("\"exec_queue_peak\""), std::string::npos);
}

TEST_F(ExecutorFilters, ProcessModeSumReductionWithWorkers) {
  auto net = Network::create(
      {.mode = NetworkMode::kProcess,
       .topology = Topology::balanced(2, 2),
       .execution = {.num_workers = 2},
       .backend_main = [](BackEnd& be) {
         be.send(1, kTag, "i64", {std::int64_t{be.rank() + 1}});
       }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  const auto result = stream.recv_for(20s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 10);
  net->shutdown();
}

}  // namespace
}  // namespace tbon
