// Adaptive small-packet batching: BatchingOptions builder semantics, every
// CoalescingLink flush trigger (size, deadline, credit pressure, eager
// bypass), the default filter_batch, byte-identity between batched and
// unbatched runs and interior frame size under a credit-bound flood in every
// instantiation, the batch send API, frames split or run together on both
// socket pumps, and the TCP_NODELAY pin.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/network.hpp"
#include "filters/register.hpp"
#include "interior_flood.hpp"
#include "modes.hpp"
#include "socket_pumps.hpp"
#include "transport/tcp.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

// ---- BatchingOptions builder ------------------------------------------------

TEST(BatchingOptions, BuilderAndDefaults) {
  const BatchingOptions off;  // default-constructed == ::off()
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(BatchingOptions::off().enabled());

  const BatchingOptions on = BatchingOptions::on();
  EXPECT_TRUE(on.enabled());
  EXPECT_EQ(on.max_bytes(), 16u * 1024u);
  EXPECT_EQ(on.max_packets(), 64u);
  EXPECT_EQ(on.max_delay_ns(), 1'000'000);
  EXPECT_TRUE(on.adaptive());
  EXPECT_EQ(on.adaptive_cutoff(), 4096u);

  const BatchingOptions tuned = BatchingOptions::on()
                                    .max_bytes(512)
                                    .max_packets(8)
                                    .max_delay(250us)
                                    .adaptive(false)
                                    .adaptive_cutoff(128);
  EXPECT_EQ(tuned.max_bytes(), 512u);
  EXPECT_EQ(tuned.max_packets(), 8u);
  EXPECT_EQ(tuned.max_delay_ns(), 250'000);
  EXPECT_FALSE(tuned.adaptive());
  EXPECT_EQ(tuned.adaptive_cutoff(), 128u);

  // Hostile knob values are clamped, not honoured.
  EXPECT_EQ(BatchingOptions::on().max_packets(0).max_packets(), 1u);
  EXPECT_EQ(BatchingOptions::on().max_packets(1u << 30).max_packets(),
            kMaxBatchPackets);
  EXPECT_EQ(BatchingOptions::on().max_delay(-5ms).max_delay_ns(), 0);
}

TEST(BatchingOptions, SerializeRoundTrip) {
  const BatchingOptions original = BatchingOptions::on()
                                       .max_bytes(2048)
                                       .max_packets(17)
                                       .max_delay(3ms)
                                       .adaptive(false)
                                       .adaptive_cutoff(9000);
  BinaryWriter writer;
  original.serialize(writer);
  BinaryReader reader(writer.bytes());
  const BatchingOptions back = BatchingOptions::deserialize(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(back.enabled(), original.enabled());
  EXPECT_EQ(back.max_bytes(), original.max_bytes());
  EXPECT_EQ(back.max_packets(), original.max_packets());
  EXPECT_EQ(back.max_delay_ns(), original.max_delay_ns());
  EXPECT_EQ(back.adaptive(), original.adaptive());
  EXPECT_EQ(back.adaptive_cutoff(), original.adaptive_cutoff());
}

// ---- CoalescingLink flush triggers ------------------------------------------

/// Inner link recording every send/send_batch call, with a condvar so tests
/// can wait for flushes performed by the deadline-service thread.
class CaptureLink final : public Link {
 public:
  bool send(const PacketPtr& packet) override {
    std::lock_guard lock(mutex_);
    calls_.push_back({packet});
    cv_.notify_all();
    return true;
  }
  bool send_batch(std::span<const PacketPtr> packets) override {
    std::lock_guard lock(mutex_);
    calls_.emplace_back(packets.begin(), packets.end());
    cv_.notify_all();
    return true;
  }
  void close() override {
    std::lock_guard lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  bool wait_for_calls(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return calls_.size() >= n; });
  }
  std::vector<std::vector<PacketPtr>> calls() {
    std::lock_guard lock(mutex_);
    return calls_;
  }
  bool closed() {
    std::lock_guard lock(mutex_);
    return closed_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<PacketPtr>> calls_;
  bool closed_ = false;
};

PacketPtr tiny(std::int64_t v) {
  return Packet::make(5, kTag, 0, "i64", {v});
}

// Thresholds high enough that only the trigger under test can fire.
BatchingOptions idle_options() {
  return BatchingOptions::on()
      .max_bytes(1u << 20)
      .max_packets(1000)
      .max_delay(60s)
      .adaptive(false);
}

TEST(CoalescingLink, PacketCountTriggersFlush) {
  auto inner = std::make_shared<CaptureLink>();
  CoalescingLink link(inner, idle_options().max_packets(3));
  EXPECT_TRUE(link.send(tiny(1)));
  EXPECT_TRUE(link.send(tiny(2)));
  EXPECT_TRUE(inner->calls().empty());  // still buffering
  EXPECT_TRUE(link.send(tiny(3)));
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 3u);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(calls[0][static_cast<std::size_t>(i)]->get_i64(0), i + 1);
  }
}

TEST(CoalescingLink, ByteBudgetTriggersFlush) {
  auto inner = std::make_shared<CaptureLink>();
  CoalescingLink link(inner, idle_options().max_bytes(1));
  link.send(tiny(1));
  link.send(tiny(2));
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 2u);  // every packet overflows the 1-byte budget
  EXPECT_EQ(calls[0].size(), 1u);
  EXPECT_EQ(calls[1].size(), 1u);
}

TEST(CoalescingLink, ZeroDelayMeansNoBuffering) {
  auto inner = std::make_shared<CaptureLink>();
  CoalescingLink link(inner, idle_options().max_delay(0ns));
  link.send(tiny(7));
  ASSERT_EQ(inner->calls().size(), 1u);
}

TEST(CoalescingLink, ControlPacketFlushesBufferThenBypasses) {
  auto inner = std::make_shared<CaptureLink>();
  CoalescingLink link(inner, idle_options());
  link.send(tiny(1));
  link.send(tiny(2));
  const PacketPtr grant = make_credit_packet(4, 0);
  link.send(grant);
  const auto calls = inner->calls();
  // Buffered data goes first (FIFO), then the control packet rides alone.
  ASSERT_EQ(calls.size(), 2u);
  ASSERT_EQ(calls[0].size(), 2u);
  EXPECT_EQ(calls[0][0]->get_i64(0), 1);
  ASSERT_EQ(calls[1].size(), 1u);
  EXPECT_EQ(calls[1][0]->stream_id(), kControlStream);
}

TEST(CoalescingLink, AdaptiveCutoffBypassesLargePayloads) {
  auto inner = std::make_shared<CaptureLink>();
  CoalescingLink link(inner, idle_options().adaptive(true).adaptive_cutoff(64));
  link.send(tiny(1));
  const PacketPtr big =
      Packet::make(5, kTag, 0, "str", {std::string(256, 'x')});
  ASSERT_GE(big->payload_bytes(), 64u);
  link.send(big);
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].size(), 1u);  // the buffered small packet, flushed first
  ASSERT_EQ(calls[1].size(), 1u);  // the large payload, alone
  EXPECT_EQ(calls[1][0]->get_str(0), std::string(256, 'x'));
}

TEST(CoalescingLink, CloseAndManualFlushDrainTheBuffer) {
  auto inner = std::make_shared<CaptureLink>();
  {
    CoalescingLink link(inner, idle_options());
    link.send(tiny(1));
    link.send(tiny(2));
    EXPECT_TRUE(link.flush());
    ASSERT_EQ(inner->calls().size(), 1u);
    EXPECT_EQ(inner->calls()[0].size(), 2u);

    link.send(tiny(3));
    link.close();
  }
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].size(), 1u);
  EXPECT_TRUE(inner->closed());
}

TEST(CoalescingLink, DeadlineFlushesWithinConfiguredWindow) {
  auto inner = std::make_shared<CaptureLink>();
  auto flusher = std::make_shared<BatchFlusher>();
  constexpr auto kDelay = 20ms;
  auto link = std::make_shared<CoalescingLink>(inner, idle_options().max_delay(kDelay),
                                               nullptr, nullptr, flusher);
  flusher->attach(link);
  const auto start = std::chrono::steady_clock::now();
  link->send(tiny(42));
  // Nothing else triggers: only the deadline thread can flush this packet.
  ASSERT_TRUE(inner->wait_for_calls(1, 5000ms));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous upper bound (scheduler jitter), but far below the 60 s backstop
  // thresholds — proof the deadline path fired, and fired promptly.
  EXPECT_LT(elapsed, 2s);
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 1u);
  EXPECT_EQ(calls[0][0]->get_i64(0), 42);
  flusher->stop();
}

TEST(CoalescingLink, CreditExhaustionForcesFlush) {
  auto inner = std::make_shared<CaptureLink>();
  auto gate = std::make_shared<CreditGate>(2);
  CoalescingLink link(inner, idle_options(), nullptr, gate);
  // Mimic FlowControlledLink: each data packet takes its credit before the
  // coalescer buffers it.
  ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);
  link.send(tiny(1));
  EXPECT_TRUE(inner->calls().empty());  // one credit left: keep buffering
  ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);
  link.send(tiny(2));
  // Window exhausted: buffered packets must reach the receiver or no grant
  // can ever come back.  The pressure trigger flushes without any timer.
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].size(), 2u);
}

TEST(CoalescingLink, CreditPressureFlushesOncePerBatchCall) {
  auto inner = std::make_shared<CaptureLink>();
  auto gate = std::make_shared<CreditGate>(4);
  CoalescingLink link(inner, idle_options(), nullptr, gate);
  // A whole run whose credits drained the window, as FlowControlledLink
  // hands it over: every packet already holds its credit.
  std::vector<PacketPtr> run;
  for (std::int64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);
    run.push_back(tiny(i));
  }
  ASSERT_TRUE(link.send_batch(run));
  // One frame for the whole run, not one per packet.
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(calls[0][static_cast<std::size_t>(i)]->get_i64(0), i);
  }
}

TEST(CoalescingLink, FlowControlledBatchDrainingTheWindowIsOneFrame) {
  auto inner = std::make_shared<CaptureLink>();
  const FlowControlOptions fc{.enabled = true, .capacity = 8};
  auto gate = std::make_shared<CreditGate>(fc.window());
  FlowControlledLink link(
      std::make_shared<CoalescingLink>(inner, idle_options(), nullptr, gate),
      gate, fc, nullptr, /*fail_fast_throws=*/false);
  std::vector<PacketPtr> run;
  for (std::int64_t i = 0; i < 8; ++i) run.push_back(tiny(i));
  ASSERT_TRUE(link.send_batch(run));
  EXPECT_EQ(gate->available(), 0u);
  const auto calls = inner->calls();
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 8u);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(calls[0][static_cast<std::size_t>(i)]->get_i64(0), i);
  }
}

// ---- TransformFilter::filter_batch default ---------------------------------

TEST(FilterBatch, DefaultRunsEachPacketAsItsOwnWaveInOrder) {
  // A filter overriding only filter() must see a coalesced run as
  // independent single-packet waves, in order, through the default
  // filter_batch.
  class Negate final : public TransformFilter {
   public:
    void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                FilterContext&) override {
      EXPECT_EQ(in.size(), 1u);  // one wave per packet, never the whole run
      out.push_back(Packet::make(in[0]->stream_id(), in[0]->tag(), kFrontEndRank,
                                 "i64", {-in[0]->get_i64(0)}));
    }
  };
  Negate negate;
  TransformFilter& filter = negate;
  FilterContext ctx;
  std::vector<PacketPtr> run;
  for (std::int64_t i = 1; i <= 4; ++i) run.push_back(tiny(i));
  std::vector<PacketPtr> out;
  filter.filter_batch(run, out, ctx);
  ASSERT_EQ(out.size(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)]->get_i64(0), -(i + 1));
  }
}

// ---- end-to-end: batched output is byte-identical to unbatched --------------

/// Run `waves` reduction waves through a 2x2 tree in `mode` and return every
/// result packet, serialized.
std::vector<Bytes> reduction_run(NetworkMode mode, const BatchingOptions& batching,
                                 const std::string& transform, int waves,
                                 const FlowControlOptions& fc = {}) {
  auto net = Network::create(
      {.mode = mode,
       .topology = Topology::balanced(2, 2),
       .flow_control = fc,
       .batching = batching,
       .backend_main = [waves, transform](BackEnd& be) {
         for (int wave = 0; wave < waves; ++wave) {
           const std::int64_t value = (be.rank() + 1) * (wave + 1);
           // concat rejects scalar fields by design; give it one-element
           // vectors.
           if (transform == "concat") {
             be.send(1, kTag, "vi64", {std::vector<std::int64_t>{value}});
           } else {
             be.send(1, kTag, "i64", {value});
           }
         }
       }});
  Stream& stream = net->front_end().open_stream({.up_transform = transform});
  EXPECT_EQ(stream.id(), 1u);
  std::vector<Bytes> out;
  for (int wave = 0; wave < waves; ++wave) {
    const auto result = stream.recv_for(20s);
    EXPECT_TRUE(result.has_value()) << transform << " wave " << wave;
    if (!result) break;
    BinaryWriter writer;
    (*result)->serialize(writer);
    out.push_back(writer.take());
  }
  net->shutdown();
  return out;
}

class BatchedReductions : public modes::Test {
 protected:
  /// The time-aligned (wait_for_all) `transform` pipeline must produce
  /// byte-identical result packets whether or not the wire batches, under
  /// small packet caps and under the default one.
  void expect_matches_unbatched(const std::string& transform) const {
    constexpr int kWaves = 12;
    const auto plain = reduction_run(mode(), BatchingOptions::off(), transform, kWaves);
    ASSERT_EQ(plain.size(), std::size_t{kWaves}) << transform;
    for (const BatchingOptions& batching :
         {BatchingOptions::on().max_packets(4).max_delay(1ms),
          BatchingOptions::on().max_packets(8).max_delay(1ms),
          BatchingOptions::on().max_delay(1ms)}) {
      const auto batched = reduction_run(mode(), batching, transform, kWaves);
      ASSERT_EQ(batched.size(), plain.size()) << transform;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], batched[i])
            << transform << " max_packets " << batching.max_packets() << " wave " << i;
      }
    }
  }
};

TEST_P(BatchedReductions, SumAndMinMatchUnbatched) {
  expect_matches_unbatched("sum");
  expect_matches_unbatched("min");
}

TEST_P(BatchedReductions, ConcatMatchesUnbatched) { expect_matches_unbatched("concat"); }

TBON_INSTANTIATE_MODES(BatchedReductions);

TEST(BatchingIdentity, ThreadedEquivalenceMatchesUnbatched) {
  filters::register_all(FilterRegistry::instance());
  auto run = [](const BatchingOptions& batching) {
    auto net = Network::create({.topology = Topology::balanced(2, 2),
                                .batching = batching,
                                .backend_main = [](BackEnd& be) {
                                  be.send(1, kTag, "vstr vi64 vi64",
                                          {std::vector<std::string>{be.rank() % 2 ? "odd" : "even"},
                                           std::vector<std::int64_t>{1},
                                           std::vector<std::int64_t>{
                                               static_cast<std::int64_t>(be.rank())}});
                                }});
    Stream& stream =
        net->front_end().open_stream({.up_transform = "equivalence_class"});
    const auto result = stream.recv_for(10s);
    EXPECT_TRUE(result.has_value());
    Bytes bytes;
    if (result) {
      BinaryWriter writer;
      (*result)->serialize(writer);
      bytes = writer.take();
    }
    net->shutdown();
    return bytes;
  };
  const Bytes plain = run(BatchingOptions::off());
  const Bytes batched = run(BatchingOptions::on().max_delay(1ms));
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, batched);
}

TEST(BatchingIdentity, BatchingPlusFlowControlDoesNotDeadlock) {
  // Coalescer thresholds none of which can fire (huge size caps, 60 s
  // deadline) + a 4-credit window: only the credit-pressure flush can move
  // data, and it must keep the pipeline live to the last wave.
  const FlowControlOptions fc{.enabled = true, .capacity = 4};
  const auto plain =
      reduction_run(NetworkMode::kThreaded, BatchingOptions::off(), "sum", 24, fc);
  const auto batched = reduction_run(NetworkMode::kThreaded, idle_options(), "sum", 24, fc);
  ASSERT_EQ(plain.size(), batched.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], batched[i]) << "wave " << i;
  }
}

// ---- interior frame size under credit pressure ------------------------------

class FloodedInteriors : public modes::Test {};

TEST_P(FloodedInteriors, SendMultiPacketFrames) {
  // In a forked mode one multi-packet frame is one enqueue, one write and
  // one read for the whole run.
  NetworkOptions options = flood::options(mode());
  options.backend_main = flood::send_waves;
  auto net = create(std::move(options));
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  ASSERT_EQ(stream.id(), 1u);
  flood::expect_exact_sums_and_full_interior_frames(*net, stream);
}

TBON_INSTANTIATE_MODES(FloodedInteriors);

TEST(InteriorFrames, FlowControlledFramesHoldAtMostOneGrantQuantum) {
  // 64 credits, granted back 32 at a time, and a 64-packet batch cap: a
  // frame of the whole window would leave its sender with no credits until
  // the receiver had consumed all of it.  Each flow-controlled stack caps
  // its batches at the grant quantum instead, so no frame carries 33-64
  // packets, yet the flood still fills frames to the quantum.
  NetworkOptions options = flood::options(NetworkMode::kThreaded);
  ASSERT_EQ(options.batching.max_packets(), 64u);
  ASSERT_EQ(options.flow_control.grant_quantum(), 32u);
  options.backend_main = flood::send_waves;
  auto net = Network::create(std::move(options));
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  flood::expect_exact_sums_and_full_interior_frames(*net, stream);

  const TreeMetricsSnapshot snap = net->front_end().metrics();
  std::uint64_t quantum_frames = 0;
  for (const NodeTelemetry& node : snap.nodes) {
    EXPECT_EQ(node.batch_ppf_hist[batch_bucket(33)], 0u) << "node " << node.node;
    EXPECT_EQ(node.batch_ppf_hist[batch_bucket(65)], 0u) << "node " << node.node;
    quantum_frames += node.batch_ppf_hist[batch_bucket(32)];
  }
  EXPECT_GT(quantum_frames, 0u);
}

// ---- rebuilt edges keep the channel stack -----------------------------------
//
// Edges made after start-up — re-adoption after a failure, a planned
// re-home — must get the same channel stack as the start-up ones.  Under the
// benchmark's load every packet a back-end sends passes its upstream
// coalescer, so its batch_packets_out counts every wave it sends, before and
// after its edge is rebuilt.

constexpr int kRebuiltWaves = 256;

/// Back-end body: waves [0, kRebuiltWaves), then, once the front-end's go
/// packet arrives (after the edges are rebuilt), the next kRebuiltWaves.
void waves_around_a_rebuild(BackEnd& be) {
  for (int wave = 0; wave < kRebuiltWaves; ++wave) {
    be.send(1, kTag, "vf64", {flood::report(be.rank(), wave)});
  }
  if (!be.recv().ok()) return;
  for (int wave = kRebuiltWaves; wave < 2 * kRebuiltWaves; ++wave) {
    be.send(1, kTag, "vf64", {flood::report(be.rank(), wave)});
  }
}

/// The front-end must receive each of waves [first, first + kRebuiltWaves)
/// as its exact sum.
void expect_exact_waves(Stream& stream, int first) {
  for (int wave = first; wave < first + kRebuiltWaves; ++wave) {
    const auto result = stream.recv_for(30s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    const std::vector<double>& sum = (*result)->get_vf64(0);
    ASSERT_EQ(sum.size(), 32u) << "wave " << wave;
    for (std::size_t i = 0; i < sum.size(); ++i) {
      ASSERT_EQ(sum[i], 10.0 * (wave + 1) + 4.0 * static_cast<double>(i))
          << "wave " << wave << " element " << i;
    }
  }
}

/// Rebuild some edges with `rebuild`, then check that both phases' waves
/// arrive exact and that every leaf's coalescer carried all of them.
void expect_rebuilt_edges_keep_coalescing(Network& net,
                                          const std::function<void()>& rebuild) {
  Stream& stream = net.front_end().open_stream({.up_transform = "sum"});
  ASSERT_EQ(stream.id(), 1u);
  expect_exact_waves(stream, 0);
  rebuild();
  stream.send(kTag, "i64", {std::int64_t{0}});  // go
  expect_exact_waves(stream, kRebuiltWaves);
  net.shutdown();

  const TreeMetricsSnapshot snap = net.front_end().metrics();
  for (const NodeId leaf : net.topology().leaves()) {
    const NodeTelemetry* record = snap.find(leaf);
    ASSERT_NE(record, nullptr) << "leaf " << leaf;
    EXPECT_GE(record->batch_packets_out, std::uint64_t{2 * kRebuiltWaves})
        << "leaf " << leaf << " sent part of its waves around its coalescer";
  }
}

class ReadoptedLeaves : public modes::Test {};

TEST_P(ReadoptedLeaves, KeepCoalescing) {
  NetworkOptions options = flood::options(mode());
  options.recovery.auto_readopt = true;
  options.backend_main = waves_around_a_rebuild;
  auto net = create(std::move(options));
  expect_rebuilt_edges_keep_coalescing(*net, [&] {
    net->kill_node(1);  // orphans leaves 3 and 4
    ASSERT_TRUE(net->wait_for_adoptions(2, 20s));
  });

  // Each orphan coalesced at least half as much as each survivor.
  const TreeMetricsSnapshot snap = net->front_end().metrics();
  for (const NodeId orphan : net->topology().node(1).children) {
    for (const NodeId survivor : net->topology().node(2).children) {
      const NodeTelemetry* o = snap.find(orphan);
      const NodeTelemetry* s = snap.find(survivor);
      ASSERT_NE(o, nullptr) << "orphan " << orphan;
      ASSERT_NE(s, nullptr) << "survivor " << survivor;
      EXPECT_GE(2 * o->batch_packets_out, s->batch_packets_out)
          << "orphan " << orphan << " coalesced " << o->batch_packets_out
          << " packets, survivor " << survivor << " " << s->batch_packets_out;
    }
  }
}

TBON_INSTANTIATE_MODES(ReadoptedLeaves);

TEST(RebuiltEdges, ThreadedMovedLeafKeepsCoalescing) {
  // Threaded: moving a static leaf is a threaded-only reconfiguration.
  NetworkOptions options = flood::options(NetworkMode::kThreaded);
  options.backend_main = waves_around_a_rebuild;
  auto net = Network::create(std::move(options));
  expect_rebuilt_edges_keep_coalescing(*net, [&] {
    const NodeId mover = net->topology().node(1).children[0];
    ASSERT_TRUE(net->front_end().reconfigure(TopologyDelta().move_subtree(mover, 2)).ok());
  });
}

// ---- batch send API ---------------------------------------------------------

TEST(BatchSendApi, StreamSendBatchBroadcasts) {
  std::atomic<int> happy{0};
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .batching = BatchingOptions::on().max_delay(1ms),
                              .backend_main = [&](BackEnd& be) {
                                for (std::int64_t i = 0; i < 3; ++i) {
                                  const auto packet = be.recv_for(10s);
                                  ASSERT_TRUE(packet.has_value());
                                  EXPECT_EQ((*packet)->get_i64(0), i * 100);  // order preserved
                                }
                                happy.fetch_add(1);
                              }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  std::vector<PacketPtr> batch;
  for (std::int64_t i = 0; i < 3; ++i) {
    batch.push_back(stream.make_packet(kTag, "i64", {i * 100}));
  }
  stream.send_batch(batch);
  net->shutdown();  // the batch precedes the shutdown; joins the bodies
  EXPECT_EQ(happy.load(), 4);
}

TEST(BatchSendApi, BackEndSendBatchGathers) {
  auto net = Network::create({.topology = Topology::balanced(2, 2),
                              .batching = BatchingOptions::on().max_delay(1ms),
                              .backend_main = [](BackEnd& be) {
                                std::vector<PacketPtr> batch;
                                for (std::int64_t wave = 0; wave < 5; ++wave) {
                                  batch.push_back(be.make_packet(1, kTag, "i64", {wave + 1}));
                                }
                                be.send_batch(1, batch);
                              }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  for (std::int64_t wave = 0; wave < 5; ++wave) {
    const auto result = stream.recv_for(10s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    EXPECT_EQ((*result)->get_i64(0), 4 * (wave + 1));
  }
  net->shutdown();
}

TEST(BatchSendApi, ValidatesBeforeAnySideEffect) {
  auto net = Network::create({.topology = Topology::balanced(2, 2)});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  Stream& other = net->front_end().open_stream({.up_sync = "null"});

  EXPECT_THROW(stream.make_packet(3, "i64", {std::int64_t{0}}), ProtocolError);

  const std::vector<PacketPtr> with_null = {
      stream.make_packet(kTag, "i64", {std::int64_t{1}}), nullptr};
  EXPECT_THROW(stream.send_batch(with_null), ProtocolError);

  const std::vector<PacketPtr> wrong_stream = {
      other.make_packet(kTag, "i64", {std::int64_t{1}})};
  EXPECT_THROW(stream.send_batch(wrong_stream), ProtocolError);
  net->shutdown();
}

// ---- frames split or run together on a socket -------------------------------
//
// A stream socket keeps no frame boundaries: a pump may get a frame a byte
// at a time, or a body together with the next frame's length prefix, which
// process mode's reader asks for to make one readv per frame.  Either pump
// must deliver every frame whole and in order, and a peer that dies inside a
// frame must cost that frame and nothing else.

/// A batch frame of three reports, a single-packet frame and a 64 KiB
/// single-packet frame.
std::vector<Bytes> channel_frames() {
  std::vector<PacketPtr> reports;
  for (int i = 0; i < 3; ++i) {
    reports.push_back(Packet::make(5, kTag, static_cast<std::uint32_t>(i), "vf64",
                                   {std::vector<double>(32, i + 0.5)}));
  }
  BinaryWriter single;
  Packet::make(5, kTag + 1, 7, "i64 str", {std::int64_t{-3}, std::string("single")})
      ->serialize(single);
  BinaryWriter bulk;
  Packet::make(5, kTag + 2, 9, "bytes", {BufferView(Bytes(64 * 1024, std::byte{0x5a}))})
      ->serialize(bulk);
  return {encode_batch_frame(reports), single.take(), bulk.take()};
}

/// The frames with their length prefixes, as the peer's byte stream.
Bytes framed(std::span<const Bytes> frames) {
  BinaryWriter stream;
  for (const Bytes& frame : frames) stream.put_bytes(frame);
  return stream.take();
}

/// The peer: sends `stream` up to `cuts.back()` on `fd`, in writes of at
/// most `chunk` bytes that also end at each of `cuts`, then closes `fd`.
/// On its own thread, so that a pump that stops reading fails the test
/// instead of blocking it: its stop() closes the socket, and the peer's
/// next send fails.
std::jthread peer(Fd fd, Bytes stream, std::vector<std::size_t> cuts, std::size_t chunk) {
  return std::jthread([fd = std::move(fd), stream = std::move(stream),
                       cuts = std::move(cuts), chunk]() mutable {
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      while (from < cut) {
        const ssize_t n = ::send(fd.get(), stream.data() + from,
                                 std::min(chunk, cut - from), MSG_NOSIGNAL);
        if (n <= 0) return;
        from += static_cast<std::size_t>(n);
      }
    }
    fd.reset();
  });
}

/// Pop the envelope the pump made of channel_frames()[index].
void expect_frame(Inbox& inbox, std::size_t index) {
  const auto envelope = inbox.pop_for(10s);
  ASSERT_TRUE(envelope.has_value());
  EXPECT_EQ(envelope->origin, Origin::kChild);
  EXPECT_EQ(envelope->child_slot, 3u);
  if (index == 0) {
    ASSERT_NE(envelope->batch, nullptr);
    ASSERT_EQ(envelope->batch->size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ((*envelope->batch)[i]->get_vf64(0), std::vector<double>(32, i + 0.5));
    }
    return;
  }
  ASSERT_NE(envelope->packet, nullptr);
  if (index == 1) {
    EXPECT_EQ(envelope->packet->get_i64(0), -3);
    EXPECT_EQ(envelope->packet->get_str(1), "single");
    return;
  }
  const BufferView& bulk = envelope->packet->get_bytes(0);
  ASSERT_EQ(bulk.size(), 64u * 1024);
  EXPECT_TRUE(std::all_of(bulk.span().begin(), bulk.span().end(),
                          [](std::byte b) { return b == std::byte{0x5a}; }));
}

/// The EOF envelope, and nothing after it.
void expect_eof_alone(Inbox& inbox) {
  const auto eof = inbox.pop_for(10s);
  ASSERT_TRUE(eof.has_value());
  EXPECT_EQ(eof->packet, nullptr);
  EXPECT_EQ(eof->batch, nullptr);
}

TEST(SplitFrames, EveryFrameArrivesWholeAndInOrder) {
  const std::vector<Bytes> frames = channel_frames();
  const Bytes stream = framed(frames);
  // Writes that end right after each length prefix: [p0] [b0 p1] [b1 p2] [b2].
  std::vector<std::size_t> after_prefixes;
  std::size_t at = 0;
  for (const Bytes& frame : frames) {
    after_prefixes.push_back(at + 4);
    at += 4 + frame.size();
  }
  after_prefixes.push_back(stream.size());
  for (const pumps::Kind kind : pumps::kAll) {
    for (const bool bytewise : {true, false}) {
      SCOPED_TRACE(std::string(pumps::name(kind)) +
                   (bytewise ? ": a byte per write" : ": each body with the next prefix"));
      auto [reader_fd, writer_fd] = make_socketpair();
      auto inbox = std::make_shared<Inbox>(64);
      const std::jthread writer =
          bytewise ? peer(std::move(writer_fd), stream, {stream.size()}, 1)
                   : peer(std::move(writer_fd), stream, after_prefixes, stream.size());
      const auto pump = pumps::make(kind);
      pump->open(std::move(reader_fd),
                 {.inbox = inbox, .origin = Origin::kChild, .slot = 3}, nullptr);
      pump->start();
      for (std::size_t i = 0; i < frames.size(); ++i) expect_frame(*inbox, i);
      expect_eof_alone(*inbox);
      pump->stop();
      EXPECT_EQ(inbox->size(), 0u);
    }
  }
}

TEST(SplitFrames, PeerClosingInsideAFrameYieldsEofAndNoPartialFrame) {
  const std::vector<Bytes> frames = channel_frames();
  const Bytes stream = framed(frames);
  const std::size_t whole = 8 + frames[0].size() + frames[1].size();
  // Inside the bulk frame's length prefix, and halfway through its body.
  for (const std::size_t cut : {std::size_t{2}, 4 + frames[2].size() / 2}) {
    for (const pumps::Kind kind : pumps::kAll) {
      SCOPED_TRACE(std::string(pumps::name(kind)) + ": closing after " +
                   std::to_string(cut) + " bytes of the last frame");
      auto [reader_fd, writer_fd] = make_socketpair();
      auto inbox = std::make_shared<Inbox>(64);
      const std::jthread writer =
          peer(std::move(writer_fd), stream, {whole + cut}, stream.size());
      const auto pump = pumps::make(kind);
      pump->open(std::move(reader_fd),
                 {.inbox = inbox, .origin = Origin::kChild, .slot = 3}, nullptr);
      pump->start();
      expect_frame(*inbox, 0);
      expect_frame(*inbox, 1);
      expect_eof_alone(*inbox);
      pump->stop();
      EXPECT_EQ(inbox->size(), 0u);
    }
  }
}

// ---- TCP_NODELAY ------------------------------------------------------------

int nodelay_of(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(TcpNoDelay, SetOnBothEndsOfEveryDataSocket) {
  // Small coalesced frames must not sit in Nagle buffers: batching controls
  // latency explicitly, so the kernel must not add its own.
  TcpListener listener;
  Fd client = tcp_connect(listener.port());
  Fd server = listener.accept();
  EXPECT_GT(nodelay_of(client.get()), 0);
  EXPECT_GT(nodelay_of(server.get()), 0);

  // The timeout-accept path (bootstrap/handshake accepts) pins it too.
  Fd client2 = tcp_connect(listener.port());
  Fd server2 = listener.accept_for(5000);
  ASSERT_TRUE(server2.valid());
  EXPECT_GT(nodelay_of(client2.get()), 0);
  EXPECT_GT(nodelay_of(server2.get()), 0);
}

}  // namespace
}  // namespace tbon
