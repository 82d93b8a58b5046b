// Credit-based flow control (src/core/flow_control.hpp).
//
// Three layers of coverage:
//  - deterministic link-level property tests of the three policies against a
//    recording inner link (block bounds in-flight to the window, drop_oldest
//    preserves newest-k FIFO order, fail_fast surfaces FlowControlError at
//    application sites and sheds at interior ones),
//  - which policies wake the sending runtime on a grant, and
//  - end-to-end backpressure over every instantiation, with slow consumers
//    induced by the fault injector and the bounds asserted through the
//    telemetry gauges (fc_inflight_peak et al.) — including across an
//    interior kill with orphan re-adoption (credits re-baseline, no
//    deadlock).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/flow_control.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "modes.hpp"
#include "telemetry/metrics.hpp"
#include "transport/fd.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

PacketPtr data_packet(std::int64_t seq) {
  return Packet::make(1, kTag, 0, "i64", {seq});
}

/// Inner link test double: records everything the wrapper lets through.
class RecordingLink final : public Link {
 public:
  bool send(const PacketPtr& packet) override {
    sent.push_back(packet);
    return true;
  }
  void close() override { closed = true; }

  std::vector<PacketPtr> sent;
  bool closed = false;
};

FlowControlOptions make_options(FlowControlPolicy policy, std::uint32_t capacity,
                                int block_timeout_ms = 50) {
  FlowControlOptions fc;
  fc.enabled = true;
  fc.capacity = capacity;
  fc.policy = policy;
  fc.block_timeout_ms = block_timeout_ms;
  return fc;
}

// ---- options arithmetic -----------------------------------------------------

TEST(FlowControlOptions, WindowAndQuantumDeriveFromWatermarks) {
  FlowControlOptions fc;
  fc.capacity = 8;
  EXPECT_EQ(fc.window(), 8u);
  EXPECT_EQ(fc.effective_low(), 4u);
  EXPECT_EQ(fc.grant_quantum(), 4u);

  fc.capacity = 6;
  fc.low_watermark = 2;
  EXPECT_EQ(fc.window(), 6u);
  EXPECT_EQ(fc.grant_quantum(), 4u);

  // Degenerate configurations clamp instead of dividing by zero or wedging.
  FlowControlOptions zero;
  zero.capacity = 0;
  EXPECT_EQ(zero.window(), 1u);
  EXPECT_GE(zero.grant_quantum(), 1u);
  EXPECT_EQ(CreditGate(0).window(), 1u);  // gate applies the same clamp
}

// ---- grant wake-ups ---------------------------------------------------------
//
// A grant on a sending runtime's gate wakes that runtime (an attach marker
// in its inbox) only under drop_oldest, the one policy that keeps pending
// rings for the wake-up to pump.

TEST(GrantWakeups, OnlyDropOldestWakesTheSendingRuntime) {
  const Topology topology = Topology::balanced(2, 1);
  for (const FlowControlPolicy policy :
       {FlowControlPolicy::kBlock, FlowControlPolicy::kFailFast,
        FlowControlPolicy::kDropOldest}) {
    SCOPED_TRACE(to_string(policy));
    NodeRuntime sender(topology, topology.leaves()[0], FilterRegistry::instance(),
                       /*delegate=*/nullptr);
    const ChannelFactory factory(make_options(policy, 4), BatchingOptions::off());
    const auto [socket, peer] = make_socketpair();
    const auto gate = factory.socket_gate(socket.get(), sender);
    ASSERT_NE(gate, nullptr);
    ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);
    ASSERT_EQ(sender.inbox()->size(), 0u);
    gate->grant(1);
    EXPECT_EQ(gate->available(), 4u);
    if (policy != FlowControlPolicy::kDropOldest) {
      EXPECT_EQ(sender.inbox()->size(), 0u);
      continue;
    }
    ASSERT_EQ(sender.inbox()->size(), 1u);
    const auto marker = sender.inbox()->try_pop();
    ASSERT_TRUE(marker.has_value());
    ASSERT_NE(marker->packet, nullptr);
    EXPECT_EQ(marker->packet->stream_id(), kControlStream);
    EXPECT_EQ(marker->packet->tag(), kTagAttachChild);
  }
}

// ---- CreditGate -------------------------------------------------------------

TEST(CreditGate, GrantClampsToWindowAndResetRebaselines) {
  CreditGate gate(4);
  EXPECT_EQ(gate.available(), 4u);
  gate.grant(100);  // over-grant (stale duplicate) must not mint credits
  EXPECT_EQ(gate.available(), 4u);

  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.in_flight(), 3u);
  gate.grant(1000);
  EXPECT_EQ(gate.available(), 4u);

  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  gate.reset();  // re-adoption: in-flight packets died with the old edge
  EXPECT_EQ(gate.available(), 4u);
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_EQ(gate.in_flight_peak(), 3u);  // peak survives the re-baseline
}

TEST(CreditGate, ExhaustionTimeoutAndClose) {
  CreditGate gate(1);
  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(), CreditGate::Acquire::kExhausted);
  EXPECT_EQ(gate.acquire_for(2'000'000), CreditGate::Acquire::kExhausted);

  // close() must wake a blocked acquirer promptly with kClosed.
  std::atomic<bool> woke{false};
  std::jthread waiter([&] {
    EXPECT_EQ(gate.acquire_for(30'000'000'000), CreditGate::Acquire::kClosed);
    woke = true;
  });
  std::this_thread::sleep_for(20ms);
  gate.close();
  waiter.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(gate.try_acquire(), CreditGate::Acquire::kClosed);
}

TEST(CreditGate, GrantWakesBlockedAcquirerAndRunsDrainHook) {
  CreditGate gate(1);
  std::atomic<int> hook_runs{0};
  gate.set_drain_hook([&] { ++hook_runs; });
  ASSERT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);

  std::jthread granter([&] {
    std::this_thread::sleep_for(20ms);
    gate.grant(1);
  });
  EXPECT_EQ(gate.acquire_for(30'000'000'000), CreditGate::Acquire::kOk);
  granter.join();
  EXPECT_EQ(hook_runs.load(), 1);
}

// ---- FlowControlledLink: policy semantics -----------------------------------

TEST(FlowControlLink, BlockBoundsInFlightToTheWindowAndShedsOnTimeout) {
  const FlowControlOptions fc =
      make_options(FlowControlPolicy::kBlock, 4, /*block_timeout_ms=*/20);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  MetricsRegistry metrics;
  FlowControlledLink link(inner, gate, fc, &metrics, /*fail_fast_throws=*/false);

  for (std::int64_t i = 0; i < 4; ++i) EXPECT_TRUE(link.send(data_packet(i)));
  EXPECT_EQ(inner->sent.size(), 4u);
  EXPECT_EQ(gate->available(), 0u);

  // The 5th send waits the full timeout, then sheds for liveness.
  EXPECT_TRUE(link.send(data_packet(4)));
  EXPECT_EQ(inner->sent.size(), 4u);
  EXPECT_EQ(metrics.fc_sends_blocked.load(), 1u);
  EXPECT_EQ(metrics.fc_packets_shed.load(), 1u);
  EXPECT_GE(metrics.fc_blocked_ns.load(), 10'000'000u);
  EXPECT_EQ(metrics.fc_inflight_peak.load(), 4u);

  gate->grant(2);
  EXPECT_TRUE(link.send(data_packet(5)));
  EXPECT_EQ(inner->sent.size(), 5u);
  EXPECT_EQ(metrics.fc_credits_consumed.load(), 5u);
}

TEST(FlowControlLink, BlockedSenderWakesWhenCreditsArrive) {
  const FlowControlOptions fc =
      make_options(FlowControlPolicy::kBlock, 2, /*block_timeout_ms=*/30'000);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  MetricsRegistry metrics;
  FlowControlledLink link(inner, gate, fc, &metrics, false);

  EXPECT_TRUE(link.send(data_packet(0)));
  EXPECT_TRUE(link.send(data_packet(1)));
  std::jthread granter([&] {
    std::this_thread::sleep_for(30ms);
    gate->grant(1);
  });
  EXPECT_TRUE(link.send(data_packet(2)));  // blocks ~30ms, then delivers
  EXPECT_EQ(inner->sent.size(), 3u);
  EXPECT_EQ(metrics.fc_packets_shed.load(), 0u);
}

TEST(FlowControlLink, ControlAndTelemetryBypassTheGate) {
  const FlowControlOptions fc = make_options(FlowControlPolicy::kBlock, 1, 10);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  FlowControlledLink link(inner, gate, fc, nullptr, false);

  EXPECT_TRUE(link.send(data_packet(0)));  // the single credit is gone
  EXPECT_EQ(gate->available(), 0u);

  // Shutdown, heartbeats, credit grants, telemetry: all must pass instantly.
  EXPECT_TRUE(link.send(make_shutdown_packet()));
  EXPECT_TRUE(link.send(make_credit_packet(3)));
  EXPECT_TRUE(link.send(
      Packet::make(kTelemetryStream, kTagTelemetry, 0, "bytes", {BufferView()})));
  EXPECT_TRUE(link.send(nullptr));  // EOF marker
  EXPECT_EQ(inner->sent.size(), 5u);
  EXPECT_EQ(gate->available(), 0u);  // none of them consumed a credit
}

TEST(FlowControlLink, DropOldestPreservesNewestKInFifoOrder) {
  constexpr std::uint32_t kWindow = 4;
  constexpr std::int64_t kSent = 40;
  const FlowControlOptions fc = make_options(FlowControlPolicy::kDropOldest, kWindow);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  MetricsRegistry metrics;
  FlowControlledLink link(inner, gate, fc, &metrics, false);

  // With no grants at all: window-many go straight out, the bounded ring
  // keeps the newest window-many, everything in between is shed.
  for (std::int64_t i = 0; i < kSent; ++i) EXPECT_TRUE(link.send(data_packet(i)));
  EXPECT_EQ(inner->sent.size(), kWindow);
  EXPECT_EQ(metrics.fc_packets_shed.load(), kSent - 2 * kWindow);
  EXPECT_EQ(metrics.fc_pending_depth.load(), kWindow);

  // Credits arrive one by one; the pump drains the ring oldest-first.
  while (inner->sent.size() < 2 * kWindow) {
    gate->grant(1);
    link.pump();
  }
  EXPECT_EQ(metrics.fc_pending_depth.load(), 0u);

  // Delivered = the first window burst plus the newest window-many, and the
  // receiver observes a strictly increasing subsequence of the send order.
  ASSERT_EQ(inner->sent.size(), 2 * kWindow);
  for (std::size_t i = 0; i < inner->sent.size(); ++i) {
    const std::int64_t expect =
        i < kWindow ? static_cast<std::int64_t>(i)
                    : kSent - 2 * kWindow + static_cast<std::int64_t>(i);
    EXPECT_EQ(inner->sent[i]->get_i64(0), expect) << "position " << i;
  }
}

TEST(FlowControlLink, CloseShedsTheRingAndAccountsForIt) {
  const FlowControlOptions fc = make_options(FlowControlPolicy::kDropOldest, 2);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  MetricsRegistry metrics;
  FlowControlledLink link(inner, gate, fc, &metrics, false);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_TRUE(link.send(data_packet(i)));
  ASSERT_EQ(inner->sent.size(), 2u);  // 2 queued, 0 shed so far
  link.close();
  EXPECT_TRUE(inner->closed);
  EXPECT_EQ(metrics.fc_packets_shed.load(), 2u);
  EXPECT_EQ(metrics.fc_pending_depth.load(), 0u);
  // delivered + shed == sent: nothing vanishes unaccounted.
  EXPECT_EQ(inner->sent.size() + metrics.fc_packets_shed.load(), 4u);
}

TEST(FlowControlLink, FailFastThrowsAtAppSitesAndShedsAtInteriorOnes) {
  const FlowControlOptions fc = make_options(FlowControlPolicy::kFailFast, 2);
  auto inner = std::make_shared<RecordingLink>();
  auto gate = std::make_shared<CreditGate>(fc.window());
  MetricsRegistry metrics;

  // Application-facing wrapper (a back-end's up link): status surfaces.
  FlowControlledLink app_link(inner, gate, fc, &metrics, /*fail_fast_throws=*/true);
  EXPECT_TRUE(app_link.send(data_packet(0)));
  EXPECT_TRUE(app_link.send(data_packet(1)));
  EXPECT_THROW(app_link.send(data_packet(2)), FlowControlError);
  EXPECT_EQ(metrics.fc_packets_shed.load(), 0u);  // the caller kept the packet
  gate->grant(1);
  EXPECT_TRUE(app_link.send(data_packet(2)));  // recovers once credits return

  // Interior wrapper: an event loop cannot unwind, so it sheds and counts.
  auto inner2 = std::make_shared<RecordingLink>();
  auto gate2 = std::make_shared<CreditGate>(1);
  FlowControlledLink interior(inner2, gate2, fc, &metrics, false);
  EXPECT_TRUE(interior.send(data_packet(0)));
  EXPECT_TRUE(interior.send(data_packet(1)));  // no credit: shed, not thrown
  EXPECT_EQ(inner2->sent.size(), 1u);
  EXPECT_EQ(metrics.fc_packets_shed.load(), 1u);
}

// ---- end-to-end, every instantiation ---------------------------------------

class FlowControlModes : public modes::Test {};

// Interior nodes are slowed 10x+ by the fault injector (each send sleeps,
// stalling their event loops), so the leaves outrun the tree.  block policy
// must bound every channel's in-flight peak at the capacity — asserted
// through the telemetry gauges, which in the forked modes come back over
// the wire with the credit windows cycled by in-band kTagCredit frames —
// while delivering every wave.
TEST_P(FlowControlModes, BlockBoundsPeakPerChannelAndDeliversAll) {
  constexpr int kWaves = 40;
  constexpr std::uint32_t kCapacity = 4;
  RecoveryOptions recovery;
  recovery.fault_plan.delay(1, 500'000).delay(2, 500'000);  // 0.5 ms per send
  auto net = create({.topology = Topology::balanced(2, 2),
                     .recovery = recovery,
                     .telemetry = {.enabled = true, .interval_ms = 25},
                     .flow_control = {.enabled = true,
                                      .capacity = kCapacity,
                                      .policy = FlowControlPolicy::kBlock,
                                      .block_timeout_ms = 30'000},
                     .backend_main = [](BackEnd& be) {
                       if (!be.recv_for(30s).ok()) return;  // the go broadcast
                       for (int wave = 0; wave < kWaves; ++wave) {
                         be.send(1, kTag, "i64", {std::int64_t{1}});
                       }
                     }});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  stream.send(kTag, "str", {std::string("go")});
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = stream.recv_for(30s);
    ASSERT_TRUE(result.has_value()) << "wave " << wave;
    EXPECT_EQ((*result)->get_i64(0), 4);
  }
  net->shutdown();

  const TreeMetricsSnapshot snap = net->front_end().metrics();
  EXPECT_EQ(snap.nodes_reporting, 7u);
  for (const NodeTelemetry& record : snap.nodes) {
    EXPECT_LE(record.fc_inflight_peak, kCapacity) << "node " << record.node;
    EXPECT_EQ(record.fc_invalid_grants, 0u) << "node " << record.node;
  }
  // Leaves sent 4x40 packets over capacity-4 channels: credits must have
  // cycled, senders must have actually blocked, and nothing was dropped.
  EXPECT_GT(snap.total.fc_credits_consumed, 0u);
  EXPECT_GT(snap.total.fc_credits_granted, 0u);
  EXPECT_GT(snap.total.fc_sends_blocked, 0u);
  EXPECT_EQ(snap.total.fc_packets_shed, 0u);
}

TEST_P(FlowControlModes, FailFastSurfacesToTheSendingBackend) {
  RecoveryOptions recovery;
  recovery.fault_plan.delay(1, 2'000'000).delay(2, 2'000'000);  // 2 ms per send
  auto net = create(
      {.topology = Topology::balanced(2, 2),
       .recovery = recovery,
       .flow_control = {.enabled = true,
                        .capacity = 4,
                        .policy = FlowControlPolicy::kFailFast},
       .backend_main = [](BackEnd& be) {
         if (!be.recv_for(30s).ok()) return;
         // The interiors sleep 2 ms per aggregated send while each leaf
         // bursts at full speed: the 4-credit window must run dry and
         // surface.
         std::int64_t threw = 0;
         for (int i = 0; i < 2000 && !threw; ++i) {
           try {
             be.send(1, kTag, "i64", {std::int64_t{0}});
           } catch (const FlowControlError&) {
             threw = 1;
           }
         }
         // Report on a separate stream; credits return as the tree drains,
         // so retry rather than give up (the report itself is data).
         for (;;) {
           try {
             be.send(2, kTag, "i64", {threw});
             return;
           } catch (const FlowControlError&) {
             std::this_thread::sleep_for(1ms);
           }
         }
       }});
  Stream& burst = net->front_end().open_stream({.up_sync = "null"});
  Stream& report = net->front_end().open_stream({.up_transform = "sum"});
  ASSERT_EQ(burst.id(), 1u);
  ASSERT_EQ(report.id(), 2u);
  burst.send(kTag, "str", {std::string("go")});

  const auto verdict = report.recv_for(60s);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_GE((*verdict)->get_i64(0), 1);  // at least one back-end saw the error
  while (burst.recv_for(std::chrono::milliseconds(0))) {
  }
  net->shutdown();  // and the half-sent streams must not wedge teardown
}

TBON_INSTANTIATE_MODES(FlowControlModes);

// ---- end-to-end: threaded instantiation -------------------------------------
//
// These read live runtime gauges or drive back-end handles from the test
// thread, which only the threaded instantiation allows.

TEST(FlowControlThreaded, DropOldestConservesPacketsAndKeepsFifoOrder) {
  constexpr std::int64_t kSent = 300;
  auto net = Network::create(
      {.topology = Topology::flat(1),
       .flow_control = {.enabled = true,
                        .capacity = 4,
                        .policy = FlowControlPolicy::kDropOldest},
       .backend_main = [](BackEnd& be) {
         for (std::int64_t i = 0; i < kSent; ++i) be.send(1, kTag, "i64", {i});
       }});
  Stream& stream = net->front_end().open_stream({});  // passthrough

  // Drain until conservation holds: every packet was either delivered or
  // counted shed.  The received ids must be a strictly increasing
  // subsequence ending at the newest packet (which is never evicted).
  std::vector<std::int64_t> received;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  auto shed_total = [&] {
    return net->node_metrics(0).fc_packets_shed +
           net->node_metrics(1).fc_packets_shed;
  };
  while (std::chrono::steady_clock::now() < deadline) {
    if (const auto result = stream.recv_for(std::chrono::milliseconds(0))) {
      received.push_back((*result)->get_i64(0));
    } else if (received.size() + shed_total() ==
               static_cast<std::uint64_t>(kSent)) {
      break;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_EQ(received.size() + shed_total(), static_cast<std::uint64_t>(kSent));
  ASSERT_FALSE(received.empty());
  for (std::size_t i = 1; i < received.size(); ++i) {
    ASSERT_LT(received[i - 1], received[i]) << "order violated at " << i;
  }
  EXPECT_EQ(received.back(), kSent - 1);
  net->shutdown();
}

// Credits are re-baselined when orphans re-adopt: an interior node is killed
// mid-traffic under block policy, its children re-attach to the root with
// fresh windows, and traffic keeps flowing with no deadlock and no invalid
// grants.  (Acceptance: no deadlock under concurrent orphan re-adoption.)
TEST(FlowControlThreaded, ReadoptionRebaselinesCreditsWithoutDeadlock) {
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  // Node 1's data packets: the go broadcast (1), one wave-1 packet from each
  // of its two leaves (2), then rank 0's solo trigger is its 4th.
  recovery.fault_plan.kill(1, 4);
  auto net = Network::create(
      {.topology = Topology::balanced(2, 2),
       .recovery = recovery,
       .flow_control = {.enabled = true,
                        .capacity = 4,
                        .policy = FlowControlPolicy::kBlock,
                        .block_timeout_ms = 30'000},
       .backend_main = [](BackEnd& be) {
         if (!be.recv_for(30s).ok()) return;
         be.send(1, kTag, "i64", {std::int64_t{1}});
       }});
  Stream& stream = net->front_end().open_stream({.up_sync = "null"});
  stream.send(kTag, "str", {std::string("go")});
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(stream.recv_for(30s).has_value());

  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{1}});  // the kill
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));

  // Orphans got fresh full windows: every survivor can push a whole new
  // burst through its re-based channel without wedging.
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 8; ++i) {
      net->backend(rank).send(stream.id(), kTag, "i64", {std::int64_t{1}});
    }
  }
  int delivered = 0;
  while (stream.recv_for(2s).has_value()) {
    if (++delivered == 32) break;
  }
  EXPECT_EQ(delivered, 32);
  net->shutdown();

  for (NodeId id = 0; id < 7; ++id) {
    const NodeMetricsSnapshot m = net->node_metrics(id);
    EXPECT_LE(m.fc_inflight_peak, 4u) << "node " << id;
    EXPECT_EQ(m.fc_invalid_grants, 0u) << "node " << id;
  }
}

}  // namespace
}  // namespace tbon
