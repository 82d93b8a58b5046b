// Multi-tenant topic streams: the StreamSpec builder, prefix pub/sub with
// subtree pruning, weighted priority drain, per-tenant QoS budgets, and
// subscription routing across kill/re-adoption — in every instantiation.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <string>

#include "core/executor.hpp"
#include "core/flow_control.hpp"
#include "core/network.hpp"
#include "core/protocol.hpp"
#include "core/tenant.hpp"
#include "modes.hpp"

namespace tbon {
namespace {

using namespace std::chrono_literals;

constexpr std::int32_t kTag = kFirstAppTag;

// ---- StreamSpec builder / wire form -----------------------------------------

TEST(TenantUnit, StreamSpecBuilderRoundTripsOnTheWire) {
  const StreamSpec spec = StreamSpec::topic("/app/metrics")
                              .priority(Priority::kBulk)
                              .tenant("acme")
                              .up("sum")
                              .sync("time_out")
                              .down("passthrough")
                              .to({1, 3})
                              .with_params(FilterParams().set("window_ms", 20));
  const PacketPtr packet = spec.to_packet();
  const StreamSpec back = StreamSpec::from_packet(*packet);
  EXPECT_EQ(back.topic_path, "/app/metrics");
  EXPECT_EQ(back.priority_class, Priority::kBulk);
  EXPECT_EQ(back.tenant_name, "acme");
  EXPECT_EQ(back.up_transform, "sum");
  EXPECT_EQ(back.up_sync, "time_out");
  EXPECT_EQ(back.endpoints, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(back.parsed_params().get_int("window_ms"), 20);
}

TEST(TenantUnit, BuilderRefusesTheControlClass) {
  // kControl is reserved for the runtime; the builder quietly gives the
  // strongest application class instead.
  EXPECT_EQ(StreamSpec().priority(Priority::kControl).priority_class,
            Priority::kHigh);
  EXPECT_EQ(TenantOptions().priority_ceiling(Priority::kControl).priority_ceiling(),
            Priority::kHigh);
}

TEST(TenantUnit, TopicMatchesIsPlainPrefix) {
  EXPECT_TRUE(topic_matches("/app", "/app/metrics"));
  EXPECT_TRUE(topic_matches("/app/metrics", "/app/metrics"));
  EXPECT_TRUE(topic_matches("", "/anything"));
  EXPECT_FALSE(topic_matches("/app/metrics/cpu", "/app/metrics"));
  EXPECT_FALSE(topic_matches("/logs", "/app/metrics"));
}

// ---- TenantTable ------------------------------------------------------------

TEST(TenantUnit, TenantTableClassifiesAndRollsUp) {
  TenantTable table;
  table.register_stream(7, Priority::kBulk, "noisy",
                        TenantOptions().credit_share(0.5));
  table.register_stream(8, Priority::kHigh, "", TenantOptions());

  EXPECT_EQ(table.priority_of(7), Priority::kBulk);
  EXPECT_EQ(table.priority_of(8), Priority::kHigh);
  EXPECT_EQ(table.priority_of(kControlStream), Priority::kControl);
  EXPECT_EQ(table.priority_of(kTelemetryStream), Priority::kControl);
  EXPECT_EQ(table.priority_of(999), Priority::kNormal);  // unknown stream

  const auto cls = table.classify(7);
  EXPECT_NE(cls.tenant, TenantTable::kNoTenant);
  EXPECT_EQ(table.classify(8).tenant, TenantTable::kNoTenant);
  EXPECT_DOUBLE_EQ(table.budget(cls.tenant).credit_share(), 0.5);

  table.note_send(cls.tenant, 100);
  table.note_send(cls.tenant, 50);
  table.note_throttled(cls.tenant);
  table.note_shed(cls.tenant, 3);
  const auto rollup = table.snapshot();
  ASSERT_EQ(rollup.size(), 1u);
  EXPECT_EQ(rollup[0].name, "noisy");
  EXPECT_EQ(rollup[0].packets, 2u);
  EXPECT_EQ(rollup[0].bytes, 150u);
  EXPECT_EQ(rollup[0].sends_throttled, 1u);
  EXPECT_EQ(rollup[0].packets_shed, 3u);

  // Adoption replay: a re-announcement keeps the tenant slot.
  table.register_stream(7, Priority::kBulk, "noisy", TenantOptions());
  EXPECT_EQ(table.classify(7).tenant, cls.tenant);

  table.forget_stream(7);
  EXPECT_EQ(table.priority_of(7), Priority::kNormal);
  EXPECT_EQ(table.snapshot().size(), 1u);  // counters outlive the stream
}

// ---- CreditGate tenant budgets ----------------------------------------------

TEST(TenantUnit, CreditGateEnforcesTenantCreditShare) {
  CreditGate gate(8);
  CreditGate::Request request;
  request.tenant = 0;
  request.max_credits = 2;  // 0.25 share of the window
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kThrottled);
  // The channel itself still has credits for everyone else.
  EXPECT_EQ(gate.try_acquire(), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.available(), 5u);
  // Grants return in send order: the tenant's holds come back first and
  // re-open its budget.
  gate.grant(2);
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kOk);
}

TEST(TenantUnit, CreditGateEnforcesTenantByteCapButAdmitsOne) {
  CreditGate gate(8);
  CreditGate::Request request;
  request.tenant = 0;
  request.bytes = 1000;
  request.max_bytes = 1500;
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(request), CreditGate::Acquire::kThrottled);
  gate.grant(1);
  // A cap below one packet still admits a packet when nothing is in flight.
  CreditGate::Request huge = request;
  huge.bytes = 10'000;
  EXPECT_EQ(gate.try_acquire(huge), CreditGate::Acquire::kOk);
}

TEST(TenantUnit, CreditGateBulkLeavesHeadroomForHigherClasses) {
  CreditGate gate(8);  // bulk cap: 8 - 8/4 = 6
  CreditGate::Request bulk;
  bulk.priority = Priority::kBulk;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(gate.try_acquire(bulk), CreditGate::Acquire::kOk) << i;
  }
  EXPECT_EQ(gate.try_acquire(bulk), CreditGate::Acquire::kThrottled);
  // The reserved quarter is still there for high-priority traffic.
  CreditGate::Request high;
  high.priority = Priority::kHigh;
  EXPECT_EQ(gate.try_acquire(high), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(high), CreditGate::Acquire::kOk);
  EXPECT_EQ(gate.try_acquire(high), CreditGate::Acquire::kExhausted);
}

// ---- Executor weighted drain ------------------------------------------------

/// One worker, one stream per class, every task queued while the worker is
/// parked on a control-class gate: the drain order is fully deterministic.
/// Control preempts; high/normal/bulk then share 4:2:1 until a class runs
/// dry and forfeits its turn.
TEST(TenantExecutor, WeightedDrainServesFourTwoOne) {
  MetricsRegistry metrics;
  FilterExecutor exec({.num_workers = 1}, &metrics);
  exec.add_stream(1, Priority::kControl);
  exec.add_stream(2, Priority::kHigh);
  exec.add_stream(3, Priority::kNormal);
  exec.add_stream(4, Priority::kBulk);

  std::mutex order_mutex;
  std::string order;
  const auto mark = [&](char c) {
    return [&order, &order_mutex, c] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(c);
    };
  };

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  exec.post(1, [&order, &order_mutex, gate] {
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back('C');
    }
    gate.wait();
  });
  for (int i = 0; i < 8; ++i) exec.post(2, mark('H'));
  for (int i = 0; i < 8; ++i) exec.post(3, mark('N'));
  for (int i = 0; i < 8; ++i) exec.post(4, mark('B'));
  release.set_value();
  exec.drain();

  EXPECT_EQ(order, "CHHHHNNBHHHHNNBNNBNNBBBBB");
  EXPECT_EQ(metrics.prio_drained_control.load(), 1u);
  EXPECT_EQ(metrics.prio_drained_high.load(), 8u);
  EXPECT_EQ(metrics.prio_drained_normal.load(), 8u);
  EXPECT_EQ(metrics.prio_drained_bulk.load(), 8u);
}

// ---- Threaded end-to-end ----------------------------------------------------

/// Poll FrontEnd::metrics() until `done` accepts a snapshot or the deadline
/// passes; returns the last snapshot either way.
template <typename Pred>
TreeMetricsSnapshot await_metrics(FrontEnd& fe, Pred done,
                                  std::chrono::seconds budget = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  TreeMetricsSnapshot snap = fe.metrics();
  while (!done(snap) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
    snap = fe.metrics();
  }
  return snap;
}

TEST(TenantThreaded, PublishReusesTheTopicStreamAndUnsubscribeStops) {
  // Threaded: the test thread subscribes, receives and unsubscribes through
  // net->backend(0) between its own publishes.
  auto net = Network::create({.topology = Topology::flat(2)});
  FrontEnd& fe = net->front_end();

  net->backend(0).subscribe("/t");
  ASSERT_TRUE(fe.wait_subscribers("/t", 1, 10s));

  Stream& first = fe.publish("/t", kTag, "i64", {std::int64_t{1}});
  Stream& second = fe.publish("/t", kTag, "i64", {std::int64_t{2}});
  EXPECT_EQ(&first, &second) << "same topic must reuse the stream";
  for (const std::int64_t expected : {1, 2}) {
    const auto packet = net->backend(0).recv_for(10s);
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ((*packet)->get_i64(0), expected);
  }

  net->backend(0).unsubscribe("/t");
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (fe.subscriber_count("/t") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(fe.subscriber_count("/t"), 0u);

  fe.publish("/t", kTag, "i64", {std::int64_t{3}});
  EXPECT_EQ(net->backend(0).recv_for(300ms).status(), RecvStatus::kTimeout);
  net->shutdown();
}

TEST(TenantThreaded, PriorityCeilingClampsAndDrainCountersFlowTreeWide) {
  auto net = Network::create(
      {.topology = Topology::balanced(2, 2),
       .telemetry = {.enabled = true, .interval_ms = 25},
       .flow_control = {.enabled = true, .capacity = 64},
       .execution = {.num_workers = 2},
       .tenancy = TenancyOptions().tenant(
           "acme", TenantOptions().priority_ceiling(Priority::kNormal)),
       .backend_main = [](BackEnd& be) {
         for (std::uint32_t stream = 1; stream <= 3; ++stream) {
           be.send(stream, kTag, "i64", {std::int64_t{1}});
         }
       }});
  FrontEnd& fe = net->front_end();

  Stream& high = fe.open_stream(
      StreamSpec::topic("/svc/high").priority(Priority::kHigh).up("sum"));
  EXPECT_EQ(high.spec().priority_class, Priority::kHigh);
  Stream& capped = fe.open_stream(StreamSpec::topic("/svc/capped")
                                      .priority(Priority::kHigh)
                                      .tenant("acme")
                                      .up("sum"));
  EXPECT_EQ(capped.spec().priority_class, Priority::kNormal)
      << "tenant ceiling must clamp the requested class";
  Stream& bulk = fe.open_stream(StreamSpec().priority(Priority::kBulk).up("sum"));
  for (Stream* s : {&high, &capped, &bulk}) {
    const auto result = s->recv_for(10s);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ((*result)->get_i64(0), 4);
  }

  // Every class drained through the executor, and the tenant's traffic is
  // rolled up tree-wide under its name.
  const auto snap = await_metrics(fe, [](const TreeMetricsSnapshot& s) {
    if (s.total.prio_drained_high == 0 || s.total.prio_drained_normal == 0 ||
        s.total.prio_drained_bulk == 0) {
      return false;
    }
    for (const TenantTelemetry& t : s.total.tenants) {
      if (t.name == "acme" && t.packets > 0) return true;
    }
    return false;
  });
  EXPECT_GT(snap.total.prio_drained_high, 0u);
  EXPECT_GT(snap.total.prio_drained_normal, 0u);
  EXPECT_GT(snap.total.prio_drained_bulk, 0u);
  ASSERT_FALSE(snap.total.tenants.empty());
  bool saw_acme = false;
  for (const TenantTelemetry& t : snap.total.tenants) {
    if (t.name != "acme") continue;
    saw_acme = true;
    EXPECT_GT(t.packets, 0u);
    EXPECT_GT(t.bytes, 0u);
  }
  EXPECT_TRUE(saw_acme);
  net->shutdown();
}

/// Isolation: a bulk tenant confined to a quarter of the credit window may
/// flood, but a high-priority tenant's waves still complete, and the flood
/// shows up as sends_throttled in the noisy tenant's telemetry row.
TEST(TenantThreaded, NoisyBulkTenantCannotStarveHighTenant) {
  constexpr int kWaves = 5;
  constexpr int kFloodPerWave = 10;
  auto net = Network::create(
      {.topology = Topology::balanced(2, 2),
       .telemetry = {.enabled = true, .interval_ms = 25},
       .flow_control = {.enabled = true, .capacity = 8},
       .tenancy =
           TenancyOptions()
               .tenant("noisy", TenantOptions()
                                    .credit_share(0.25)
                                    .priority_ceiling(Priority::kBulk))
               .tenant("fast", TenantOptions()),
       .backend_main = [](BackEnd& be) {
         for (int wave = 0; wave < kWaves; ++wave) {
           for (int i = 0; i < kFloodPerWave; ++i) {
             be.send(1, kTag, "i64", {std::int64_t{1}});  // noisy
           }
           be.send(2, kTag, "i64", {std::int64_t{1}});  // fast
         }
       }});
  FrontEnd& fe = net->front_end();
  Stream& noisy = fe.open_stream(
      StreamSpec().up("sum").tenant("noisy").priority(Priority::kBulk));
  Stream& fast = fe.open_stream(
      StreamSpec().up("sum").tenant("fast").priority(Priority::kHigh));

  // The well-behaved tenant's waves all aggregate to full weight.
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto result = fast.recv_for(20s);
    ASSERT_TRUE(result.has_value()) << "fast wave " << wave << " starved";
    EXPECT_EQ((*result)->get_i64(0), 4);
  }
  for (int wave = 0; wave < kWaves * kFloodPerWave; ++wave) {
    ASSERT_TRUE(noisy.recv_for(20s).has_value());
  }

  const auto snap = await_metrics(fe, [](const TreeMetricsSnapshot& s) {
    for (const TenantTelemetry& t : s.total.tenants) {
      if (t.name == "noisy" && t.sends_throttled > 0) return true;
    }
    return false;
  });
  bool throttled = false;
  for (const TenantTelemetry& t : snap.total.tenants) {
    if (t.name == "noisy") throttled = t.sends_throttled > 0;
    if (t.name == "fast") EXPECT_EQ(t.packets_shed, 0u);
  }
  EXPECT_TRUE(throttled) << "the noisy tenant never hit its credit share";
  net->shutdown();
}

// ---- topic routing, every instantiation --------------------------------------
//
// Back-ends report what they received on an untopiced stream.  A fence
// packet broadcast to every back-end after a publish proves the negative for
// non-subscribers without a timeout: channels are FIFO, so a topic packet
// routed to a back-end would reach it before the fence.

class TopicRouting : public modes::Test {};

TEST_P(TopicRouting, PrefixRoutingDeliversOnlyToSubscribers) {
  constexpr std::uint32_t kResults = 1;
  constexpr std::uint32_t kFence = 3;  // opened after the topic stream (2)
  auto net = create({.topology = Topology::balanced(2, 2),  // 4 leaves
                     .telemetry = {.enabled = true, .interval_ms = 25},
                     .backend_main = [](BackEnd& be) {
                       if (be.rank() == 0) be.subscribe("/app/metrics");  // exact
                       if (be.rank() == 2) be.subscribe("/app");  // covering prefix
                       std::int64_t got = 0, evt = 0, stream = 0;
                       for (;;) {
                         const auto packet = be.recv_for(60s);
                         if (!packet || (*packet)->stream_id() == kFence) break;
                         ++got;
                         evt = (*packet)->get_str(0) == "evt";
                         stream = (*packet)->stream_id();
                       }
                       be.send(kResults, kTag, "vi64",
                               {std::vector<std::int64_t>{be.rank(), got, evt, stream}});
                     }});
  FrontEnd& fe = net->front_end();
  Stream& results = fe.open_stream({.up_transform = "concat"});
  ASSERT_EQ(results.id(), kResults);
  ASSERT_TRUE(fe.wait_subscribers("/app/metrics", 2, 30s));
  EXPECT_EQ(fe.subscriber_count("/app/metrics"), 2u);

  Stream& stream = fe.publish("/app/metrics", kTag, "str", {std::string("evt")});
  EXPECT_EQ(stream.topic(), "/app/metrics");
  Stream& fence = fe.open_stream({});
  ASSERT_EQ(fence.id(), kFence);
  fence.send(kTag, "str", {std::string("fence")});

  const auto result = results.recv_for(60s);
  ASSERT_TRUE(result.has_value());
  const auto& rows = (*result)->get_vi64(0);
  ASSERT_EQ(rows.size(), 16u);  // 4 back-ends x (rank, got, evt, stream)
  for (std::size_t i = 0; i < rows.size(); i += 4) {
    const std::int64_t rank = rows[i];
    const bool subscriber = rank == 0 || rank == 2;
    EXPECT_EQ(rows[i + 1], subscriber ? 1 : 0)
        << "rank " << rank << (subscriber ? " missed its topic packet"
                                          : " received a pruned packet");
    if (subscriber) {
      EXPECT_EQ(rows[i + 2], 1) << "rank " << rank;
      EXPECT_EQ(rows[i + 3], std::int64_t{stream.id()}) << "rank " << rank;
    }
  }

  // Each interior forwarded to its subscriber leaf and pruned the other:
  // two pruned sends, visible tree-wide through telemetry.
  const auto snap = await_metrics(
      fe, [](const TreeMetricsSnapshot& s) { return s.total.topic_packets_pruned >= 2; });
  EXPECT_EQ(snap.total.topic_packets_pruned, 2u);
  net->shutdown();
}

TEST_P(TopicRouting, SubscriptionsSurviveKillAndReadoption) {
  constexpr std::uint32_t kAcks = 1;
  const Topology topo = Topology::balanced(2, 2);
  auto net = create({.topology = topo,
                     .recovery = {.auto_readopt = true},
                     .backend_main = [](BackEnd& be) {
                       if (be.rank() % 2 == 0) be.subscribe("/evt");
                       // Ack every packet (topic packets and fences alike)
                       // with (rank, value) until shutdown.
                       while (const auto packet = be.recv()) {
                         be.send(kAcks, kTag, "vi64",
                                 {std::vector<std::int64_t>{std::int64_t{be.rank()},
                                                            (*packet)->get_i64(0)}});
                       }
                     }});
  FrontEnd& fe = net->front_end();
  Stream& acks = fe.open_stream({.up_transform = "concat", .up_sync = "null"});
  ASSERT_EQ(acks.id(), kAcks);
  ASSERT_TRUE(fe.wait_subscribers("/evt", 2, 30s));

  // Publish `seq`, then fence; return the ranks that acked `seq` before all
  // four fence acks were in.
  Stream* fence = nullptr;
  const auto publish_and_collect = [&](std::int64_t seq) {
    fe.publish("/evt", kTag, "i64", {seq});
    if (fence == nullptr) fence = &fe.open_stream({});
    fence->send(kTag, "i64", {std::int64_t{-1}});
    std::set<std::int64_t> ranks, fenced;
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (fenced.size() < 4 && std::chrono::steady_clock::now() < deadline) {
      const auto ack = acks.recv_for(100ms);
      if (!ack.has_value()) continue;
      const auto& pair = (*ack)->get_vi64(0);
      if (pair.size() != 2) continue;
      if (pair[1] == seq) ranks.insert(pair[0]);
      if (pair[1] == -1) fenced.insert(pair[0]);
    }
    EXPECT_EQ(fenced.size(), 4u) << "fence " << seq << " did not reach every back-end";
    return ranks;
  };

  EXPECT_EQ(publish_and_collect(1), (std::set<std::int64_t>{0, 2}));

  // Kill the subscriber's parent: both of its leaves re-adopt (to the root),
  // and the climb-only subscription design means every adopter — always an
  // ancestor — already holds the prefix.  Its re-adopted sibling is not
  // subscribed: pruning must still hold on the post-adoption routes.
  const NodeId victim = topo.node(topo.leaves()[0]).parent;
  ASSERT_FALSE(topo.is_root(victim));
  net->kill_node(victim);
  ASSERT_TRUE(net->wait_for_adoptions(2, 30s));

  EXPECT_EQ(publish_and_collect(2), (std::set<std::int64_t>{0, 2}))
      << "subscriptions lost or pruning broken across re-adoption";
  net->shutdown();
}

TBON_INSTANTIATE_MODES(TopicRouting);

}  // namespace
}  // namespace tbon
