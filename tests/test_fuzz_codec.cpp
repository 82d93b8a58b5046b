// Robustness fuzzing: deserializers must reject arbitrary and truncated
// bytes with CodecError — never crash, hang or allocate absurd amounts.
// A communication process feeding on a network socket must survive any
// byte stream a broken or malicious peer produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "core/coalesce.hpp"
#include "core/flow_control.hpp"
#include "core/network.hpp"
#include "core/packet.hpp"
#include "core/protocol.hpp"
#include "filters/calltree.hpp"
#include "filters/equivalence.hpp"
#include "filters/histogram_filter.hpp"
#include "meanshift/agglomerative.hpp"
#include "meanshift/distributed.hpp"
#include "net/wire.hpp"
#include "socket_pumps.hpp"

namespace tbon {
namespace {

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return bytes;
}

TEST(FuzzCodec, RandomBytesNeverCrashPacketDeserialize) {
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes bytes = random_bytes(rng, 1 + rng.next_below(256));
    BinaryReader reader(bytes);
    try {
      const PacketPtr packet = Packet::deserialize(reader);
      // Occasionally random bytes form a valid packet (e.g. an empty format
      // string); that is fine as long as it is well-formed.
      EXPECT_TRUE(packet->format().matches(packet->values()));
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);  // the vast majority must be rejected
}

TEST(FuzzCodec, TruncationsOfValidPacketAreRejected) {
  const PacketPtr packet = Packet::make(
      7, kFirstAppTag, 3, "i32 vf64 str vstr",
      {std::int32_t{-5}, std::vector<double>{1, 2, 3}, std::string("payload"),
       std::vector<std::string>{"a", "bb"}});
  BinaryWriter writer;
  packet->serialize(writer);
  const Bytes& full = writer.bytes();

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader reader(std::span<const std::byte>(full.data(), cut));
    EXPECT_THROW((void)Packet::deserialize(reader), CodecError) << "cut=" << cut;
  }
  // The full buffer still parses.
  BinaryReader reader(full);
  EXPECT_EQ(Packet::deserialize(reader)->values(), packet->values());
}

TEST(FuzzCodec, BitFlipsNeverCrash) {
  const PacketPtr packet = Packet::make(
      1, kFirstAppTag, 0, "vi64 vstr",
      {std::vector<std::int64_t>{1, 2, 3}, std::vector<std::string>{"x", "y"}});
  BinaryWriter writer;
  packet->serialize(writer);
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = writer.bytes();
    const std::size_t at = rng.next_below(mutated.size());
    mutated[at] ^= static_cast<std::byte>(1u << rng.next_below(8));
    BinaryReader reader(mutated);
    try {
      const PacketPtr out = Packet::deserialize(reader);
      EXPECT_TRUE(out->format().matches(out->values()));
    } catch (const Error&) {
      // rejection is the expected common case
    }
  }
}

TEST(FuzzCodec, StreamSpecFromHostilePacket) {
  // A packet with the right format but nonsense contents must parse into a
  // StreamSpec without crashing (semantic validation happens later).
  const PacketPtr packet = Packet::make(
      kControlStream, kTagNewStream, kFrontEndRank, "i64 vi64 str str str str",
      {std::int64_t{-1}, std::vector<std::int64_t>{-7, 1 << 30}, std::string("\0x", 2),
       std::string(1000, 'y'), std::string(""), std::string("==garbage==")});
  const StreamSpec spec = StreamSpec::from_packet(*packet);
  EXPECT_EQ(spec.up_sync, std::string(1000, 'y'));
}

// Payload-level codecs: wrong shapes must throw, not crash.

TEST(FuzzCodec, EquivalenceClassShapeMismatch) {
  const PacketPtr bad = Packet::make(
      1, kFirstAppTag, 0, EquivalenceClasses::kFormat,
      {std::vector<std::string>{"a", "b"}, std::vector<std::int64_t>{5},
       std::vector<std::int64_t>{}});
  EXPECT_THROW(EquivalenceClasses::from_values(*bad), CodecError);

  const PacketPtr overflow = Packet::make(
      1, kFirstAppTag, 0, EquivalenceClasses::kFormat,
      {std::vector<std::string>{"a"}, std::vector<std::int64_t>{100},
       std::vector<std::int64_t>{1, 2}});
  EXPECT_THROW(EquivalenceClasses::from_values(*overflow), CodecError);
}

TEST(FuzzCodec, CallTreeMalformedPreorder) {
  // Child count claims more nodes than the label list provides.
  const PacketPtr underrun = Packet::make(
      1, kFirstAppTag, 0, CallTree::kFormat,
      {std::vector<std::string>{"<root>", "a"}, std::vector<std::int64_t>{5, 0},
       std::vector<std::int64_t>{0, 0}, std::vector<std::int64_t>{}});
  EXPECT_THROW(CallTree::from_values(*underrun), CodecError);

  const PacketPtr host_overflow = Packet::make(
      1, kFirstAppTag, 0, CallTree::kFormat,
      {std::vector<std::string>{"<root>"}, std::vector<std::int64_t>{0},
       std::vector<std::int64_t>{3}, std::vector<std::int64_t>{1}});
  EXPECT_THROW(CallTree::from_values(*host_overflow), CodecError);
}

TEST(FuzzCodec, HistogramTooSmall) {
  const PacketPtr bad = Packet::make(1, kFirstAppTag, 0, HistogramCodec::kFormat,
                                     {0.0, 1.0, std::vector<std::int64_t>{1, 2}});
  EXPECT_THROW(HistogramCodec::from_values(*bad), CodecError);
}

TEST(FuzzCodec, MeanShiftShapeMismatch) {
  const PacketPtr bad = Packet::make(
      1, kFirstAppTag, 0, ms::MeanShiftCodec::kFormat,
      {std::vector<double>{1, 2}, std::vector<double>{1},  // xs/ys mismatch
       std::vector<double>{}, std::vector<double>{}, std::vector<std::int64_t>{}});
  EXPECT_THROW(ms::MeanShiftCodec::from_values(*bad), CodecError);
}

TEST(FuzzCodec, AgglomerativeShapeMismatch) {
  const PacketPtr bad = Packet::make(
      1, kFirstAppTag, 0, ms::agg::AggloCodec::kFormat,
      {std::vector<double>{1}, std::vector<double>{1, 2},
       std::vector<std::int64_t>{1}});
  EXPECT_THROW(ms::agg::AggloCodec::from_values(*bad), CodecError);
}

// ---- scatter-gather framing -------------------------------------------------
//
// The segment serializer must produce byte-identical frames to the classic
// BinaryWriter path — writev'ing header + payload views is an optimization,
// never a wire-format change — and deserialize_view must reject exactly the
// inputs deserialize rejects.

PacketPtr random_mixed_packet(Rng& rng) {
  // Payload sizes straddle SegmentWriter::kExternalCutoff so both the
  // scratch-coalesced and referenced-in-place branches are exercised.
  static constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 300, 4096};
  const std::size_t bytes_len = kSizes[rng.next_below(std::size(kSizes))];
  const std::size_t vec_len = kSizes[rng.next_below(std::size(kSizes))] / 8;
  Bytes blob(bytes_len);
  for (auto& b : blob) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return Packet::make(
      static_cast<std::uint32_t>(1 + rng.next_below(100)), kFirstAppTag,
      static_cast<std::uint32_t>(rng.next_below(64)), "i32 bytes vf64 str",
      {static_cast<std::int32_t>(rng.next_u64()), BufferView(std::move(blob)),
       std::vector<double>(vec_len, 0.5), std::string(rng.next_below(80), 'q')});
}

TEST(FuzzCodec, SegmentFramingMatchesBinaryWriter) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const PacketPtr packet = random_mixed_packet(rng);
    BinaryWriter writer;
    packet->serialize(writer);
    SegmentWriter segments;
    packet->serialize_segments(segments);
    EXPECT_EQ(segments.size(), writer.bytes().size());
    EXPECT_EQ(segments.coalesce(), writer.bytes());

    // And the view deserializer round-trips the coalesced frame.
    auto frame = std::make_shared<const Buffer>(segments.coalesce());
    const PacketPtr back =
        Packet::deserialize_view(BufferView(frame, 0, frame->size()));
    EXPECT_EQ(back->values(), packet->values());
    EXPECT_TRUE(back->has_wire());
  }
}

TEST(FuzzCodec, SegmentFrameTruncationsAreRejected) {
  const PacketPtr packet = Packet::make(
      9, kFirstAppTag, 2, "bytes vstr",
      {BufferView(Bytes(100, std::byte{0x5a})), std::vector<std::string>{"a", "bb"}});
  SegmentWriter segments;
  packet->serialize_segments(segments);
  const Bytes full = segments.coalesce();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    auto frame = std::make_shared<const Buffer>(Bytes(full.begin(), full.begin() + cut));
    EXPECT_THROW((void)Packet::deserialize_view(BufferView(frame, 0, cut)), CodecError)
        << "cut=" << cut;
  }
  auto frame = std::make_shared<const Buffer>(Bytes(full));
  EXPECT_EQ(Packet::deserialize_view(BufferView(frame, 0, full.size()))->values(),
            packet->values());
}

TEST(FuzzCodec, ZeroLengthViewsSurviveFraming) {
  const PacketPtr packet = Packet::make(
      3, kFirstAppTag, 0, "bytes str bytes",
      {BufferView(), std::string(), BufferView(Bytes{})});
  SegmentWriter segments;
  packet->serialize_segments(segments);
  BinaryWriter writer;
  packet->serialize(writer);
  EXPECT_EQ(segments.coalesce(), writer.bytes());
  auto frame = std::make_shared<const Buffer>(segments.coalesce());
  const PacketPtr back = Packet::deserialize_view(BufferView(frame, 0, frame->size()));
  EXPECT_TRUE(back->get_bytes(0).empty());
  EXPECT_TRUE(back->get_bytes(2).empty());
}

TEST(FuzzCodec, AliasedBufferPayloadsShareOneBacking) {
  // Two packets viewing disjoint windows of ONE buffer must serialize to
  // independent frames while never copying the shared backing.
  Bytes blob(256);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i);
  auto shared = std::make_shared<const Buffer>(std::move(blob));
  const BufferView front(shared, 0, 128);
  const BufferView tail(shared, 128, 128);
  const PacketPtr a = Packet::make_view(1, kFirstAppTag, 0, front);
  const PacketPtr b = Packet::make_view(1, kFirstAppTag, 1, tail);

  CopyStats::reset();
  SegmentWriter sa, sb;
  a->serialize_segments(sa);
  b->serialize_segments(sb);
  EXPECT_EQ(CopyStats::memcpys(), 0u);  // both payloads referenced in place

  auto fa = std::make_shared<const Buffer>(sa.coalesce());
  auto fb = std::make_shared<const Buffer>(sb.coalesce());
  EXPECT_EQ(Packet::deserialize_view(BufferView(fa, 0, fa->size()))->get_bytes(0), front);
  EXPECT_EQ(Packet::deserialize_view(BufferView(fb, 0, fb->size()))->get_bytes(0), tail);
}

// ---- view lifetimes ---------------------------------------------------------

TEST(ViewLifetime, PayloadOutlivesEveryOtherHandle) {
  BufferView payload;
  {
    const PacketPtr original = Packet::make(
        5, kFirstAppTag, 1, "bytes", {BufferView(Bytes(4096, std::byte{0xab}))});
    SegmentWriter segments;
    original->serialize_segments(segments);
    auto frame = std::make_shared<const Buffer>(segments.coalesce());
    PacketPtr parsed = Packet::deserialize_view(BufferView(frame, 0, frame->size()));
    frame.reset();                       // packet now sole owner of the frame
    payload = parsed->get_bytes(0);      // view pins the frame through the packet
    parsed.reset();                      // view now sole owner
  }
  ASSERT_EQ(payload.size(), 4096u);
  for (const std::byte b : payload.span()) ASSERT_EQ(b, std::byte{0xab});
}

TEST(ViewLifetime, PayloadOutlivesLinkTeardown) {
  // A payload handed out by recv() must stay readable after the network —
  // links, runtimes, receive buffers — is torn down (ASan guards this).
  BufferView payload;
  {
    auto net = Network::create({.topology = Topology::flat(2)});
    Stream& stream = net->front_end().open_stream({.up_transform = "concat"});
    Bytes blob(8192);
    for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i % 251);
    net->backend(0).send(stream.id(), kFirstAppTag, BufferView(Bytes(blob)));
    net->backend(1).send(stream.id(), kFirstAppTag, BufferView(Bytes(blob)));
    const auto result = stream.recv();
    ASSERT_TRUE(result.has_value());
    payload = (*result)->get_bytes(0);
    net->shutdown();
  }  // net destroyed; payload must still pin its backing
  ASSERT_EQ(payload.size(), 2 * 8192u);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    ASSERT_EQ(payload.span()[i], static_cast<std::byte>((i % 8192) % 251));
  }
}

// ---- credit / flow-control frames ------------------------------------------
//
// Credit grants arrive on reader threads straight off the wire, so a hostile
// or truncated grant must never mint credits, kill the reader, or reach the
// event loop as a data envelope.

/// A data packet used to prove a reader thread survived hostile frames.
PacketPtr data_ignored_probe() {
  return Packet::make(1, kFirstAppTag, 0, "i64", {std::int64_t{42}});
}

TEST(FuzzCredit, AccessorsRejectMalformedGrantPayloads) {
  // A well-formed grant round-trips through the accessors.
  const PacketPtr good = make_credit_packet(5, 7);
  EXPECT_EQ(credit_packet_count(*good), 5u);
  EXPECT_EQ(credit_packet_channel(*good), 7u);

  auto grant = [](std::int64_t count, std::int64_t channel) {
    return Packet::make(kControlStream, kTagCredit, kFrontEndRank, "i64 i64",
                        {count, channel});
  };
  // Zero-capacity windows and negative or absurd counts are all rejected.
  EXPECT_THROW((void)credit_packet_count(*grant(0, 0)), CodecError);
  EXPECT_THROW((void)credit_packet_count(*grant(-3, 0)), CodecError);
  EXPECT_THROW(
      (void)credit_packet_count(*grant(std::int64_t{kMaxCreditGrant} + 1, 0)),
      CodecError);
  EXPECT_EQ(credit_packet_count(*grant(kMaxCreditGrant, 0)), kMaxCreditGrant);
  EXPECT_THROW((void)credit_packet_channel(*grant(1, -1)), CodecError);
  EXPECT_THROW((void)credit_packet_channel(
                   *grant(1, std::int64_t{UINT32_MAX} + 1)),
               CodecError);

  // Truncated (one field) and mistyped payloads surface as CodecError, not
  // as out_of_range / bad_variant_access escaping a reader thread.
  const PacketPtr truncated = Packet::make(kControlStream, kTagCredit,
                                           kFrontEndRank, "i64", {std::int64_t{4}});
  EXPECT_THROW((void)credit_packet_channel(*truncated), CodecError);
  const PacketPtr mistyped = Packet::make(kControlStream, kTagCredit,
                                          kFrontEndRank, "str str",
                                          {std::string("a"), std::string("b")});
  EXPECT_THROW((void)credit_packet_count(*mistyped), CodecError);
}

TEST(FuzzCredit, ReaderSurvivesHostileGrantFrames) {
  for (const pumps::Kind kind : pumps::kAll) {
    SCOPED_TRACE(pumps::name(kind));
    auto [reader_fd, writer_fd] = make_socketpair();
    auto inbox = std::make_shared<Inbox>(64);
    auto gate = std::make_shared<CreditGate>(4);
    // Drain the window so applied grants are observable as refills.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);
    }
    MetricsRegistry metrics;
    const auto pump = pumps::make(kind, &metrics);
    pump->open(std::move(reader_fd),
               {.inbox = inbox, .origin = Origin::kParent, .credits = {gate, 0}}, nullptr);
    pump->start();

    auto send = [&](const PacketPtr& packet) {
      BinaryWriter writer;
      packet->serialize(writer);
      write_frame(writer_fd.get(), writer.bytes());
    };
    send(make_credit_packet(2, 0));             // valid: refills two credits
    send(make_credit_packet(1, 99));            // stale channel id: rejected
    send(Packet::make(kControlStream, kTagCredit, kFrontEndRank, "i64 i64",
                      {std::int64_t{0}, std::int64_t{0}}));  // zero-capacity window
    send(Packet::make(kControlStream, kTagCredit, kFrontEndRank, "i64 i64",
                      {std::int64_t{1} << 40, std::int64_t{0}}));  // absurd count
    send(Packet::make(kControlStream, kTagCredit, kFrontEndRank, "i64",
                      {std::int64_t{3}}));      // truncated grant payload
    send(data_ignored_probe());                 // reader must still be alive
    writer_fd.reset();                          // EOF

    // Only the probe and the EOF marker reach the inbox; every credit frame
    // — valid or hostile — is consumed on the pump's thread.
    const auto probe = inbox->pop();
    ASSERT_TRUE(probe.has_value());
    ASSERT_NE(probe->packet, nullptr);
    EXPECT_EQ(probe->packet->tag(), kFirstAppTag);
    const auto eof = inbox->pop();
    ASSERT_TRUE(eof.has_value());
    EXPECT_EQ(eof->packet, nullptr);
    pump->stop();

    EXPECT_EQ(gate->available(), 2u);  // exactly the one valid grant applied
    EXPECT_EQ(metrics.fc_invalid_grants.load(), 4u);
  }
}

TEST(FuzzCredit, ReaderWithoutSinkDropsGrantsInsteadOfEnqueueing) {
  for (const pumps::Kind kind : pumps::kAll) {
    SCOPED_TRACE(pumps::name(kind));
    auto [reader_fd, writer_fd] = make_socketpair();
    auto inbox = std::make_shared<Inbox>(64);
    MetricsRegistry metrics;
    const auto pump = pumps::make(kind, &metrics);
    pump->open(std::move(reader_fd), {.inbox = inbox, .origin = Origin::kParent},
               nullptr);
    pump->start();
    BinaryWriter writer;
    make_credit_packet(3, 0)->serialize(writer);
    write_frame(writer_fd.get(), writer.bytes());
    writer_fd.reset();

    const auto eof = inbox->pop();  // the grant never becomes an envelope
    ASSERT_TRUE(eof.has_value());
    EXPECT_EQ(eof->packet, nullptr);
    pump->stop();
    EXPECT_EQ(metrics.fc_invalid_grants.load(), 1u);
  }
}

TEST(FuzzCredit, RandomGrantPayloadsNeverMintCreditsBeyondTheWindow) {
  Rng rng(31337);
  CreditGate gate(8);
  for (int trial = 0; trial < 2000; ++trial) {
    const PacketPtr packet = Packet::make(
        kControlStream, kTagCredit, kFrontEndRank, "i64 i64",
        {static_cast<std::int64_t>(rng.next_u64()),
         static_cast<std::int64_t>(rng.next_u64())});
    try {
      gate.grant(credit_packet_count(*packet));
    } catch (const CodecError&) {
      // rejection is the common case for random payloads
    }
    ASSERT_LE(gate.available(), gate.window());
  }
}

// ---- remote handshake wire codecs -------------------------------------------
//
// These decoders run on the event loop thread against frames from sockets
// that have NOT yet authenticated as tree members, so they are the most
// exposed parsers in the system: arbitrary and truncated bytes must always
// surface as CodecError (which the loop turns into a closed connection and
// a net_handshakes_failed tick), never as a crash or an absurd allocation.

TEST(FuzzWire, HandshakeRoundTrips) {
  const net::LinkHello hello{1, 1, 42, 7, 64};
  const net::LinkHello hello2 = net::decode_link_hello(net::encode_link_hello(hello));
  EXPECT_EQ(hello2.node, 42u);
  EXPECT_EQ(hello2.epoch, 7u);
  EXPECT_EQ(hello2.credit_window, 64u);

  const net::LinkWelcome welcome{1, 3, 2, 64};
  const net::LinkWelcome welcome2 =
      net::decode_link_welcome(net::encode_link_welcome(welcome));
  EXPECT_EQ(welcome2.node, 3u);
  EXPECT_EQ(welcome2.slot, 2u);

  net::NodeConfig config;
  config.topology = Topology::balanced(2, 2);
  config.rendezvous = "127.0.0.1:9999";
  config.parent = "127.0.0.1:1234";
  config.flow_control.enabled = true;
  config.flow_control.capacity = 32;
  const net::NodeConfig config2 = net::decode_node_config(net::encode_node_config(config));
  EXPECT_EQ(config2.topology.num_nodes(), config.topology.num_nodes());
  EXPECT_EQ(config2.rendezvous, "127.0.0.1:9999");
  EXPECT_EQ(config2.parent, "127.0.0.1:1234");
  EXPECT_TRUE(config2.flow_control.enabled);
  EXPECT_TRUE(config2.fault_plan.empty());

  net::NodeConfig faulty = config;
  faulty.fault_plan.kill(1, 5).mute(2, 3).delay(3, 1'000'000);
  const net::NodeConfig faulty2 = net::decode_node_config(net::encode_node_config(faulty));
  ASSERT_EQ(faulty2.fault_plan.faults.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const FaultSpec& want = faulty.fault_plan.faults[i];
    const FaultSpec& got = faulty2.fault_plan.faults[i];
    EXPECT_EQ(got.node, want.node) << "fault " << i;
    EXPECT_EQ(got.kind, want.kind) << "fault " << i;
    EXPECT_EQ(got.after_packets, want.after_packets) << "fault " << i;
    EXPECT_EQ(got.delay_ns, want.delay_ns) << "fault " << i;
  }
  EXPECT_EQ(faulty2.parent, "127.0.0.1:1234");

  EXPECT_EQ(net::decode_boot_hello(net::encode_boot_hello({1, 1, 9})).node, 9u);
  EXPECT_EQ(net::decode_boot_listen(net::encode_boot_listen({4242})).port, 4242);
  const net::BootReady ready = net::decode_boot_ready(net::encode_boot_ready(
      {false, "listener bind failed"}));
  EXPECT_FALSE(ready.ok);
  EXPECT_EQ(ready.error, "listener bind failed");
}

TEST(FuzzWire, RandomBytesNeverCrashHandshakeDecoders) {
  Rng rng(6006);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes bytes = random_bytes(rng, rng.next_below(96));
    const std::span<const std::byte> view(bytes);
    try { (void)net::decode_link_hello(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::decode_link_welcome(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::boot_frame_type(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::decode_boot_hello(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::decode_node_config(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::decode_boot_listen(view); } catch (const CodecError&) { ++rejected; }
    try { (void)net::decode_boot_ready(view); } catch (const CodecError&) { ++rejected; }
  }
  // Without the right magic numbers essentially everything must bounce.
  EXPECT_GT(rejected, 2000 * 5);
}

TEST(FuzzWire, TruncationsOfValidHandshakesAreRejected) {
  net::NodeConfig config;
  config.topology = Topology::from_fanouts(std::vector<std::size_t>{2, 3});
  config.rendezvous = "127.0.0.1:7000";
  config.parent = "127.0.0.1:7001";
  net::NodeConfig faulty = config;
  faulty.fault_plan.kill(1, 5).delay(4, 250);
  const Bytes frames[] = {
      net::encode_link_hello({1, 1, 3, 0, 16}),
      net::encode_link_welcome({1, 0, 1, 16}),
      net::encode_boot_hello({1, 1, 5}),
      net::encode_node_config(config),
      net::encode_node_config(faulty),
      net::encode_boot_listen({31337}),
      net::encode_boot_ready({false, "error text"}),
  };
  for (const Bytes& full : frames) {
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::span<const std::byte> view(full.data(), cut);
      EXPECT_THROW(
          {
            try { (void)net::decode_link_hello(view); } catch (const CodecError&) { throw; }
            try { (void)net::decode_link_welcome(view); } catch (const CodecError&) { throw; }
            try { (void)net::decode_boot_hello(view); } catch (const CodecError&) { throw; }
            try { (void)net::decode_node_config(view); } catch (const CodecError&) { throw; }
            try { (void)net::decode_boot_listen(view); } catch (const CodecError&) { throw; }
            (void)net::decode_boot_ready(view);
          },
          CodecError)
          << "cut=" << cut;
    }
  }
}

TEST(FuzzWire, BitFlippedHandshakesNeverCrash) {
  Rng rng(515);
  net::NodeConfig config;
  config.topology = Topology::balanced(4, 1);
  config.heartbeat.interval_ns = 50'000'000;
  net::NodeConfig faulty = config;
  faulty.fault_plan.kill(1, 5).mute(2, 1);
  const Bytes originals[] = {
      net::encode_link_hello({1, 1, 2, 1, 8}),
      net::encode_node_config(config),
      net::encode_node_config(faulty),
      net::encode_boot_ready({true, ""}),
  };
  for (const Bytes& original : originals) {
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = original;
      const std::size_t at = rng.next_below(mutated.size());
      mutated[at] ^= static_cast<std::byte>(1u << rng.next_below(8));
      try { (void)net::decode_link_hello(mutated); } catch (const CodecError&) {}
      try { (void)net::decode_node_config(mutated); } catch (const CodecError&) {}
      try { (void)net::decode_boot_ready(mutated); } catch (const CodecError&) {}
    }
  }
}

TEST(FuzzWire, MalformedFaultPlansAreRejected) {
  // The plan is the config's tail: u32 count, then per fault u32 node,
  // u8 kind, u64 after_packets, i64 delay_ns.
  constexpr std::size_t kFault = 4 + 1 + 8 + 8;
  net::NodeConfig config;
  config.topology = Topology::balanced(2, 2);
  config.fault_plan.kill(1, 5);
  const Bytes valid = net::encode_node_config(config);
  ASSERT_EQ(net::decode_node_config(valid).fault_plan.faults.size(), 1u);
  const std::size_t count_at = valid.size() - kFault - 4;
  const auto with_count = [&](std::uint32_t count) {
    Bytes frame = valid;
    std::memcpy(frame.data() + count_at, &count, sizeof(count));
    return frame;
  };

  EXPECT_THROW((void)net::decode_node_config(with_count(net::kMaxConfigFaults + 1)),
               CodecError);

  Bytes unknown_kind = valid;
  unknown_kind[count_at + 4 + 4] = std::byte{7};
  EXPECT_THROW((void)net::decode_node_config(unknown_kind), CodecError);

  // A count promising an entry the frame does not carry (frames cut short
  // are TruncationsOfValidHandshakesAreRejected's job).
  EXPECT_THROW((void)net::decode_node_config(with_count(2)), CodecError);
}

TEST(FuzzWire, VersionOnePeersFailNegotiation) {
  // Versions 2 and 3 changed the NodeConfig layout: a node built before
  // either bump must be turned away at its hello, not decode shifted fields.
  EXPECT_EQ(net::negotiate_version(1, 1, net::kProtoMin, net::kProtoMax), std::nullopt);
  EXPECT_EQ(net::negotiate_version(2, 2, net::kProtoMin, net::kProtoMax), std::nullopt);
  EXPECT_EQ(net::negotiate_version(net::kProtoMin, net::kProtoMax, net::kProtoMin,
                                   net::kProtoMax),
            std::optional<std::uint8_t>(3));
}

// ---- batch frames -----------------------------------------------------------
//
// Multi-packet batch frames arrive on reader threads and the epoll loop from
// peers that may be broken or hostile.  Decoding is all-or-nothing: any
// malformed frame must throw before a single envelope is delivered, so a
// torn batch can neither kill a reader nor mint flow-control credits.

/// Overwrite a little-endian u32 field inside an encoded frame.
void poke_u32(Bytes& frame, std::size_t offset, std::uint32_t value) {
  ASSERT_LE(offset + sizeof(value), frame.size());
  std::memcpy(frame.data() + offset, &value, sizeof(value));
}

std::vector<PacketPtr> small_batch(int n) {
  std::vector<PacketPtr> packets;
  for (int i = 0; i < n; ++i) {
    packets.push_back(Packet::make(5, kFirstAppTag, static_cast<std::uint32_t>(i),
                                   "i64", {std::int64_t{i * 11}}));
  }
  return packets;
}

TEST(FuzzBatch, RoundTripPreservesEveryPacket) {
  const auto packets = small_batch(7);
  const Bytes frame = encode_batch_frame(packets);
  ASSERT_TRUE(is_batch_frame(frame));
  const auto back = decode_batch_frame(frame);
  ASSERT_EQ(back.size(), packets.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i]->values(), packets[i]->values());
    EXPECT_EQ(back[i]->stream_id(), packets[i]->stream_id());
  }
}

TEST(FuzzBatch, TruncationsAreRejectedAtEveryCut) {
  const Bytes full = encode_batch_frame(small_batch(3));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes torn(full.begin(), full.begin() + cut);
    if (!is_batch_frame(torn)) continue;  // too short to even carry the marker
    EXPECT_THROW((void)decode_batch_frame(std::move(torn)), CodecError) << "cut=" << cut;
  }
}

TEST(FuzzBatch, ZeroCountAndHostileCountsAreRejected) {
  Bytes zero = encode_batch_frame(small_batch(2));
  poke_u32(zero, 4, 0);  // claim zero packets, leave their bytes behind
  EXPECT_THROW((void)decode_batch_frame(std::move(zero)), CodecError);

  Bytes greedy = encode_batch_frame(small_batch(2));
  poke_u32(greedy, 4, kMaxBatchPackets + 1);  // absurd pre-allocation bait
  EXPECT_THROW((void)decode_batch_frame(std::move(greedy)), CodecError);

  Bytes hungry = encode_batch_frame(small_batch(2));
  poke_u32(hungry, 4, 3);  // claims one more packet than the frame holds
  EXPECT_THROW((void)decode_batch_frame(std::move(hungry)), CodecError);
}

TEST(FuzzBatch, LengthMismatchAndTrailingBytesAreRejected) {
  // Shrink the first entry's declared length: its packet can no longer
  // parse to exactly `length` bytes.
  Bytes shrunk = encode_batch_frame(small_batch(2));
  std::uint32_t length = 0;
  std::memcpy(&length, shrunk.data() + 8, sizeof(length));
  poke_u32(shrunk, 8, length - 1);
  EXPECT_THROW((void)decode_batch_frame(std::move(shrunk)), CodecError);

  Bytes trailing = encode_batch_frame(small_batch(2));
  trailing.push_back(std::byte{0x5a});
  EXPECT_THROW((void)decode_batch_frame(std::move(trailing)), CodecError);
}

TEST(FuzzBatch, ControlAndTelemetrySmugglingIsRejected) {
  // A credit grant hidden inside a batch must never reach a CreditSink, and
  // telemetry must never ride a data batch.  Build the frame by hand since
  // the coalescer itself refuses to buffer exempt packets.
  for (const std::uint32_t stream : {kControlStream, kTelemetryStream}) {
    const PacketPtr smuggled =
        stream == kControlStream
            ? make_credit_packet(1000, 0)
            : Packet::make(kTelemetryStream, kFirstAppTag, 0, "i64", {std::int64_t{1}});
    const PacketPtr innocent =
        Packet::make(5, kFirstAppTag, 0, "i64", {std::int64_t{7}});
    const std::vector<PacketPtr> mixed = {innocent, smuggled};
    EXPECT_THROW((void)decode_batch_frame(encode_batch_frame(mixed)), CodecError);
  }
}

TEST(FuzzBatch, RandomPayloadsAfterMarkerNeverCrash) {
  Rng rng(777);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes frame = random_bytes(rng, 8 + rng.next_below(200));
    poke_u32(frame, 0, kBatchMarker);
    try {
      (void)decode_batch_frame(std::move(frame));
    } catch (const CodecError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1990);  // essentially everything must bounce
}

TEST(FuzzBatch, ReaderSurvivesTornBatchFramesAndMintsNoCredits) {
  for (const pumps::Kind kind : pumps::kAll) {
    SCOPED_TRACE(pumps::name(kind));
    auto [reader_fd, writer_fd] = make_socketpair();
    auto inbox = std::make_shared<Inbox>(64);
    auto gate = std::make_shared<CreditGate>(4);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(gate->try_acquire(), CreditGate::Acquire::kOk);  // drain window
    }
    MetricsRegistry metrics;
    const auto pump = pumps::make(kind, &metrics);
    pump->open(std::move(reader_fd),
               {.inbox = inbox, .origin = Origin::kChild, .credits = {gate, 0}}, nullptr);
    pump->start();

    // Hostile batch frames: zero count, hungry count, corrupt entry length,
    // and a smuggled credit grant.  Each must be dropped on the pump's
    // thread without killing the channel or granting anything.
    Bytes zero = encode_batch_frame(small_batch(2));
    poke_u32(zero, 4, 0);
    write_frame(writer_fd.get(), zero);
    Bytes hungry = encode_batch_frame(small_batch(2));
    poke_u32(hungry, 4, 3);
    write_frame(writer_fd.get(), hungry);
    Bytes shrunk = encode_batch_frame(small_batch(2));
    std::uint32_t length = 0;
    std::memcpy(&length, shrunk.data() + 8, sizeof(length));
    poke_u32(shrunk, 8, length - 1);
    write_frame(writer_fd.get(), shrunk);
    const std::vector<PacketPtr> smuggle = {
        Packet::make(5, kFirstAppTag, 0, "i64", {std::int64_t{1}}),
        make_credit_packet(1000, 0)};
    write_frame(writer_fd.get(), encode_batch_frame(smuggle));

    // A healthy batch and a plain probe prove the channel is still consumed.
    write_frame(writer_fd.get(), encode_batch_frame(small_batch(3)));
    BinaryWriter probe;
    data_ignored_probe()->serialize(probe);
    write_frame(writer_fd.get(), probe.bytes());
    writer_fd.reset();  // EOF

    const auto batch = inbox->pop();
    ASSERT_TRUE(batch.has_value());
    ASSERT_NE(batch->batch, nullptr);
    EXPECT_EQ(batch->batch->size(), 3u);
    EXPECT_EQ(batch->origin, Origin::kChild);
    const auto plain = inbox->pop();
    ASSERT_TRUE(plain.has_value());
    ASSERT_NE(plain->packet, nullptr);
    EXPECT_EQ(plain->packet->tag(), kFirstAppTag);
    const auto eof = inbox->pop();
    ASSERT_TRUE(eof.has_value());
    EXPECT_EQ(eof->packet, nullptr);
    EXPECT_EQ(eof->batch, nullptr);
    pump->stop();

    EXPECT_EQ(gate->available(), 0u);  // the smuggled grant minted nothing
    EXPECT_EQ(metrics.batch_frames_rejected.load(), 4u);
    EXPECT_EQ(metrics.batch_frames_in.load(), 1u);
    EXPECT_EQ(metrics.batch_packets_in.load(), 3u);
  }
}

TEST(FuzzCodec, FormatStringFuzz) {
  Rng rng(7);
  const std::string alphabet = "if3264suvbytesr ";
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string format;
    const std::size_t length = rng.next_below(12);
    for (std::size_t i = 0; i < length; ++i) {
      format.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    try {
      const DataFormat parsed(format);
      ++accepted;
      // Anything accepted must render back to a parsable string.
      const DataFormat again(parsed.to_string());
      EXPECT_TRUE(std::ranges::equal(again.fields(), parsed.fields()));
    } catch (const ParseError&) {
    }
  }
  EXPECT_GT(accepted, 0);  // "" and whitespace-only are valid
}

}  // namespace
}  // namespace tbon
