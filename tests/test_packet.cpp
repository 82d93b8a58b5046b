// Tests for packets and the control protocol.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/filter_params.hpp"
#include "core/packet.hpp"
#include "core/protocol.hpp"

namespace tbon {
namespace {

TEST(Packet, ConstructionAndAccess) {
  const PacketPtr p = Packet::make(3, 100, 7, "i32 vf64 str",
                                   {std::int32_t{-1}, std::vector<double>{1.5, 2.5},
                                    std::string("tag")});
  EXPECT_EQ(p->stream_id(), 3u);
  EXPECT_EQ(p->tag(), 100);
  EXPECT_EQ(p->src_rank(), 7u);
  EXPECT_EQ(p->get_i32(0), -1);
  EXPECT_EQ(p->get_vf64(1), (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(p->get_str(2), "tag");
  EXPECT_EQ(p->payload_bytes(), 4u + 16u + 3u);
}

TEST(Packet, RejectsMismatchedPayload) {
  EXPECT_THROW(Packet::make(1, 100, 0, "i32", {std::string("not an int")}), CodecError);
  EXPECT_THROW(Packet::make(1, 100, 0, "i32 i32", {std::int32_t{1}}), CodecError);
}

TEST(Packet, SerializationRoundTrip) {
  const PacketPtr original = Packet::make(
      9, 204, kFrontEndRank, "u64 vstr bytes",
      {std::uint64_t{42}, std::vector<std::string>{"a", "b"}, Bytes{std::byte{9}}});
  BinaryWriter writer;
  original->serialize(writer);
  BinaryReader reader(writer.bytes());
  const PacketPtr copy = Packet::deserialize(reader);
  EXPECT_EQ(copy->stream_id(), original->stream_id());
  EXPECT_EQ(copy->tag(), original->tag());
  EXPECT_EQ(copy->src_rank(), original->src_rank());
  EXPECT_EQ(copy->values(), original->values());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Packet, PayloadViewAliasesWireFrame) {
  const PacketPtr original = Packet::make(
      4, 150, 2, "i32 bytes", {std::int32_t{9}, BufferView(Bytes(200, std::byte{0x7e}))});
  BinaryWriter writer;
  original->serialize(writer);
  auto frame = std::make_shared<const Buffer>(Bytes(writer.bytes()));
  const PacketPtr parsed = Packet::deserialize_view(BufferView(frame, 0, frame->size()));

  // Wire-backed: the payload view is a window of the frame itself.
  const BufferView wire_payload = parsed->payload_view();
  EXPECT_GE(wire_payload.data(), frame->data());
  EXPECT_LE(wire_payload.data() + wire_payload.size(), frame->data() + frame->size());
  // The view is the serialized payload region — logical payload bytes plus
  // the per-field length prefixes.
  EXPECT_GE(wire_payload.size(), parsed->payload_bytes());

  // Eager packet: payload_view packs a fresh buffer with identical bytes.
  const BufferView packed = original->payload_view();
  EXPECT_EQ(packed, wire_payload);
  EXPECT_EQ(original->values(), parsed->values());
}

TEST(Packet, MakeViewWrapsOpaquePayload) {
  Bytes blob(128);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i);
  const BufferView view{Bytes(blob)};
  const PacketPtr p = Packet::make_view(6, 170, 3, view);
  EXPECT_EQ(p->format().to_string(), "bytes");
  EXPECT_EQ(p->get_bytes(0), view);
  // The packet shares the backing, it does not copy it.
  EXPECT_EQ(p->get_bytes(0).data(), view.data());
}

TEST(Packet, ToStringMentionsFields) {
  const PacketPtr p = Packet::make(1, 100, kFrontEndRank, "i32 str",
                                   {std::int32_t{5}, std::string("x")});
  const std::string text = p->to_string();
  EXPECT_NE(text.find("stream=1"), std::string::npos);
  EXPECT_NE(text.find("src=FE"), std::string::npos);
  EXPECT_NE(text.find("5"), std::string::npos);
}

TEST(StreamSpec, PacketRoundTrip) {
  StreamSpec spec;
  spec.id = 12;
  spec.endpoints = {0, 2, 5};
  spec.up_transform = "sum";
  spec.up_sync = "time_out";
  spec.down_transform = "passthrough";
  spec.params = "window_ms=25 bandwidth=50";

  const PacketPtr packet = spec.to_packet();
  EXPECT_EQ(packet->stream_id(), kControlStream);
  EXPECT_EQ(packet->tag(), kTagNewStream);
  const StreamSpec copy = StreamSpec::from_packet(*packet);
  EXPECT_EQ(copy, spec);
}

TEST(StreamSpec, ContainsSemantics) {
  StreamSpec all;
  EXPECT_TRUE(all.contains(0));
  EXPECT_TRUE(all.contains(999));

  StreamSpec subset;
  subset.endpoints = {1, 3};
  EXPECT_FALSE(subset.contains(0));
  EXPECT_TRUE(subset.contains(1));
  EXPECT_TRUE(subset.contains(3));
}

TEST(StreamSpec, ParamParsing) {
  StreamSpec spec;
  spec.params = "window_ms=25 kernel=gaussian";
  const Config config = spec.parsed_params();
  EXPECT_EQ(config.get_int("window_ms"), 25);
  EXPECT_EQ(config.get("kernel"), "gaussian");
}

TEST(StreamSpec, TypedParamsSerializeSortedByKey) {
  const FilterParams params = FilterParams().set("k", 2).set("chain", "topk,passthrough");
  EXPECT_EQ(params.to_wire(), "chain=topk,passthrough k=2");
  EXPECT_TRUE(params.has("k"));
  EXPECT_FALSE(params.has("window_ms"));
  EXPECT_THROW(FilterParams().set("bad key", 1), ParseError);
}

TEST(ControlPackets, Shapes) {
  EXPECT_EQ(make_shutdown_packet()->tag(), kTagShutdown);
  EXPECT_EQ(make_shutdown_ack_packet()->tag(), kTagShutdownAck);
  const PacketPtr del = make_delete_stream_packet(5);
  EXPECT_EQ(del->tag(), kTagDeleteStream);
  EXPECT_EQ(del->get_i64(0), 5);
  const PacketPtr load = make_load_filter_packet("/tmp/libf.so");
  EXPECT_EQ(load->tag(), kTagLoadFilter);
  EXPECT_EQ(load->get_str(0), "/tmp/libf.so");
}

}  // namespace
}  // namespace tbon
