#include "core/packet.hpp"

#include <sstream>

#include "common/error.hpp"

namespace tbon {

Packet::Packet(std::uint32_t stream_id, std::int32_t tag, std::uint32_t src_rank,
               DataFormat format, std::vector<DataValue> values)
    : stream_id_(stream_id),
      tag_(tag),
      src_rank_(src_rank),
      format_(std::move(format)),
      values_(std::move(values)) {
  if (!format_.matches(values_)) {
    throw CodecError("packet payload does not match format '" + format_.to_string() + "'");
  }
  for (const DataValue& v : values_) payload_bytes_ += value_payload_bytes(v);
}

Packet::Packet(std::uint32_t stream_id, std::int32_t tag, std::uint32_t src_rank,
               DataFormat format, BufferView wire, std::size_t payload_offset,
               std::size_t payload_bytes)
    : stream_id_(stream_id),
      tag_(tag),
      src_rank_(src_rank),
      format_(std::move(format)),
      wire_(std::move(wire)),
      payload_offset_(payload_offset),
      payload_bytes_(payload_bytes) {}

PacketPtr Packet::make(std::uint32_t stream_id, std::int32_t tag,
                       std::uint32_t src_rank, std::string_view format_string,
                       std::vector<DataValue> values) {
  return std::make_shared<const Packet>(stream_id, tag, src_rank,
                                        DataFormat(format_string), std::move(values));
}

PacketPtr Packet::make_view(std::uint32_t stream_id, std::int32_t tag,
                            std::uint32_t src_rank, BufferView payload) {
  return std::make_shared<const Packet>(stream_id, tag, src_rank, DataFormat("bytes"),
                                        std::vector<DataValue>{std::move(payload)});
}

const std::vector<DataValue>& Packet::values() const {
  // Owned packets got their values in the constructor.  Not a std::once_flag:
  // glibc ends the first call on every once flag with a futex-wake system
  // call, and every packet off the wire makes a first call.
  if (!has_wire() || materialized_.load(std::memory_order_acquire)) return values_;
  const std::lock_guard<std::mutex> lock(materialize_mutex_);
  if (!materialized_.load(std::memory_order_relaxed)) {
    materialize();
    materialized_.store(true, std::memory_order_release);
  }
  return values_;
}

void Packet::materialize() const {
  // Structure was validated by deserialize_view's skim pass, so this cannot
  // throw; `bytes` fields come back as subviews pinning the frame.
  BinaryReader reader(wire_.span());
  reader.skip(payload_offset_);
  values_ = unpack_values_backed(reader, format_, wire_);
}

BufferView Packet::payload_view() const {
  if (has_wire()) {
    return wire_.subview(payload_offset_, wire_.size() - payload_offset_);
  }
  BinaryWriter writer;
  pack_values(writer, format_, values_);
  return BufferView(writer.take());
}

void Packet::serialize(BinaryWriter& writer) const {
  if (has_wire()) {
    // The retained frame IS the serialized form; relay it verbatim.
    writer.put_raw(wire_);
    return;
  }
  writer.put(stream_id_);
  writer.put(tag_);
  writer.put(src_rank_);
  writer.put_string(format_.to_string());
  pack_values(writer, format_, values_);
}

void Packet::serialize_segments(SegmentWriter& writer) const {
  if (has_wire()) {
    if (wire_.size() >= SegmentWriter::kExternalCutoff) {
      writer.put_payload(wire_);  // one external segment, no copy
    } else {
      writer.put_raw(wire_);  // tiny frame: cheaper coalesced than as an iovec
    }
    return;
  }
  writer.put(stream_id_);
  writer.put(tag_);
  writer.put(src_rank_);
  writer.put_string_header(format_.to_string());
  pack_values_segments(writer, format_, values_);
}

PacketPtr Packet::deserialize(BinaryReader& reader) {
  const auto stream_id = reader.get<std::uint32_t>();
  const auto tag = reader.get<std::int32_t>();
  const auto src_rank = reader.get<std::uint32_t>();
  DataFormat format(reader.get_string());
  auto values = unpack_values(reader, format);
  return std::make_shared<const Packet>(stream_id, tag, src_rank, std::move(format),
                                        std::move(values));
}

PacketPtr Packet::deserialize_view(BufferView frame) {
  BinaryReader reader(frame.span());
  const auto stream_id = reader.get<std::uint32_t>();
  const auto tag = reader.get<std::int32_t>();
  const auto src_rank = reader.get<std::uint32_t>();
  DataFormat format(reader.get_string());
  const std::size_t payload_offset = reader.position();
  const std::size_t payload_bytes = skim_values(reader, format);
  // Trim trailing bytes so the retained frame is exactly the packet's wire
  // form (relaying it verbatim must be byte-identical to serialize()).
  BufferView wire = frame.subview(0, reader.position());
  return std::make_shared<const Packet>(stream_id, tag, src_rank, std::move(format),
                                        std::move(wire), payload_offset, payload_bytes);
}

std::string Packet::to_string() const {
  std::ostringstream out;
  out << "stream=" << stream_id_ << " tag=" << tag_ << " src=";
  if (src_rank_ == kFrontEndRank) {
    out << "FE";
  } else {
    out << src_rank_;
  }
  for (const DataValue& v : values()) out << ' ' << value_to_string(v);
  return out.str();
}

}  // namespace tbon
