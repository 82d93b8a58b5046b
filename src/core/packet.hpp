// Application-level packets — the unit of data flowing through a TBON.
//
// A packet belongs to a stream, carries an application tag, remembers the
// rank of the endpoint that produced it, and holds a typed payload described
// by a DataFormat.  Packets are immutable after construction and are passed
// around as shared_ptr<const Packet> ("counted packet references" in the
// paper): multicasting a packet to k children shares one object across k
// outgoing queues with no copy.
//
// Packets deserialized with deserialize_view() additionally retain the wire
// frame they arrived in: the header is parsed and the payload structurally
// validated up front, but field values materialize lazily on first access,
// and `bytes` fields alias the frame instead of being copied.  A node that
// only routes such a packet (the pass-through fast lane) relays the retained
// frame verbatim — zero payload memcpys per interior hop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/buffer.hpp"
#include "common/datavalue.hpp"

namespace tbon {

/// Rank used as `src` for packets originating at the front-end.
inline constexpr std::uint32_t kFrontEndRank = static_cast<std::uint32_t>(-1);

/// Stream id 0 is reserved for the control protocol.
inline constexpr std::uint32_t kControlStream = 0;

class Packet;
using PacketPtr = std::shared_ptr<const Packet>;

class Packet {
 public:
  /// Construct a packet from owned values; `values` must match `format`
  /// (CodecError otherwise).
  Packet(std::uint32_t stream_id, std::int32_t tag, std::uint32_t src_rank,
         DataFormat format, std::vector<DataValue> values);

  /// Construct a wire-backed packet (used by deserialize_view; the payload
  /// region of `wire` must already be validated against `format`).
  Packet(std::uint32_t stream_id, std::int32_t tag, std::uint32_t src_rank,
         DataFormat format, BufferView wire, std::size_t payload_offset,
         std::size_t payload_bytes);

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  /// Convenience factory returning a shared (immutable) packet.
  static PacketPtr make(std::uint32_t stream_id, std::int32_t tag,
                        std::uint32_t src_rank, std::string_view format_string,
                        std::vector<DataValue> values);

  /// Factory for a single-`bytes` packet whose payload aliases `payload` —
  /// the zero-copy origin for Stream::send(tag, view) / BackEnd::send.
  static PacketPtr make_view(std::uint32_t stream_id, std::int32_t tag,
                             std::uint32_t src_rank, BufferView payload);

  std::uint32_t stream_id() const noexcept { return stream_id_; }
  std::int32_t tag() const noexcept { return tag_; }
  std::uint32_t src_rank() const noexcept { return src_rank_; }
  const DataFormat& format() const noexcept { return format_; }
  std::size_t arity() const noexcept { return format_.arity(); }

  /// The field values.  For wire-backed packets this materializes them on
  /// first access (thread-safe, and no system call once materialized or
  /// when uncontended); `bytes` fields alias the retained frame.
  const std::vector<DataValue>& values() const;

  /// Typed field access; throws std::bad_variant_access on a type mismatch
  /// and std::out_of_range on a bad index.
  template <typename T>
  const T& get(std::size_t index) const {
    return std::get<T>(values().at(index));
  }

  std::int32_t get_i32(std::size_t i) const { return get<std::int32_t>(i); }
  std::int64_t get_i64(std::size_t i) const { return get<std::int64_t>(i); }
  std::uint64_t get_u64(std::size_t i) const { return get<std::uint64_t>(i); }
  double get_f64(std::size_t i) const { return get<double>(i); }
  const std::string& get_str(std::size_t i) const { return get<std::string>(i); }
  const BufferView& get_bytes(std::size_t i) const { return get<BufferView>(i); }
  const std::vector<std::int64_t>& get_vi64(std::size_t i) const {
    return get<std::vector<std::int64_t>>(i);
  }
  const std::vector<double>& get_vf64(std::size_t i) const {
    return get<std::vector<double>>(i);
  }
  const std::vector<std::string>& get_vstr(std::size_t i) const {
    return get<std::vector<std::string>>(i);
  }

  /// Total payload size, used for throughput accounting (O(1): computed at
  /// construction, without materializing wire-backed values).
  std::size_t payload_bytes() const noexcept { return payload_bytes_; }

  /// The retained wire frame for packets built by deserialize_view (empty
  /// view otherwise).  Relaying it verbatim is byte-identical to serialize().
  const BufferView& wire() const noexcept { return wire_; }
  bool has_wire() const noexcept { return !wire_.empty(); }

  /// A refcounted view of the serialized payload region (the field values,
  /// after the header).  Aliases the retained frame when wire-backed; for
  /// packets built from owned values the payload is serialized into a fresh
  /// buffer on each call.
  BufferView payload_view() const;

  /// Wire serialization (used by the multi-process transport).
  void serialize(BinaryWriter& writer) const;

  /// Scatter-gather serialization: large payload fields are referenced in
  /// place, so the packet must stay alive while the segment list is used.
  void serialize_segments(SegmentWriter& writer) const;

  static PacketPtr deserialize(BinaryReader& reader);

  /// Zero-copy deserialization: parses the header, structurally validates
  /// the payload (throws CodecError like deserialize), and retains `frame`
  /// so field values can alias it instead of being copied.
  static PacketPtr deserialize_view(BufferView frame);

  /// Diagnostic rendering: "stream=3 tag=7 src=12 [1, 2] \"x\"".
  std::string to_string() const;

 private:
  void materialize() const;

  std::uint32_t stream_id_;
  std::int32_t tag_;
  std::uint32_t src_rank_;
  DataFormat format_;
  BufferView wire_;
  std::size_t payload_offset_ = 0;
  std::size_t payload_bytes_ = 0;
  mutable std::vector<DataValue> values_;
  // Wire-backed packets only: set (release) once values_ is filled under
  // materialize_mutex_, so readers that see it (acquire) skip the lock.
  mutable std::atomic<bool> materialized_{false};
  mutable std::mutex materialize_mutex_;
};

}  // namespace tbon
