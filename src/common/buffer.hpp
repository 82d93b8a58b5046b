// Refcounted buffers and zero-copy views — the aliasing layer under Packet.
//
// A Buffer owns one contiguous byte block (typically a frame read off the
// wire).  A BufferView is a non-owning window plus a refcount on whatever
// storage backs it, so a payload deserialized from a frame can alias the
// receive buffer instead of being copied into an owned vector: the view
// keeps the frame alive for exactly as long as any packet field refers to
// it.  SegmentWriter is the matching output half: it builds a scatter-gather
// segment list (small fields coalesced into a scratch block, large payloads
// referenced in place) that the fd transport hands to writev, so serializing
// a packet never memcpy's its payload either.
//
// CopyStats counts the payload memcpys that do happen (the owning
// serialize/deserialize codec, sub-cutoff coalescing, explicit to_bytes),
// so tests and benches can report copies-per-packet as a measured number
// instead of a claim.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace tbon {

using Bytes = std::vector<std::byte>;

/// Process-wide counters for payload byte copies (str/bytes/vector contents
/// memcpy'd between userspace buffers — header scalars and kernel I/O do not
/// count).  Relaxed atomics: the benches reset, run a workload, then read.
struct CopyStats {
  static inline std::atomic<std::uint64_t> payload_memcpys{0};
  static inline std::atomic<std::uint64_t> payload_bytes_copied{0};

  static void note(std::size_t bytes) noexcept {
    payload_memcpys.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  }
  static void reset() noexcept {
    payload_memcpys.store(0, std::memory_order_relaxed);
    payload_bytes_copied.store(0, std::memory_order_relaxed);
  }
  static std::uint64_t memcpys() noexcept {
    return payload_memcpys.load(std::memory_order_relaxed);
  }
  static std::uint64_t bytes_copied() noexcept {
    return payload_bytes_copied.load(std::memory_order_relaxed);
  }
};

/// An immutable refcounted byte block.  Fill `storage()` before publishing
/// the Buffer as a BufferPtr; after that the contents must not change.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(Bytes data) noexcept : data_(std::move(data)) {}
  explicit Buffer(std::size_t size) : data_(size) {}

  const std::byte* data() const noexcept { return data_.data(); }
  std::size_t size() const noexcept { return data_.size(); }
  Bytes& storage() noexcept { return data_; }
  std::span<const std::byte> span() const noexcept { return data_; }

 private:
  Bytes data_;
};

using BufferPtr = std::shared_ptr<const Buffer>;

/// A refcounted window onto immutable bytes.  Copying a view copies a
/// pointer pair and bumps a refcount; the backing storage lives until the
/// last view into it is destroyed.  Views compare by content (packets
/// holding equal payload bytes compare equal regardless of backing).
class BufferView {
 public:
  BufferView() = default;

  /// View a range of a refcounted buffer.
  BufferView(BufferPtr buffer, std::size_t offset, std::size_t length)
      : keepalive_(buffer), data_(buffer ? buffer->data() + offset : nullptr),
        size_(length) {
    if (buffer == nullptr || offset + length > buffer->size()) {
      throw CodecError("BufferView range outside buffer");
    }
  }

  /// View arbitrary bytes kept alive by `keepalive` (type-erased owner).
  BufferView(std::shared_ptr<const void> keepalive, const std::byte* data,
             std::size_t size) noexcept
      : keepalive_(std::move(keepalive)), data_(data), size_(size) {}

  /// Adopt an owned byte vector (one move, no copy).  Implicit so existing
  /// `DataValue{Bytes{...}}` call sites keep compiling unchanged.
  BufferView(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : BufferView(adopt(std::move(bytes))) {}

  /// Borrow bytes whose lifetime the caller guarantees to exceed the view's.
  static BufferView borrowed(std::span<const std::byte> bytes) noexcept {
    return BufferView(nullptr, bytes.data(), bytes.size());
  }

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::span<const std::byte> span() const noexcept { return {data_, size_}; }
  operator std::span<const std::byte>() const noexcept { return span(); }

  /// A sub-window sharing this view's backing storage.
  BufferView subview(std::size_t offset, std::size_t length) const {
    if (offset + length > size_) throw CodecError("subview range outside view");
    return BufferView(keepalive_, data_ + offset, length);
  }

  /// Copy the bytes out into an owned vector (counted as a payload copy).
  Bytes to_bytes() const {
    if (size_ != 0) CopyStats::note(size_);
    return Bytes(data_, data_ + size_);
  }

  const std::shared_ptr<const void>& keepalive() const noexcept { return keepalive_; }

  friend bool operator==(const BufferView& a, const BufferView& b) noexcept {
    return a.size_ == b.size_ &&
           (a.data_ == b.data_ || a.size_ == 0 ||
            std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  static BufferView adopt(Bytes bytes) {
    auto owner = std::make_shared<const Buffer>(std::move(bytes));
    return BufferView(owner, owner->data(), owner->size());
  }

  std::shared_ptr<const void> keepalive_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Scatter-gather serialization sink.  Small fields accumulate in a scratch
/// block; payloads at or above `kExternalCutoff` are referenced in place.
/// The finished segment list (`segments()`) aliases both the scratch block
/// and every external payload, so it is valid only while the writer and the
/// serialized objects are alive — fd_link holds the PacketPtr across the
/// writev for exactly this reason.
class SegmentWriter {
 public:
  /// Payloads smaller than this are coalesced into scratch: one iovec entry
  /// costs more than memcpy'ing a few dozen bytes.
  static constexpr std::size_t kExternalCutoff = 64;

  struct Segment {
    const std::byte* data;
    std::size_t size;
  };

  /// Room for a typical packet's pieces up front: growing the list append
  /// by append would cost an allocation each time it doubles.  The scratch
  /// block gets the same on first use (a verbatim relay never needs one).
  SegmentWriter() { pieces_.reserve(8); }

  template <typename T>
    requires(std::is_arithmetic_v<T>)
  void put(T value) {
    static_assert(sizeof(T) <= 8);
    std::byte raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    append_scratch({raw, sizeof(T)});
  }

  /// Header-side raw bytes (format strings, prefixes): copied into scratch,
  /// not counted as payload copies.
  void put_raw(std::span<const std::byte> bytes) { append_scratch(bytes); }

  void put_string_header(std::string_view s) {
    put(static_cast<std::uint32_t>(s.size()));
    append_scratch({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }

  /// Payload bytes: referenced in place when large enough, otherwise copied
  /// into scratch (and counted).
  void put_payload(std::span<const std::byte> bytes) {
    if (bytes.size() >= kExternalCutoff) {
      total_ += bytes.size();
      pieces_.push_back(Piece{.external = bytes, .scratch_offset = 0, .scratch_size = 0});
    } else {
      if (!bytes.empty()) CopyStats::note(bytes.size());
      append_scratch(bytes);
    }
  }

  /// Total serialized size across all segments.
  std::size_t size() const noexcept { return total_; }

  /// Resolve the segment list.  Call after the last append; the result
  /// aliases the writer's scratch block.
  std::vector<Segment> segments() const {
    std::vector<Segment> out;
    out.reserve(pieces_.size());
    for (const Piece& piece : pieces_) {
      if (piece.external.data() != nullptr || piece.external.size() != 0) {
        if (!piece.external.empty()) {
          out.push_back({piece.external.data(), piece.external.size()});
        }
      } else if (piece.scratch_size != 0) {
        out.push_back({scratch_.data() + piece.scratch_offset, piece.scratch_size});
      }
    }
    return out;
  }

  /// Flatten into one owned block (test / non-writev paths).
  Bytes coalesce() const {
    Bytes out;
    out.reserve(total_);
    for (const Segment& seg : segments()) {
      out.insert(out.end(), seg.data, seg.data + seg.size);
    }
    return out;
  }

 private:
  struct Piece {
    std::span<const std::byte> external;  // empty() -> scratch piece
    std::size_t scratch_offset;
    std::size_t scratch_size;
  };

  void append_scratch(std::span<const std::byte> bytes) {
    total_ += bytes.size();
    if (bytes.empty()) return;
    if (scratch_.capacity() == 0) scratch_.reserve(256);
    // Extend the previous scratch piece when contiguous so adjacent small
    // fields collapse into one segment.
    if (!pieces_.empty() && pieces_.back().external.data() == nullptr &&
        pieces_.back().scratch_offset + pieces_.back().scratch_size == scratch_.size()) {
      pieces_.back().scratch_size += bytes.size();
    } else {
      pieces_.push_back(Piece{.external = {},
                              .scratch_offset = scratch_.size(),
                              .scratch_size = bytes.size()});
    }
    scratch_.insert(scratch_.end(), bytes.begin(), bytes.end());
  }

  Bytes scratch_;
  std::vector<Piece> pieces_;
  std::size_t total_ = 0;
};

}  // namespace tbon
