// Endian-safe binary serialization.
//
// BinaryWriter appends little-endian fixed-width scalars, length-prefixed
// strings and vectors to a byte buffer; BinaryReader consumes them and
// throws CodecError on truncated or oversized input.  This is the wire
// format used by the socket transport and by packet serialization.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace tbon {

using Bytes = std::vector<std::byte>;

class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Append a fixed-width integral or floating scalar, little-endian.
  template <typename T>
    requires(std::is_arithmetic_v<T>)
  void put(T value) {
    static_assert(sizeof(T) <= 8);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    // The library targets little-endian hosts (x86-64, aarch64-le); a
    // static_assert here would need std::endian, which we check instead.
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need byte swapping here");
    const std::byte* begin = reinterpret_cast<const std::byte*>(raw);
    buffer_.insert(buffer_.end(), begin, begin + sizeof(T));
  }

  /// Append raw bytes without a length prefix.
  void put_raw(std::span<const std::byte> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  /// Append a u32 length prefix followed by the bytes.
  void put_bytes(std::span<const std::byte> bytes) {
    put(static_cast<std::uint32_t>(bytes.size()));
    put_raw(bytes);
  }

  void put_string(std::string_view s) {
    put(static_cast<std::uint32_t>(s.size()));
    const std::byte* begin = reinterpret_cast<const std::byte*>(s.data());
    buffer_.insert(buffer_.end(), begin, begin + s.size());
  }

  /// A u32 count, then the elements in one copy: on the little-endian host
  /// (static_assert'd in put) their in-memory layout is their wire form.
  template <typename T>
    requires(std::is_arithmetic_v<T>)
  void put_vector(std::span<const T> values) {
    static_assert(sizeof(T) <= 8);
    put(static_cast<std::uint32_t>(values.size()));
    put_raw(std::as_bytes(values));
  }

  /// Overwrite the u32 at `offset`, which an earlier put wrote: a length
  /// prefix whose value is known only once what it counts is written.
  void patch(std::size_t offset, std::uint32_t value) {
    std::memcpy(buffer_.data() + offset, &value, sizeof(value));
  }

  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  const Bytes& bytes() const noexcept { return buffer_; }
  Bytes take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> bytes) : data_(bytes) {}

  template <typename T>
    requires(std::is_arithmetic_v<T>)
  T get() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  Bytes get_bytes() {
    const auto n = get<std::uint32_t>();
    require(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(cursor_),
              data_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
    cursor_ += n;
    return out;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    require(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + cursor_), n);
    cursor_ += n;
    return out;
  }

  template <typename T>
    requires(std::is_arithmetic_v<T>)
  std::vector<T> get_vector() {
    const auto n = get<std::uint32_t>();
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
    require(bytes);
    std::vector<T> out(n);
    if (n != 0) std::memcpy(out.data(), data_.data() + cursor_, bytes);  // see put_vector
    cursor_ += bytes;
    return out;
  }

  /// Consume `n` bytes and return a span over them (no copy).  The span
  /// aliases the reader's input and is valid only while that input lives.
  std::span<const std::byte> take_span(std::size_t n) {
    require(n);
    const std::span<const std::byte> out = data_.subspan(cursor_, n);
    cursor_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    cursor_ += n;
  }

  std::size_t position() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return data_.size() - cursor_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (cursor_ + n > data_.size()) {
      throw CodecError("truncated input: need " + std::to_string(n) + " bytes, have " +
                       std::to_string(data_.size() - cursor_));
    }
  }

  std::span<const std::byte> data_;
  std::size_t cursor_ = 0;
};

}  // namespace tbon
