// Typed packet payloads and MRNet-style format strings.
//
// MRNet describes packet contents with printf-like format strings; we use a
// small space-separated type language instead:
//
//   i32 i64 u64 f64 str bytes vi64 vf64 vstr
//
// e.g. "i32 vf64 str" declares three fields: an int32, a vector of doubles
// and a string.  DataFormat parses and validates such strings once;
// DataValue holds one field; pack/unpack round-trip a field list through the
// binary archive.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/archive.hpp"
#include "common/buffer.hpp"
#include "common/error.hpp"

namespace tbon {

enum class DataType : std::uint8_t {
  kInt32 = 0,
  kInt64,
  kUInt64,
  kFloat64,
  kString,
  kBytes,
  kVecInt64,
  kVecFloat64,
  kVecString,
};

/// Human-readable token for a type (the format-string vocabulary).
std::string_view type_name(DataType type) noexcept;

/// Parse a single token; throws ParseError for unknown tokens.
DataType parse_type(std::string_view token);

/// One payload field.  The `bytes` alternative is a refcounted BufferView,
/// so a blob deserialized off the wire aliases the receive buffer instead of
/// being copied; `Bytes` converts implicitly (adopted, not copied).
using DataValue = std::variant<std::int32_t, std::int64_t, std::uint64_t, double,
                               std::string, BufferView, std::vector<std::int64_t>,
                               std::vector<double>, std::vector<std::string>>;

/// The declared type of a DataValue.
DataType type_of(const DataValue& value) noexcept;

/// A parsed, validated format string.  Every packet carries one, so
/// building or copying a typical format allocates nothing: up to
/// kInlineFields field types are held inline, and the text is a
/// std::string, whose short-string storage holds up to 15 characters.
class DataFormat {
 public:
  DataFormat() = default;

  /// Parse "i32 vf64 str"; throws ParseError on unknown tokens.
  explicit DataFormat(std::string_view format_string);

  std::span<const DataType> fields() const noexcept {
    if (!spilled_.empty()) return spilled_;
    return {inline_.data(), count_};
  }
  std::size_t arity() const noexcept { return fields().size(); }
  const std::string& to_string() const noexcept { return text_; }

  /// True when `values` matches this format field-for-field.
  bool matches(std::span<const DataValue> values) const noexcept;

  friend bool operator==(const DataFormat&, const DataFormat&) = default;

 private:
  static constexpr std::size_t kInlineFields = 15;

  std::array<DataType, kInlineFields> inline_{};
  std::uint8_t count_ = 0;  ///< fields in inline_
  /// Every field, once there are more than kInlineFields (heap-allocated).
  std::vector<DataType> spilled_;
  std::string text_;
};

/// Serialize values (which must match `format`) into `writer`.
void pack_values(BinaryWriter& writer, const DataFormat& format,
                 std::span<const DataValue> values);

/// Scatter-gather serialization: scalars and prefixes go to the writer's
/// scratch block, large payloads are referenced in place (no memcpy).  The
/// values must outlive any use of the writer's segment list.
void pack_values_segments(SegmentWriter& writer, const DataFormat& format,
                          std::span<const DataValue> values);

/// Deserialize a value list matching `format`; throws CodecError on mismatch.
std::vector<DataValue> unpack_values(BinaryReader& reader, const DataFormat& format);

/// Like unpack_values, but the reader's input is the span of `backing`:
/// `bytes` fields become subviews aliasing it instead of copies.
std::vector<DataValue> unpack_values_backed(BinaryReader& reader,
                                            const DataFormat& format,
                                            const BufferView& backing);

/// Where one serialized field's contents sit in a reader's input.  A scalar,
/// string, blob or numeric vector occupies the `bytes` bytes at `offset`,
/// after its length prefix if it has one.  A string vector's characters are
/// not contiguous: for it, `offset` is where its first string's prefix
/// starts and `bytes` is their total (value_payload_bytes' accounting).
struct FieldSpan {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Advance the reader past one serialized field of `type` and return where
/// its contents sit; throws CodecError on truncation or a corrupt count.
FieldSpan skip_field(BinaryReader& reader, DataType type);

/// Validate the structure of a serialized value list without materializing
/// it: advances the reader past the values, throws CodecError on truncation
/// or corrupt counts, and returns the payload byte total (same accounting as
/// value_payload_bytes summed over the fields).
std::size_t skim_values(BinaryReader& reader, const DataFormat& format);

/// Rough in-memory footprint of a value, used for throughput accounting.
std::size_t value_payload_bytes(const DataValue& value) noexcept;

/// Render a value for diagnostics ("[1, 2, 3]", "\"abc\"", "42").
std::string value_to_string(const DataValue& value);

}  // namespace tbon
