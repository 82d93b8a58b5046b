#include "common/datavalue.hpp"

#include <sstream>

namespace tbon {
namespace {

constexpr std::string_view kTypeNames[] = {
    "i32", "i64", "u64", "f64", "str", "bytes", "vi64", "vf64", "vstr",
};

}  // namespace

std::string_view type_name(DataType type) noexcept {
  return kTypeNames[static_cast<std::size_t>(type)];
}

DataType parse_type(std::string_view token) {
  for (std::size_t i = 0; i < std::size(kTypeNames); ++i) {
    if (kTypeNames[i] == token) return static_cast<DataType>(i);
  }
  throw ParseError("unknown format token '" + std::string(token) + "'");
}

DataType type_of(const DataValue& value) noexcept {
  return static_cast<DataType>(value.index());
}

DataFormat::DataFormat(std::string_view format_string) : text_(format_string) {
  std::size_t pos = 0;
  while (pos < format_string.size()) {
    while (pos < format_string.size() && format_string[pos] == ' ') ++pos;
    if (pos >= format_string.size()) break;
    std::size_t end = format_string.find(' ', pos);
    if (end == std::string_view::npos) end = format_string.size();
    const DataType type = parse_type(format_string.substr(pos, end - pos));
    if (count_ < kInlineFields) {
      inline_[count_++] = type;
    } else {
      if (spilled_.empty()) spilled_.assign(inline_.begin(), inline_.end());
      spilled_.push_back(type);
    }
    pos = end;
  }
}

bool DataFormat::matches(std::span<const DataValue> values) const noexcept {
  const std::span<const DataType> types = fields();
  if (values.size() != types.size()) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (type_of(values[i]) != types[i]) return false;
  }
  return true;
}

void pack_values(BinaryWriter& writer, const DataFormat& format,
                 std::span<const DataValue> values) {
  if (!format.matches(values)) {
    throw CodecError("payload does not match format '" + format.to_string() + "'");
  }
  for (const DataValue& v : values) {
    switch (type_of(v)) {
      case DataType::kInt32:
        writer.put(std::get<std::int32_t>(v));
        break;
      case DataType::kInt64:
        writer.put(std::get<std::int64_t>(v));
        break;
      case DataType::kUInt64:
        writer.put(std::get<std::uint64_t>(v));
        break;
      case DataType::kFloat64:
        writer.put(std::get<double>(v));
        break;
      case DataType::kString: {
        const auto& s = std::get<std::string>(v);
        if (!s.empty()) CopyStats::note(s.size());
        writer.put_string(s);
        break;
      }
      case DataType::kBytes: {
        const BufferView& view = std::get<BufferView>(v);
        if (!view.empty()) CopyStats::note(view.size());
        writer.put_bytes(view);
        break;
      }
      case DataType::kVecInt64: {
        const auto& vec = std::get<std::vector<std::int64_t>>(v);
        if (!vec.empty()) CopyStats::note(vec.size() * 8);
        writer.put_vector<std::int64_t>(vec);
        break;
      }
      case DataType::kVecFloat64: {
        const auto& vec = std::get<std::vector<double>>(v);
        if (!vec.empty()) CopyStats::note(vec.size() * 8);
        writer.put_vector<double>(vec);
        break;
      }
      case DataType::kVecString: {
        const auto& strings = std::get<std::vector<std::string>>(v);
        writer.put(static_cast<std::uint32_t>(strings.size()));
        for (const auto& s : strings) {
          if (!s.empty()) CopyStats::note(s.size());
          writer.put_string(s);
        }
        break;
      }
    }
  }
}

namespace {

std::span<const std::byte> arithmetic_payload(const void* data, std::size_t bytes) {
  // Little-endian host (static_assert'd in archive.hpp): the in-memory
  // layout of a contiguous arithmetic vector IS its wire form.
  return {static_cast<const std::byte*>(data), bytes};
}

}  // namespace

void pack_values_segments(SegmentWriter& writer, const DataFormat& format,
                          std::span<const DataValue> values) {
  if (!format.matches(values)) {
    throw CodecError("payload does not match format '" + format.to_string() + "'");
  }
  for (const DataValue& v : values) {
    switch (type_of(v)) {
      case DataType::kInt32:
        writer.put(std::get<std::int32_t>(v));
        break;
      case DataType::kInt64:
        writer.put(std::get<std::int64_t>(v));
        break;
      case DataType::kUInt64:
        writer.put(std::get<std::uint64_t>(v));
        break;
      case DataType::kFloat64:
        writer.put(std::get<double>(v));
        break;
      case DataType::kString: {
        const auto& s = std::get<std::string>(v);
        writer.put(static_cast<std::uint32_t>(s.size()));
        writer.put_payload({reinterpret_cast<const std::byte*>(s.data()), s.size()});
        break;
      }
      case DataType::kBytes: {
        const BufferView& view = std::get<BufferView>(v);
        writer.put(static_cast<std::uint32_t>(view.size()));
        writer.put_payload(view);
        break;
      }
      case DataType::kVecInt64: {
        const auto& vec = std::get<std::vector<std::int64_t>>(v);
        writer.put(static_cast<std::uint32_t>(vec.size()));
        writer.put_payload(arithmetic_payload(vec.data(), vec.size() * 8));
        break;
      }
      case DataType::kVecFloat64: {
        const auto& vec = std::get<std::vector<double>>(v);
        writer.put(static_cast<std::uint32_t>(vec.size()));
        writer.put_payload(arithmetic_payload(vec.data(), vec.size() * 8));
        break;
      }
      case DataType::kVecString: {
        const auto& strings = std::get<std::vector<std::string>>(v);
        writer.put(static_cast<std::uint32_t>(strings.size()));
        for (const auto& s : strings) {
          writer.put(static_cast<std::uint32_t>(s.size()));
          writer.put_payload({reinterpret_cast<const std::byte*>(s.data()), s.size()});
        }
        break;
      }
    }
  }
}

namespace {

std::vector<DataValue> unpack_values_impl(BinaryReader& reader, const DataFormat& format,
                                          const BufferView* backing) {
  std::vector<DataValue> values;
  values.reserve(format.arity());
  for (DataType type : format.fields()) {
    switch (type) {
      case DataType::kInt32:
        values.emplace_back(reader.get<std::int32_t>());
        break;
      case DataType::kInt64:
        values.emplace_back(reader.get<std::int64_t>());
        break;
      case DataType::kUInt64:
        values.emplace_back(reader.get<std::uint64_t>());
        break;
      case DataType::kFloat64:
        values.emplace_back(reader.get<double>());
        break;
      case DataType::kString: {
        const auto before = reader.remaining();
        values.emplace_back(reader.get_string());
        if (before > reader.remaining() + 4) CopyStats::note(before - reader.remaining() - 4);
        break;
      }
      case DataType::kBytes: {
        const auto n = reader.get<std::uint32_t>();
        if (backing != nullptr) {
          // Alias the backing frame: no copy, the view pins the frame.
          const std::size_t offset = reader.position();
          reader.skip(n);
          values.emplace_back(backing->subview(offset, n));
        } else {
          if (n != 0) CopyStats::note(n);
          const auto bytes = reader.take_span(n);
          values.emplace_back(BufferView(Bytes(bytes.begin(), bytes.end())));
        }
        break;
      }
      case DataType::kVecInt64: {
        auto vec = reader.get_vector<std::int64_t>();
        if (!vec.empty()) CopyStats::note(vec.size() * 8);
        values.emplace_back(std::move(vec));
        break;
      }
      case DataType::kVecFloat64: {
        auto vec = reader.get_vector<double>();
        if (!vec.empty()) CopyStats::note(vec.size() * 8);
        values.emplace_back(std::move(vec));
        break;
      }
      case DataType::kVecString: {
        const auto n = reader.get<std::uint32_t>();
        // Every string needs at least its 4-byte length prefix; reject a
        // corrupt count before reserving memory for it.
        if (n > reader.remaining() / 4) {
          throw CodecError("string-vector length exceeds remaining payload");
        }
        std::vector<std::string> strings;
        strings.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          strings.push_back(reader.get_string());
          if (!strings.back().empty()) CopyStats::note(strings.back().size());
        }
        values.emplace_back(std::move(strings));
        break;
      }
    }
  }
  return values;
}

}  // namespace

std::vector<DataValue> unpack_values(BinaryReader& reader, const DataFormat& format) {
  return unpack_values_impl(reader, format, nullptr);
}

std::vector<DataValue> unpack_values_backed(BinaryReader& reader,
                                            const DataFormat& format,
                                            const BufferView& backing) {
  return unpack_values_impl(reader, format, &backing);
}

FieldSpan skip_field(BinaryReader& reader, DataType type) {
  switch (type) {
    case DataType::kInt32:
      reader.skip(4);
      return {reader.position() - 4, 4};
    case DataType::kInt64:
    case DataType::kUInt64:
    case DataType::kFloat64:
      reader.skip(8);
      return {reader.position() - 8, 8};
    case DataType::kString:
    case DataType::kBytes: {
      const std::size_t n = reader.get<std::uint32_t>();
      reader.skip(n);
      return {reader.position() - n, n};
    }
    case DataType::kVecInt64:
    case DataType::kVecFloat64: {
      const std::size_t bytes = std::size_t{reader.get<std::uint32_t>()} * 8;
      reader.skip(bytes);
      return {reader.position() - bytes, bytes};
    }
    case DataType::kVecString: {
      const auto n = reader.get<std::uint32_t>();
      if (n > reader.remaining() / 4) {
        throw CodecError("string-vector length exceeds remaining payload");
      }
      FieldSpan span{reader.position(), 0};
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto len = reader.get<std::uint32_t>();
        reader.skip(len);
        span.bytes += len;
      }
      return span;
    }
  }
  return {};
}

std::size_t skim_values(BinaryReader& reader, const DataFormat& format) {
  std::size_t payload = 0;
  for (DataType type : format.fields()) payload += skip_field(reader, type).bytes;
  return payload;
}

std::size_t value_payload_bytes(const DataValue& value) noexcept {
  switch (type_of(value)) {
    case DataType::kInt32:
      return 4;
    case DataType::kInt64:
    case DataType::kUInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kString:
      return std::get<std::string>(value).size();
    case DataType::kBytes:
      return std::get<BufferView>(value).size();
    case DataType::kVecInt64:
      return std::get<std::vector<std::int64_t>>(value).size() * 8;
    case DataType::kVecFloat64:
      return std::get<std::vector<double>>(value).size() * 8;
    case DataType::kVecString: {
      std::size_t total = 0;
      for (const auto& s : std::get<std::vector<std::string>>(value)) total += s.size();
      return total;
    }
  }
  return 0;
}

std::string value_to_string(const DataValue& value) {
  std::ostringstream out;
  switch (type_of(value)) {
    case DataType::kInt32:
      out << std::get<std::int32_t>(value);
      break;
    case DataType::kInt64:
      out << std::get<std::int64_t>(value);
      break;
    case DataType::kUInt64:
      out << std::get<std::uint64_t>(value);
      break;
    case DataType::kFloat64:
      out << std::get<double>(value);
      break;
    case DataType::kString:
      out << '"' << std::get<std::string>(value) << '"';
      break;
    case DataType::kBytes:
      out << "<" << std::get<BufferView>(value).size() << " bytes>";
      break;
    case DataType::kVecInt64: {
      out << '[';
      const auto& v = std::get<std::vector<std::int64_t>>(value);
      for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
      out << ']';
      break;
    }
    case DataType::kVecFloat64: {
      out << '[';
      const auto& v = std::get<std::vector<double>>(value);
      for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
      out << ']';
      break;
    }
    case DataType::kVecString: {
      out << '[';
      const auto& v = std::get<std::vector<std::string>>(value);
      for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << '"' << v[i] << '"';
      out << ']';
      break;
    }
  }
  return out.str();
}

}  // namespace tbon
