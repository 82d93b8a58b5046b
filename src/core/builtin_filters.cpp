#include "core/builtin_filters.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/protocol.hpp"
#include "core/registry.hpp"
#include "core/simd_kernels.hpp"
#include "core/sync.hpp"
#include "telemetry/metrics.hpp"

namespace tbon {
namespace {

struct MinOp {
  template <typename T>
  T operator()(T a, T b) const {
    return std::min(a, b);
  }
};
struct MaxOp {
  template <typename T>
  T operator()(T a, T b) const {
    return std::max(a, b);
  }
};
struct SumOp {
  template <typename T>
  T operator()(T a, T b) const {
    return static_cast<T>(a + b);
  }
};

/// Shared implementation for sum/min/max: reduce numeric fields across the
/// batch with `Op`, preserving the packet format.
///
/// Two paths give the same bytes.  When every input is wire-backed (always
/// the case in the process and remote instantiations), the first input's
/// frame is copied once and the other inputs' numeric fields are folded
/// into the copy in place; the result is a wire-backed packet with the first
/// input's header, which the next hop relays verbatim.  Otherwise the
/// values are materialized and folded into an owned packet.  Both paths
/// fold every numeric field through the same out-of-line reduce_scalar /
/// reduce_array, so they agree bit for bit, down to which of two NaNs a sum
/// propagates (IEEE 754 leaves that to the operand order the compiler picks,
/// and one copy of the code picks it once).
template <typename Op>
class NumericReduceFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    // A reduction over one packet is the packet itself (byte-identical).
    if (in.size() == 1) {
      out.push_back(in.front());
      return;
    }
    const bool on_wire = std::all_of(in.begin(), in.end(),
                                     [](const PacketPtr& p) { return p->has_wire(); });
    out.push_back(on_wire ? fold_frames(in) : fold_values(in));
  }

  /// Each packet of a coalesced batch is its own single-packet wave, and a
  /// reduction over one packet is the packet itself — forward the inputs
  /// instead of rebuilding each one.
  void filter_batch(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                    FilterContext&) override {
    out.insert(out.end(), in.begin(), in.end());
  }

 private:
  static void check_format(const Packet& first, const Packet& packet) {
    if (packet.format() != first.format()) {
      throw CodecError("numeric reduction over mixed formats ('" +
                       first.format().to_string() + "' vs '" +
                       packet.format().to_string() + "')");
    }
  }

  static void check_length(std::size_t acc, std::size_t next) {
    if (next != acc) throw CodecError("numeric reduction over vectors of different lengths");
  }

  static PacketPtr fold_values(std::span<const PacketPtr> in) {
    const Packet& first = *in.front();
    std::vector<DataValue> acc = first.values();
    for (std::size_t p = 1; p < in.size(); ++p) {
      const Packet& packet = *in[p];
      check_format(first, packet);
      for (std::size_t f = 0; f < acc.size(); ++f) reduce_field(acc[f], packet.values()[f]);
    }
    return std::make_shared<const Packet>(first.stream_id(), first.tag(), first.src_rank(),
                                          first.format(), std::move(acc));
  }

  static PacketPtr fold_frames(std::span<const PacketPtr> in) {
    const Packet& first = *in.front();
    const BufferView& wire = first.wire();
    const auto frame = std::make_shared_for_overwrite<std::byte[]>(wire.size());
    std::memcpy(frame.get(), wire.data(), wire.size());
    CopyStats::note(wire.size());
    const std::size_t payload_size = first.payload_view().size();
    const std::size_t payload_offset = wire.size() - payload_size;
    const std::span<std::byte> acc(frame.get() + payload_offset, payload_size);
    for (std::size_t p = 1; p < in.size(); ++p) {
      const Packet& packet = *in[p];
      check_format(first, packet);
      fold_payload(first.format(), acc, packet.payload_view());
    }
    return std::make_shared<const Packet>(
        first.stream_id(), first.tag(), first.src_rank(), first.format(),
        BufferView(frame, frame.get(), wire.size()), payload_offset, first.payload_bytes());
  }

  /// Fold one serialized value list into another laid out by the same
  /// format, field by field; skip_field knows the layout, and both lists
  /// were validated when their packets were decoded.  The fields sit at
  /// arbitrary byte offsets, which the fold functions accept.
  static void fold_payload(const DataFormat& format, std::span<std::byte> acc,
                           std::span<const std::byte> next) {
    BinaryReader acc_reader(acc);
    BinaryReader next_reader(next);
    for (const DataType type : format.fields()) {
      const FieldSpan a = skip_field(acc_reader, type);
      const FieldSpan b = skip_field(next_reader, type);
      std::byte* const to = acc.data() + a.offset;
      const std::byte* const from = next.data() + b.offset;
      switch (type) {
        case DataType::kInt32:
          reduce_scalar<std::int32_t>(to, from);
          break;
        case DataType::kInt64:
          reduce_scalar<std::int64_t>(to, from);
          break;
        case DataType::kUInt64:
          reduce_scalar<std::uint64_t>(to, from);
          break;
        case DataType::kFloat64:
          reduce_scalar<double>(to, from);
          break;
        case DataType::kVecInt64:
          check_length(a.bytes, b.bytes);
          reduce_array<std::int64_t>(to, from, a.bytes / sizeof(std::int64_t));
          break;
        case DataType::kVecFloat64:
          check_length(a.bytes, b.bytes);
          reduce_array<double>(to, from, a.bytes / sizeof(double));
          break;
        case DataType::kString:
        case DataType::kBytes:
        case DataType::kVecString:
          // Non-numeric fields ride along unchanged (first packet wins).
          break;
      }
    }
  }

  static void reduce_field(DataValue& acc, const DataValue& next) {
    switch (type_of(acc)) {
      case DataType::kInt32:
        reduce_scalar<std::int32_t>(&std::get<std::int32_t>(acc), &std::get<std::int32_t>(next));
        break;
      case DataType::kInt64:
        reduce_scalar<std::int64_t>(&std::get<std::int64_t>(acc), &std::get<std::int64_t>(next));
        break;
      case DataType::kUInt64:
        reduce_scalar<std::uint64_t>(&std::get<std::uint64_t>(acc),
                                     &std::get<std::uint64_t>(next));
        break;
      case DataType::kFloat64:
        reduce_scalar<double>(&std::get<double>(acc), &std::get<double>(next));
        break;
      case DataType::kVecInt64:
        reduce_vector(std::get<std::vector<std::int64_t>>(acc),
                      std::get<std::vector<std::int64_t>>(next));
        break;
      case DataType::kVecFloat64:
        reduce_vector(std::get<std::vector<double>>(acc),
                      std::get<std::vector<double>>(next));
        break;
      case DataType::kString:
      case DataType::kBytes:
      case DataType::kVecString:
        // Non-numeric fields ride along unchanged (first packet wins).
        break;
    }
  }

  template <typename T>
  static void reduce_vector(std::vector<T>& acc, const std::vector<T>& next) {
    check_length(acc.size(), next.size());
    reduce_array<T>(acc.data(), next.data(), acc.size());
  }

  /// *acc = Op(*acc, *next) for one T at any byte offset.
  template <typename T>
  [[gnu::noinline]] static void reduce_scalar(void* acc, const void* next) {
    T a{};
    T b{};
    std::memcpy(&a, acc, sizeof(T));
    std::memcpy(&b, next, sizeof(T));
    a = Op{}(a, b);
    std::memcpy(acc, &a, sizeof(T));
  }

  /// acc[i] = Op(acc[i], next[i]) over `n` Ts at any byte offset, through
  /// the vectorized kernels (bit-exact with the scalar Op — see
  /// simd_kernels.hpp).
  template <typename T>
  [[gnu::noinline]] static void reduce_array(void* acc, const void* next, std::size_t n) {
    if constexpr (std::is_same_v<T, double>) {
      if constexpr (std::is_same_v<Op, SumOp>) {
        simd::add_f64(acc, next, n);
      } else if constexpr (std::is_same_v<Op, MinOp>) {
        simd::min_f64(acc, next, n);
      } else {
        simd::max_f64(acc, next, n);
      }
    } else {
      static_assert(std::is_same_v<T, std::int64_t>);
      if constexpr (std::is_same_v<Op, SumOp>) {
        simd::add_i64(acc, next, n);
      } else if constexpr (std::is_same_v<Op, MinOp>) {
        simd::min_i64(acc, next, n);
      } else {
        simd::max_i64(acc, next, n);
      }
    }
  }
};

/// Element-wise arithmetic mean (see header for the balanced-tree caveat).
class AvgFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext& ctx) override {
    std::vector<PacketPtr> summed;
    sum_.filter(in, summed, ctx);
    const Packet& total = *summed.front();
    const double n = static_cast<double>(in.size());
    std::vector<DataValue> averaged = total.values();
    for (DataValue& field : averaged) {
      switch (type_of(field)) {
        case DataType::kFloat64:
          std::get<double>(field) /= n;
          break;
        case DataType::kVecFloat64: {
          auto& vec = std::get<std::vector<double>>(field);
          simd::div_f64(vec.data(), n, vec.size());
          break;
        }
        case DataType::kInt32:
          std::get<std::int32_t>(field) =
              static_cast<std::int32_t>(std::get<std::int32_t>(field) / n);
          break;
        case DataType::kInt64:
          std::get<std::int64_t>(field) =
              static_cast<std::int64_t>(static_cast<double>(std::get<std::int64_t>(field)) / n);
          break;
        case DataType::kUInt64:
          std::get<std::uint64_t>(field) = static_cast<std::uint64_t>(
              static_cast<double>(std::get<std::uint64_t>(field)) / n);
          break;
        case DataType::kVecInt64:
          for (std::int64_t& v : std::get<std::vector<std::int64_t>>(field)) {
            v = static_cast<std::int64_t>(static_cast<double>(v) / n);
          }
          break;
        default:
          break;
      }
    }
    out.push_back(std::make_shared<const Packet>(total.stream_id(), total.tag(),
                                                 total.src_rank(), total.format(),
                                                 std::move(averaged)));
  }

 private:
  NumericReduceFilter<SumOp> sum_;
};

/// Exact tree-safe weighted mean: packets are "vf64 u64" (sums, weight).
class WeightedAvgFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    static const DataFormat kFormat{"vf64 u64"};
    const Packet& first = *in.front();
    if (first.format() != kFormat) {
      throw CodecError("wavg expects packets of format 'vf64 u64'");
    }
    std::vector<double> sums = first.get_vf64(0);
    std::uint64_t weight = first.get_u64(1);
    for (std::size_t p = 1; p < in.size(); ++p) {
      const Packet& packet = *in[p];
      if (packet.format() != kFormat) throw CodecError("wavg expects 'vf64 u64'");
      const auto& other = packet.get_vf64(0);
      if (other.size() != sums.size()) throw CodecError("wavg vector length mismatch");
      simd::add_f64(sums.data(), other.data(), sums.size());
      weight += packet.get_u64(1);
    }
    out.push_back(std::make_shared<const Packet>(
        first.stream_id(), first.tag(), first.src_rank(), kFormat,
        std::vector<DataValue>{std::move(sums), weight}));
  }
};

/// Tree-composable count (see header).
class CountFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    static const DataFormat kCountFormat{"u64"};
    std::uint64_t count = 0;
    for (const PacketPtr& packet : in) {
      if (packet->format() == kCountFormat) {
        count += packet->get_u64(0);
      } else {
        ++count;
      }
    }
    const Packet& first = *in.front();
    out.push_back(std::make_shared<const Packet>(
        first.stream_id(), first.tag(), first.src_rank(), kCountFormat,
        std::vector<DataValue>{count}));
  }
};

/// Concatenate vector/string fields across the batch in child order.
class ConcatFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    const Packet& first = *in.front();
    for (std::size_t p = 1; p < in.size(); ++p) {
      if (in[p]->format() != first.format()) {
        throw CodecError("concat over mixed formats");
      }
    }
    std::vector<DataValue> acc = first.values();
    if (in.size() > 1) {
      for (std::size_t f = 0; f < acc.size(); ++f) {
        if (type_of(acc[f]) == DataType::kBytes) {
          acc[f] = splice_bytes(in, f);
        } else {
          for (std::size_t p = 1; p < in.size(); ++p) {
            concat_field(acc[f], in[p]->values()[f]);
          }
        }
      }
    }
    out.push_back(std::make_shared<const Packet>(first.stream_id(), first.tag(),
                                                 first.src_rank(), first.format(),
                                                 std::move(acc)));
  }

 private:
  /// Splice byte views into one right-sized buffer: a single allocation and
  /// one pass over the inputs, instead of growing an accumulator per child.
  static BufferView splice_bytes(std::span<const PacketPtr> in, std::size_t field) {
    std::size_t total = 0;
    for (const PacketPtr& packet : in) total += packet->get_bytes(field).size();
    Bytes spliced;
    spliced.reserve(total);
    for (const PacketPtr& packet : in) {
      const BufferView& view = packet->get_bytes(field);
      if (view.empty()) continue;
      CopyStats::note(view.size());
      spliced.insert(spliced.end(), view.data(), view.data() + view.size());
    }
    return BufferView(std::move(spliced));
  }

  static void concat_field(DataValue& acc, const DataValue& next) {
    switch (type_of(acc)) {
      case DataType::kString:
        std::get<std::string>(acc) += std::get<std::string>(next);
        break;
      case DataType::kVecInt64: {
        auto& dst = std::get<std::vector<std::int64_t>>(acc);
        const auto& src = std::get<std::vector<std::int64_t>>(next);
        dst.insert(dst.end(), src.begin(), src.end());
        break;
      }
      case DataType::kVecFloat64: {
        auto& dst = std::get<std::vector<double>>(acc);
        const auto& src = std::get<std::vector<double>>(next);
        dst.insert(dst.end(), src.begin(), src.end());
        break;
      }
      case DataType::kVecString: {
        auto& dst = std::get<std::vector<std::string>>(acc);
        const auto& src = std::get<std::vector<std::string>>(next);
        dst.insert(dst.end(), src.begin(), src.end());
        break;
      }
      default:
        throw CodecError(
            "concat requires vector or string fields (wrap scalars in "
            "one-element vectors at the back-ends)");
    }
  }
};

/// Merge NodeTelemetry record sets from the batch into one packet (the
/// telemetry stream's upstream filter): per node id the freshest record —
/// highest publish seq — wins, so the merge is associative, commutative and
/// immune to duplicate delivery after re-adoption.  Malformed payloads are
/// skipped: observability must never take the tree down.
class MetricsMergeFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext& ctx) override {
    if (in.size() == 1) {
      // Nothing to merge: forward the packet as-is instead of decoding and
      // re-encoding records we only relay.  A wire-backed packet keeps its
      // frame, so the next hop sends it verbatim.
      out.push_back(in.front());
      return;
    }
    std::vector<NodeTelemetry> merged;
    for (const PacketPtr& packet : in) {
      try {
        const auto records = deserialize_records(telemetry_packet_records(*packet));
        merged = merge_records(merged, records);
      } catch (const std::exception& error) {
        TBON_WARN("node " << ctx.node_id << " skipping malformed telemetry payload: "
                          << error.what());
      }
    }
    if (merged.empty()) return;
    const Packet& first = *in.front();
    out.push_back(Packet::make(first.stream_id(), first.tag(), first.src_rank(),
                               "bytes", {serialize_records(merged)}));
  }
};

/// Forward every input packet unchanged.
class PassthroughFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    out.insert(out.end(), in.begin(), in.end());
  }

  /// One append for the whole coalesced batch instead of a virtual call per
  /// packet; identical output by construction.
  void filter_batch(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                    FilterContext&) override {
    out.insert(out.end(), in.begin(), in.end());
  }
};

template <typename F>
std::unique_ptr<TransformFilter> make_simple(const FilterContext&) {
  return std::make_unique<F>();
}

}  // namespace

void register_builtin_filters(FilterRegistry& registry) {
  registry.register_transform("sum", &make_simple<NumericReduceFilter<SumOp>>);
  registry.register_transform("min", &make_simple<NumericReduceFilter<MinOp>>);
  registry.register_transform("max", &make_simple<NumericReduceFilter<MaxOp>>);
  registry.register_transform("avg", &make_simple<AvgFilter>);
  registry.register_transform("wavg", &make_simple<WeightedAvgFilter>);
  registry.register_transform("count", &make_simple<CountFilter>);
  registry.register_transform("concat", &make_simple<ConcatFilter>);
  registry.register_transform("passthrough", &make_simple<PassthroughFilter>);
  registry.register_transform("metrics_merge", &make_simple<MetricsMergeFilter>);

  registry.register_sync("wait_for_all", [](const FilterContext& ctx) {
    return std::unique_ptr<SyncPolicy>(std::make_unique<WaitForAllSync>(ctx));
  });
  registry.register_sync("time_out", [](const FilterContext& ctx) {
    return std::unique_ptr<SyncPolicy>(std::make_unique<TimeOutSync>(ctx));
  });
  registry.register_sync("null", [](const FilterContext& ctx) {
    return std::unique_ptr<SyncPolicy>(std::make_unique<NullSync>(ctx));
  });
}

}  // namespace tbon
