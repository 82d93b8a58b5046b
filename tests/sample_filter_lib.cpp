// A dynamically loadable filter library, as an application developer would
// write one (paper §2.2: "new filters may be loaded on-demand into
// instantiated networks; an interface similar to dlopen is used").
//
// Built as a shared object by tests/CMakeLists.txt; loaded at runtime by
// test_dynamic_filters.cpp through FilterRegistry::load_library() and the
// LOAD_FILTER control packet.
#include "core/registry.hpp"

namespace {

using namespace tbon;

/// Computes per-wave geometric means of f64 fields — an aggregation the
/// built-in set does not provide, proving the filter really came from here.
class GeometricMeanFilter final : public TransformFilter {
 public:
  void filter(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
              FilterContext&) override {
    // Tree-safe encoding: carry (sum of logs, count) and let the front-end
    // exponentiate; format "f64 u64".
    double log_sum = 0.0;
    std::uint64_t count = 0;
    for (const PacketPtr& packet : in) {
      log_sum += packet->get_f64(0);
      count += packet->get_u64(1);
    }
    const Packet& first = *in.front();
    out.push_back(Packet::make(first.stream_id(), first.tag(), first.src_rank(),
                               "f64 u64", {log_sum, count}));
  }
};

/// A sync policy that releases packets in pairs, demonstrating that sync
/// filters are extensible too (MRNet's built-ins are not the ceiling).
class PairSync final : public SyncPolicy {
 public:
  void on_packet(std::size_t, PacketPtr packet, FilterContext&) override {
    pending_.push_back(std::move(packet));
  }
  std::vector<Batch> drain_ready(std::int64_t, FilterContext&) override {
    std::vector<Batch> batches;
    while (pending_.size() >= 2) {
      batches.push_back(Batch{pending_[0], pending_[1]});
      pending_.erase(pending_.begin(), pending_.begin() + 2);
    }
    return batches;
  }
  std::vector<Batch> flush(FilterContext&) override {
    std::vector<Batch> batches;
    if (!pending_.empty()) batches.push_back(std::move(pending_));
    pending_.clear();
    return batches;
  }

 private:
  Batch pending_;
};

}  // namespace

extern "C" void tbon_register_filters(tbon::FilterRegistry* registry) {
  registry->register_transform("geomean", [](const tbon::FilterContext&) {
    return std::unique_ptr<tbon::TransformFilter>(
        std::make_unique<GeometricMeanFilter>());
  });
  registry->register_sync("pairs", [](const tbon::FilterContext&) {
    return std::unique_ptr<tbon::SyncPolicy>(std::make_unique<PairSync>());
  });
}
