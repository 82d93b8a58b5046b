// Heap allocations on a reducing hop, counted with a replacement global
// operator new (this binary only), and the first values() of a wire-backed
// packet read from many threads at once.
//
// The pinned wave is what each interior node of a process-mode tree does per
// `sum` wave on the reduce-flood workload: decode a batch frame holding two
// children's vf64[32] reports, sum them, and serialize the result for the
// parent.  With the in-frame fold that costs 12 allocations or fewer; the
// value path took 23 (7 + 8 + 8).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "core/coalesce.hpp"
#include "core/protocol.hpp"
#include "core/registry.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tbon {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

PacketPtr report(std::uint32_t rank) {
  std::vector<double> values(32);
  std::iota(values.begin(), values.end(), static_cast<double>(rank));
  return Packet::make(1, kFirstAppTag, rank, "vf64", {std::move(values)});
}

TEST(AllocationBudget, InteriorSumWaveOfTwoVf64Reports) {
  const PacketPtr reports[] = {report(0), report(1)};
  Bytes frame = encode_batch_frame(reports);
  FilterContext ctx;
  ctx.num_children = 2;
  const auto sum = FilterRegistry::instance().make_transform("sum", ctx);
  std::vector<PacketPtr> out;
  out.reserve(1);

  const std::uint64_t start = allocations();
  const std::vector<PacketPtr> decoded = decode_batch_frame(std::move(frame));
  const std::uint64_t after_decode = allocations();
  sum->filter(decoded, out, ctx);
  const std::uint64_t after_sum = allocations();
  BinaryWriter writer;
  out.front()->serialize(writer);
  const std::uint64_t after_encode = allocations();

  std::printf("allocations: decode %llu, sum %llu, encode %llu\n",
              static_cast<unsigned long long>(after_decode - start),
              static_cast<unsigned long long>(after_sum - after_decode),
              static_cast<unsigned long long>(after_encode - after_sum));
  EXPECT_LE(after_encode - start, 12u);
  // The result is right, too: element-wise i + (i + 1).
  const auto& summed = out.front()->get_vf64(0);
  ASSERT_EQ(summed.size(), 32u);
  for (std::size_t i = 0; i < summed.size(); ++i) {
    EXPECT_EQ(summed[i], 2.0 * static_cast<double>(i) + 1.0);
  }
}

TEST(ConcurrentValues, FirstReadFromEightThreadsSeesOneVector) {
  constexpr int kThreads = 8;
  std::vector<double> expected(32);
  std::iota(expected.begin(), expected.end(), 0.5);
  const PacketPtr owned = Packet::make(1, kFirstAppTag, 0, "vf64 str",
                                       {expected, std::string("first wins")});
  for (int round = 0; round < 50; ++round) {
    // A fresh wire-backed packet each round, at a misaligned frame offset.
    const std::vector<PacketPtr> decoded = decode_batch_frame(encode_batch_frame({&owned, 1}));
    const Packet& fresh = *decoded.front();
    std::atomic<int> arrived{0};
    std::vector<const std::vector<DataValue>*> seen(kThreads, nullptr);
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        seen[static_cast<std::size_t>(t)] = &fresh.values();
      });
    }
    for (std::thread& reader : readers) reader.join();
    for (const auto* values : seen) EXPECT_EQ(values, seen.front());
    EXPECT_EQ(fresh.get_vf64(0), expected);
    EXPECT_EQ(fresh.get_str(1), "first wins");
  }
}

}  // namespace
}  // namespace tbon
