// Heap allocations on the data path, counted with a replacement global
// operator new (this binary only), and the first values() of a wire-backed
// packet read from many threads at once.
//
// The pinned wave is what each interior node of a process-mode tree does per
// `sum` wave on the reduce-flood workload: decode a batch frame holding two
// children's vf64[32] reports, sum them, and serialize the result for the
// parent.  With the in-frame fold that costs 12 allocations or fewer; the
// value path took 23 (7 + 8 + 8).
//
// The batch-frame cases pin a leaf's and a relay's frame of 32 such reports:
// encoding one is the frame's single allocation, and decoding one costs a
// packet object per entry plus the shared frame and the packet list.  Every
// packet carries a DataFormat, which must allocate nothing to build or copy.
// A lone packet written to a socket costs at most three allocations, two
// when it is relayed verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "core/coalesce.hpp"
#include "core/fd_link.hpp"
#include "core/protocol.hpp"
#include "core/registry.hpp"
#include "core/runtime.hpp"
#include "transport/fd.hpp"

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

template <typename Body>
std::uint64_t allocations_of(Body&& body) {
  const std::uint64_t start = allocations();
  body();
  return allocations() - start;
}

std::vector<PacketPtr> thirty_two_reports() {
  std::vector<PacketPtr> reports;
  for (std::uint32_t rank = 0; rank < 32; ++rank) reports.push_back(report(rank));
  return reports;
}

TEST(AllocationBudget, BuildingOrCopyingAFormatAllocatesNothing) {
  std::optional<DataFormat> built;
  EXPECT_EQ(allocations_of([&] { built.emplace("vf64"); }), 0u);
  std::optional<DataFormat> copied;
  EXPECT_EQ(allocations_of([&] { copied.emplace(*built); }), 0u);
  EXPECT_EQ(*copied, *built);
  ASSERT_EQ(copied->arity(), 1u);
  EXPECT_EQ(copied->fields()[0], DataType::kVecFloat64);
}

TEST(AllocationBudget, BatchFrameOfOwnedReportsIsOneAllocation) {
  const std::vector<PacketPtr> reports = thirty_two_reports();
  Bytes frame;
  EXPECT_EQ(allocations_of([&] { frame = encode_batch_frame(reports); }), 1u);
  // Byte for byte what serializing each report on its own gives.
  BinaryReader reader(frame);
  EXPECT_EQ(reader.get<std::uint32_t>(), kBatchMarker);
  ASSERT_EQ(reader.get<std::uint32_t>(), reports.size());
  for (const PacketPtr& packet : reports) {
    BinaryWriter alone;
    packet->serialize(alone);
    const auto length = reader.get<std::uint32_t>();
    ASSERT_EQ(length, alone.size());
    const auto entry = reader.take_span(length);
    EXPECT_TRUE(std::equal(entry.begin(), entry.end(), alone.bytes().begin()));
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(AllocationBudget, BatchFrameOfWireBackedReportsIsOneAllocation) {
  const Bytes frame = encode_batch_frame(thirty_two_reports());
  const std::vector<PacketPtr> decoded = decode_batch_frame(frame);
  Bytes relayed;
  EXPECT_EQ(allocations_of([&] { relayed = encode_batch_frame(decoded); }), 1u);
  EXPECT_EQ(relayed, frame);
}

TEST(AllocationBudget, DecodingABatchFrameOfThirtyTwoReports) {
  Bytes frame = encode_batch_frame(thirty_two_reports());
  std::vector<PacketPtr> decoded;
  const std::uint64_t count =
      allocations_of([&] { decoded = decode_batch_frame(std::move(frame)); });
  std::printf("allocations: decode of 32 entries %llu\n",
              static_cast<unsigned long long>(count));
  EXPECT_LE(count, 35u);
  ASSERT_EQ(decoded.size(), 32u);
  EXPECT_EQ(decoded.back()->get_vf64(0).front(), 31.0);
}

// ---- single-packet socket frames --------------------------------------------
//
// A process-mode channel writes a lone packet (every credit grant, every
// 64 KiB relay payload) as one frame: the writer's scratch block and piece
// list, the resolved segment list, and no heap iovec array.

/// Fewest allocations over a few sends of `packet` through a reader-thread
/// pump's raw link.  The pump's reader thread shares the counter, so the
/// least of several identical sends is the send's own cost.
std::uint64_t single_frame_allocations(const PacketPtr& packet) {
  auto [mine, theirs] = make_socketpair();
  ReaderPump pump;
  std::shared_ptr<Link> link;
  pump.open(std::move(mine), {.inbox = std::make_shared<Inbox>(16)},
            [&link](std::shared_ptr<Link> raw) { link = std::move(raw); });
  std::uint64_t fewest = ~std::uint64_t{0};
  bool sent = true;
  for (int i = 0; i < 8; ++i) {
    fewest = std::min(fewest, allocations_of([&] { sent = link->send(packet) && sent; }));
  }
  EXPECT_TRUE(sent);
  theirs.reset();  // the reader stops at EOF
  pump.stop();
  std::printf("allocations: one single-packet frame %llu\n",
              static_cast<unsigned long long>(fewest));
  return fewest;
}

TEST(AllocationBudget, SingleFrameCreditGrantIsAtMostThreeAllocations) {
  EXPECT_LE(single_frame_allocations(make_credit_packet(32)), 3u);
}

TEST(AllocationBudget, SingleFrameOwnedReportIsAtMostThreeAllocations) {
  EXPECT_LE(single_frame_allocations(report(0)), 3u);
}

TEST(AllocationBudget, SingleFrameRelayedReportIsAtMostTwoAllocations) {
  // A relay hop writes a wire-backed packet verbatim: no scratch block.
  const PacketPtr owned = report(0);
  const std::vector<PacketPtr> relayed = decode_batch_frame(encode_batch_frame({&owned, 1}));
  EXPECT_LE(single_frame_allocations(relayed.front()), 2u);
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
