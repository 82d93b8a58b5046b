// Seeded inputs of the three benchmark workloads and the exact checks on
// what the front-end receives.
//
// Everything the tree is fed derives from the run's seed: the 32-function
// performance reports (integer-valued doubles, so every tree sum is exact),
// the 64 KiB relay payloads (a window of a per-back-end byte pattern chosen
// by the payload's sequence number, which also rides in the packet tag), and
// each back-end's start offset.  The front-end recomputes the
// expected value of every aggregate and payload from the same seed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer.hpp"

namespace perfbench {

enum class Workload { kReduceFlood, kReducePaced, kRelay64k };

inline Workload parse_workload(const std::string& name) {
  if (name == "reduce-flood") return Workload::kReduceFlood;
  if (name == "reduce-paced") return Workload::kReducePaced;
  if (name == "relay-64k") return Workload::kRelay64k;
  throw std::invalid_argument("unknown workload: " + name);
}

inline constexpr std::uint32_t kBackends = 4;  ///< Topology::balanced(2, 2)
inline constexpr std::size_t kFunctions = 32;  ///< the paper's 32-function report
inline constexpr std::size_t kPayloadBytes = 64 * 1024;
inline constexpr std::size_t kPatternSlack = 4096;
/// reduce-paced offered load: waves per second (4 leaf packets per wave).
inline constexpr double kPacedWavesPerSecond = 20'000.0;

/// splitmix64: a small, well-mixed generator; the whole input set is a pure
/// function of the seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class Inputs {
 public:
  Inputs(Workload workload, std::uint64_t seed) : workload_(workload) {
    SplitMix rng(seed * 0x100000001B3ull + static_cast<std::uint64_t>(workload));
    // Report of back-end r for wave k: base[r][f] + k * step[r][f].  Values
    // stay below 2^40 for any reachable wave count, so sums are exact.
    for (std::uint32_t r = 0; r < kBackends; ++r) {
      for (std::size_t f = 0; f < kFunctions; ++f) {
        base_[r][f] = static_cast<double>(rng.next() % (1u << 20));
        step_[r][f] = static_cast<double>(1 + rng.next() % 1024);
        base_sum_[f] += base_[r][f];
        step_sum_[f] += step_[r][f];
      }
    }
    for (std::uint32_t r = 0; r < kBackends; ++r) {
      tbon::Bytes pattern(kPayloadBytes + kPatternSlack);
      for (std::byte& b : pattern) b = static_cast<std::byte>(rng.next() & 0xff);
      pattern_[r] = std::make_shared<const tbon::Buffer>(std::move(pattern));
    }
    period_ns_ = static_cast<std::int64_t>(1e9 / kPacedWavesPerSecond);
    for (std::uint32_t r = 0; r < kBackends; ++r) {
      phase_ns_[r] = static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(period_ns_));
      max_phase_ns_ = phase_ns_[r] > max_phase_ns_ ? phase_ns_[r] : max_phase_ns_;
    }
  }

  bool is_relay() const noexcept { return workload_ == Workload::kRelay64k; }
  bool is_paced() const noexcept { return workload_ == Workload::kReducePaced; }

  /// Gap between consecutive waves of one back-end (paced only).
  std::int64_t period_ns() const noexcept { return period_ns_; }
  /// Seeded start offset of back-end `rank` within one period.
  std::int64_t phase_ns(std::uint32_t rank) const { return phase_ns_.at(rank); }
  /// A wave is complete once its last contributor was due.
  std::int64_t max_phase_ns() const noexcept { return max_phase_ns_; }

  /// End-to-end window of the open-ended (closed-loop) phase: a back-end
  /// sends its item n only after the front-end has received its item
  /// n - window.  The tree's credits bound every channel but not the
  /// front-end's result queue; this bounds that too.
  std::uint64_t window() const noexcept { return is_relay() ? 128 : 1024; }
  /// The front-end acknowledges after every this many received items.
  std::uint64_t ack_every() const noexcept { return is_relay() ? 32 : 128; }

  /// Back-end `rank`'s performance report for `wave`.
  std::vector<double> report(std::uint32_t rank, std::uint64_t wave) const {
    std::vector<double> values(kFunctions);
    const auto k = static_cast<double>(wave);
    for (std::size_t f = 0; f < kFunctions; ++f) values[f] = base_[rank][f] + k * step_[rank][f];
    return values;
  }

  /// True when `sum` is exactly the tree-wide sum of every report of `wave`.
  bool check_sum(const std::vector<double>& sum, std::uint64_t wave) const {
    if (sum.size() != kFunctions) return false;
    const auto k = static_cast<double>(wave);
    for (std::size_t f = 0; f < kFunctions; ++f) {
      if (sum[f] != base_sum_[f] + k * step_sum_[f]) return false;
    }
    return true;
  }

  /// Relay payload `seq` of back-end `rank`: a 64 KiB window of the
  /// back-end's pattern at an offset that moves with the sequence number.
  /// The view shares the pattern buffer, so building it copies nothing.
  tbon::BufferView payload(std::uint32_t rank, std::uint64_t seq) const {
    return tbon::BufferView(pattern_.at(rank), offset(seq), kPayloadBytes);
  }

  /// True when `bytes` is exactly payload `seq` of back-end `rank`.
  bool check_payload(std::uint32_t rank, std::uint64_t seq,
                     std::span<const std::byte> bytes) const {
    return rank < kBackends && bytes.size() == kPayloadBytes &&
           std::memcmp(bytes.data(), pattern_[rank]->data() + offset(seq), kPayloadBytes) == 0;
  }

 private:
  static std::size_t offset(std::uint64_t seq) noexcept {
    return static_cast<std::size_t>((seq * 61) % kPatternSlack);
  }

  Workload workload_;
  std::array<std::array<double, kFunctions>, kBackends> base_{};
  std::array<std::array<double, kFunctions>, kBackends> step_{};
  std::array<double, kFunctions> base_sum_{};
  std::array<double, kFunctions> step_sum_{};
  std::array<tbon::BufferPtr, kBackends> pattern_;
  std::int64_t period_ns_ = 0;
  std::array<std::int64_t, kBackends> phase_ns_{};
  std::int64_t max_phase_ns_ = 0;
};

}  // namespace perfbench
