// In-memory span log of the traced run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into the tree (create, open_stream, BackEnd::send, Stream::recv_for,
// shutdown).  Each span has a name, a start and an end on CLOCK_MONOTONIC
// (shared by every process on the host), the index of its parent span in
// the same process, and the id of the wave it belongs to (-1 for spans that
// belong to no wave).  Back-end processes serialize their log and ship it
// to the front-end on the control stream when they finish; the front-end
// computes self times and writes every span out as JSON lines at exit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/timer.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t wave = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same process's log; -1 = root
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 1u << 16) : capacity_(capacity) {}

  /// Record a finished span; returns its index, or -1 once the log is full
  /// (later spans are not recorded).
  std::int32_t add(const char* name, std::int64_t wave, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1) {
    if (spans_.size() >= capacity_) return -1;
    spans_.push_back(Span{name, wave, start_ns, end_ns, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Open a span now; close() sets its end.
  std::int32_t open(const char* name, std::int64_t wave = -1, std::int32_t parent = -1) {
    const std::int64_t now = tbon::now_ns();
    return add(name, wave, now, now, parent);
  }
  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = tbon::now_ns();
  }

  void serialize(tbon::BinaryWriter& writer) const {
    writer.put<std::uint64_t>(spans_.size());
    for (const Span& s : spans_) {
      writer.put_string(s.name);
      writer.put<std::int64_t>(s.wave);
      writer.put<std::int64_t>(s.start_ns);
      writer.put<std::int64_t>(s.end_ns);
      writer.put<std::int32_t>(s.parent);
    }
  }

  static SpanLog deserialize(tbon::BinaryReader& reader) {
    const auto count = reader.get<std::uint64_t>();
    SpanLog log(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Span s;
      s.name = reader.get_string();
      s.wave = reader.get<std::int64_t>();
      s.start_ns = reader.get<std::int64_t>();
      s.end_ns = reader.get<std::int64_t>();
      s.parent = reader.get<std::int32_t>();
      log.spans_.push_back(std::move(s));
    }
    return log;
  }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by the union of its children.
  std::vector<std::int64_t> self_times() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t cursor = s.start_ns;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Append this log as JSON lines, one span per line, tagged with `proc`.
  void write_jsonl(std::FILE* out, const std::string& proc) const {
    const std::vector<std::int64_t> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"proc\":\"%s\",\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"wave\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   proc.c_str(), i, s.parent, s.name.c_str(), static_cast<long long>(s.wave),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
