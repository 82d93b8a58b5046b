// Benchmark trial: runs one workload on one instantiation of the tree, in a
// process of its own, and prints one JSON line with what it measured.
//
//   perfbench_trial workload=reduce-flood mode=process seed=7 warm=0.3
//                    measure=2.5 traced=0 trace_out=spans.jsonl
//
// The tree is driven only through the public API: Network::create,
// FrontEnd::open_stream, BackEnd::send, Stream::recv_for, Network::shutdown
// and, in traced runs, FrontEnd::metrics.  Every run uses the same
// deployment: Topology::balanced(2, 2), block-policy credit flow control
// with the default 64-credit window, BatchingOptions::on() and no filter
// workers.
//
// Two streams are opened, in this order, so their ids are fixed:
//   1  data: "sum" / wait_for_all (reduce-*) or passthrough / null (relay);
//   2  control: passthrough / null.  Downstream it carries GO (start time
//      and wave count), ACK (items received per back-end), STOP and FINISH;
//      upstream each back-end reports how many waves it sent and, when it
//      is done, its generator report.
//
// Load: in threaded mode one generator thread sends round-robin on the four
// BackEnd handles; in process and remote modes each back-end process runs
// its own sender loop.  reduce-flood and relay-64k send as fast as credits
// and an end-to-end window (Inputs::window) allow until STOP; every
// back-end then reports its count, and all top up to the largest so every
// wave is complete.  reduce-paced sends a fixed number of waves open loop,
// each at its scheduled time.
//
// Output keys: "attempted" and "failed" count waves (reduce) or payloads
// (relay); a wrong value, a missing item and a timeout all count as failed.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "core/packet.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace tbon;
using namespace perfbench;

constexpr std::int32_t kTagData = kFirstAppTag;
constexpr std::int32_t kTagGo = kFirstAppTag + 1;      // down: vi64 {t0_ns, waves, paced}
constexpr std::int32_t kTagStop = kFirstAppTag + 2;    // down: stop the open-ended phase
constexpr std::int32_t kTagFinish = kFirstAppTag + 3;  // down: vi64 {waves to reach}
constexpr std::int32_t kTagCount = kFirstAppTag + 4;   // up: vi64 {rank, waves sent}
constexpr std::int32_t kTagDone = kFirstAppTag + 5;    // up: bytes (GeneratorReport)
constexpr std::int32_t kTagAck = kFirstAppTag + 6;     // down: vi64 {items received per rank}

constexpr std::uint32_t kDataStream = 1;
constexpr std::uint32_t kCtlStream = 2;

/// Relay payloads carry their sequence number in the tag.
std::int32_t relay_tag(std::uint64_t seq) {
  return kTagData + static_cast<std::int32_t>(seq % (1u << 30));
}

/// One span in this many waves is recorded in traced runs (every wave is
/// still timed into the counters).  The sampling periods are prime so they
/// do not alias with the power-of-two credit windows and batch sizes.
constexpr std::uint64_t kSpanEvery = 61;
/// Closed-loop latency is sampled on one item in this many.
constexpr std::uint64_t kStampEvery = 7;
/// How long any single wait may make no progress before the item counts as
/// failed and the run stops waiting.
constexpr std::int64_t kStallNs = 10'000'000'000;
constexpr auto kPoll = std::chrono::milliseconds(50);

std::int64_t now() { return now_ns(); }

void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = deadline / 1'000'000'000;
  ts.tv_nsec = deadline % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
template <typename T>
double percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return static_cast<double>(values[std::clamp<std::size_t>(rank, 1, values.size()) - 1]);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

// ---- generator --------------------------------------------------------------

/// When a sampled item's BackEnd::send started.
struct SendStamp {
  std::uint32_t rank = 0;
  std::uint64_t item = 0;  ///< wave, or relay sequence number
  std::int64_t start_ns = 0;
};

/// What one generator (a back-end process, or the threaded generator
/// thread) measured, shipped home in one packet when it finishes.
struct GeneratorReport {
  std::uint64_t sent = 0;           ///< packets sent
  std::int64_t send_p50_ns = 0;     ///< BackEnd::send duration (traced)
  std::int64_t send_p99_ns = 0;
  std::int64_t send_busy_ns = 0;    ///< total time inside BackEnd::send (traced)
  std::int64_t active_ns = 0;       ///< first send to last send
  std::int64_t late_p50_ns = 0;     ///< send time minus scheduled time (paced)
  std::int64_t late_max_ns = 0;
  std::vector<SendStamp> stamps;    ///< sampled send starts (closed loop)
  SpanLog spans;

  void serialize(BinaryWriter& w) const {
    w.put<std::uint64_t>(sent);
    for (std::int64_t v : {send_p50_ns, send_p99_ns, send_busy_ns, active_ns, late_p50_ns,
                           late_max_ns}) {
      w.put<std::int64_t>(v);
    }
    w.put<std::uint64_t>(stamps.size());
    for (const SendStamp& stamp : stamps) {
      w.put<std::uint32_t>(stamp.rank);
      w.put<std::uint64_t>(stamp.item);
      w.put<std::int64_t>(stamp.start_ns);
    }
    spans.serialize(w);
  }
  static GeneratorReport deserialize(BinaryReader& r) {
    GeneratorReport g;
    g.sent = r.get<std::uint64_t>();
    for (std::int64_t* v : {&g.send_p50_ns, &g.send_p99_ns, &g.send_busy_ns, &g.active_ns,
                            &g.late_p50_ns, &g.late_max_ns}) {
      *v = r.get<std::int64_t>();
    }
    g.stamps.resize(r.get<std::uint64_t>());
    for (SendStamp& stamp : g.stamps) {
      stamp.rank = r.get<std::uint32_t>();
      stamp.item = r.get<std::uint64_t>();
      stamp.start_ns = r.get<std::int64_t>();
    }
    g.spans = SpanLog::deserialize(r);
    return g;
  }
};

/// Builds each back-end's packets from the seeded inputs and sends them,
/// timing BackEnd::send in traced runs.
class Sender {
 public:
  Sender(const Inputs& inputs, bool traced) : inputs_(inputs), traced_(traced) {
    if (traced_) send_ns_.reserve(1u << 20);
  }

  /// Send wave `wave` of back-end `be`.  `due_ns` is its scheduled time
  /// (paced), or 0.
  void send(BackEnd& be, std::uint64_t wave, std::int64_t due_ns) {
    const std::int64_t begin = now();
    if (first_ns_ == 0) first_ns_ = begin;
    if (due_ns != 0) {
      late_ns_.push_back(begin - due_ns);
    } else if (wave % kStampEvery == 0) {
      report_.stamps.push_back({be.rank(), wave, begin});
    }
    std::int32_t wave_span = -1;
    if (traced_ && wave % kSpanEvery == 0) {
      wave_span = report_.spans.add("gen.wave", static_cast<std::int64_t>(wave),
                                    due_ns != 0 ? due_ns : begin, begin);
    }
    if (inputs_.is_relay()) {
      const BufferView payload = inputs_.payload(be.rank(), wave);
      const std::int64_t before_send = traced_ ? now() : 0;
      be.send(kDataStream, relay_tag(wave), payload);
      sent(wave, before_send, wave_span);
    } else {
      std::vector<double> report = inputs_.report(be.rank(), wave);
      const std::int64_t before_send = traced_ ? now() : 0;
      be.send(kDataStream, kTagData, "vf64", {std::move(report)});
      sent(wave, before_send, wave_span);
    }
  }

  GeneratorReport finish() {
    report_.active_ns = last_ns_ - first_ns_;
    report_.send_p50_ns = static_cast<std::int64_t>(percentile(send_ns_, 0.50));
    report_.send_p99_ns = static_cast<std::int64_t>(percentile(send_ns_, 0.99));
    report_.late_p50_ns = static_cast<std::int64_t>(percentile(late_ns_, 0.50));
    report_.late_max_ns = late_ns_.empty() ? 0 : *std::max_element(late_ns_.begin(), late_ns_.end());
    return std::move(report_);
  }

 private:
  /// Account one BackEnd::send that started at `before_send`.
  void sent(std::uint64_t wave, std::int64_t before_send, std::int32_t wave_span) {
    const std::int64_t end = now();
    last_ns_ = end;
    ++report_.sent;
    if (!traced_) return;
    const std::int64_t took = end - before_send;
    report_.send_busy_ns += took;
    if (send_ns_.size() < send_ns_.capacity()) send_ns_.push_back(took);
    if (wave_span >= 0) {
      report_.spans.add("backend.send", static_cast<std::int64_t>(wave), before_send, end, wave_span);
      report_.spans.close(wave_span);
    }
  }

  const Inputs& inputs_;
  bool traced_;
  GeneratorReport report_;
  std::vector<std::int64_t> send_ns_;
  std::vector<std::int64_t> late_ns_;
  std::int64_t first_ns_ = 0;
  std::int64_t last_ns_ = 0;
};

/// GO as the back-ends receive it.
struct Go {
  std::int64_t t0_ns = 0;
  std::uint64_t waves = 0;  ///< 0 = until STOP, then FINISH
  bool paced = false;
};

/// The control packets one back-end process has received so far.
class Downstream {
 public:
  explicit Downstream(BackEnd& be) : be_(be) {}

  /// Handle every pending control packet; with `block`, wait (bounded) for
  /// at least one.  Throws when the tree shut down or nothing came.
  void poll(bool block) {
    RecvResult r = block ? be_.recv_for(kPoll) : be_.try_recv();
    if (block) {
      const std::int64_t give_up = now() + kStallNs;
      while (r.timed_out() && now() < give_up) r = be_.recv_for(kPoll);
    }
    for (; r.ok(); r = be_.try_recv()) handle(*r);
    if (!r.timed_out()) throw std::runtime_error(std::string("downstream ") + to_string(r.status()));
    if (block && !progressed_) throw std::runtime_error("no control packet for 10 s");
    progressed_ = false;
  }

  std::optional<Go> go;
  std::uint64_t acked = 0;  ///< items of this back-end the front-end has received
  bool stop = false;
  std::optional<std::uint64_t> finish;

 private:
  void handle(const PacketPtr& packet) {
    progressed_ = true;
    switch (packet->tag()) {
      case kTagGo: {
        const std::vector<std::int64_t>& a = packet->get_vi64(0);
        go = Go{a.at(0), static_cast<std::uint64_t>(a.at(1)), a.at(2) != 0};
        break;
      }
      case kTagAck:
        acked = std::max(acked, static_cast<std::uint64_t>(packet->get_vi64(0).at(be_.rank())));
        break;
      case kTagStop: stop = true; break;
      case kTagFinish: finish = static_cast<std::uint64_t>(packet->get_vi64(0).at(0)); break;
      default: break;
    }
  }

  BackEnd& be_;
  bool progressed_ = false;
};

/// Sender loop of one back-end process (process and remote modes).
void backend_main(BackEnd& be, const Inputs& inputs, bool traced) {
  try {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Downstream down(be);
    while (!down.go) down.poll(true);
    const Go go = *down.go;
    const std::int64_t start = go.t0_ns + inputs.phase_ns(be.rank());
    Sender sender(inputs, traced);
    sleep_until_ns(start);
    std::uint64_t wave = 0;
    if (go.waves > 0) {
      for (; wave < go.waves; ++wave) {
        std::int64_t due = 0;
        if (go.paced) {
          due = start + static_cast<std::int64_t>(wave) * inputs.period_ns();
          sleep_until_ns(due);
        }
        sender.send(be, wave, due);
      }
    } else {
      const std::uint64_t window = inputs.window();
      for (;;) {
        while (wave >= down.acked + window && !down.stop) down.poll(true);
        if (down.stop) break;
        sender.send(be, wave, 0);
        if (++wave % 8 == 0) down.poll(false);
      }
      be.send(kCtlStream, kTagCount, "vi64",
              {std::vector<std::int64_t>{be.rank(), static_cast<std::int64_t>(wave)}});
      while (!down.finish) down.poll(true);
      for (; wave < *down.finish; ++wave) {
        while (wave >= down.acked + window) down.poll(true);
        sender.send(be, wave, 0);
      }
    }
    BinaryWriter writer;
    sender.finish().serialize(writer);
    be.send(kCtlStream, kTagDone, BufferView(writer.take()));
  } catch (const std::exception& error) {
    // The front-end counts every wave this back-end did not deliver.
    std::fprintf(stderr, "back-end %u: %s\n", be.rank(), error.what());
  }
}

// ---- front-end ----------------------------------------------------------------

struct Options {
  Workload workload = Workload::kReduceFlood;
  NetworkMode mode = NetworkMode::kThreaded;
  std::uint64_t seed = 1;
  double warm_s = 0.3;
  double measure_s = 2.0;
  bool traced = false;
  std::string trace_out;
};

class Run {
 public:
  explicit Run(const Options& options)
      : opt_(options), inputs_(options.workload, options.seed) {}

  int execute() {
    NetworkOptions net_options;
    net_options.mode = opt_.mode;
    net_options.topology = Topology::balanced(2, 2);
    net_options.flow_control = {.enabled = true, .policy = FlowControlPolicy::kBlock};
    net_options.batching = BatchingOptions::on();
    net_options.execution.num_workers = 0;
    net_options.telemetry = {.enabled = opt_.traced, .interval_ms = 100};
    if (opt_.mode != NetworkMode::kThreaded) {
      net_options.backend_main = [this](BackEnd& be) { backend_main(be, inputs_, opt_.traced); };
    }

    const std::int32_t run_span = spans_.open("run");
    const std::int64_t create_begin = now();
    auto net = Network::create(std::move(net_options));
    const std::int64_t create_end = now();
    FrontEnd& fe = net->front_end();
    Stream& data = fe.open_stream(inputs_.is_relay() ? StreamSpec().up("passthrough").sync("null")
                                                     : StreamSpec().up("sum"));
    Stream& ctl = fe.open_stream(StreamSpec().up("passthrough").sync("null"));
    const std::int64_t open_end = now();
    spans_.add("network.create", -1, create_begin, create_end, run_span);
    spans_.add("network.open_stream", -1, create_end, open_end, run_span);
    metric("network.create_ms", static_cast<double>(create_end - create_begin) / 1e6);
    metric("network.open_stream_ms", static_cast<double>(open_end - create_end) / 1e6);
    ctl_ = &ctl;
    if (data.id() != kDataStream || ctl.id() != kCtlStream) {
      error("unexpected stream ids");
      return finish(*net, run_span);
    }

    // GO.  Paced: enough waves to cover warm-up plus the measured window.
    go_.t0_ns = now();
    if (inputs_.is_paced()) {
      go_.waves = static_cast<std::uint64_t>((opt_.warm_s + opt_.measure_s) * 1e9 /
                                             static_cast<double>(inputs_.period_ns()));
      go_.paced = true;
    }
    first_wave_span_ = spans_.open("network.first_wave", -1, run_span);
    start_generators(*net, ctl);

    if (go_.waves > 0) {
      expected_ = go_.waves * per_wave();
      receive_until_count(data, expected_);
    } else {
      const std::int64_t stop_at = first_arrival_or_wait(data) + seconds_ns(opt_.warm_s + opt_.measure_s);
      receive_until_time(data, stop_at);
      const std::uint64_t total_waves = stop_generators(ctl);
      expected_ = total_waves * per_wave();
      receive_until_count(data, expected_);
    }
    collect_reports(ctl);
    if (!arrival_ns_.empty()) metric("setup_s", static_cast<double>(arrival_ns_.front() - create_begin) / 1e9);
    return finish(*net, run_span);
  }

 private:
  static std::int64_t seconds_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

  /// Items the front-end receives per wave: one aggregate, or one relay
  /// payload from each back-end.
  std::uint64_t per_wave() const { return inputs_.is_relay() ? kBackends : 1; }

  void error(const std::string& message) {
    if (errors_.size() < 8) errors_.push_back(message);
  }
  /// A protocol step that did not complete: one more failed operation.
  void fail(const std::string& message) {
    ++protocol_failures_;
    error(message);
  }
  void metric(const std::string& name, double value) { metrics_[name] = value; }

  // -- traffic ------------------------------------------------------------

  void start_generators(Network& net, Stream& ctl) {
    if (opt_.mode != NetworkMode::kThreaded) {
      ctl.send(kTagGo, "vi64",
               {std::vector<std::int64_t>{go_.t0_ns, static_cast<std::int64_t>(go_.waves),
                                          go_.paced ? 1 : 0}});
      return;
    }
    std::vector<BackEnd*> handles;
    for (std::uint32_t r = 0; r < kBackends; ++r) handles.push_back(&net.backend(r));
    generator_ = std::jthread([this, handles] { threaded_generator(handles); });
  }

  /// The threaded instantiation's single generator thread: round-robin over
  /// the four BackEnd handles in order of their seeded start offsets.
  void threaded_generator(std::vector<BackEnd*> handles) {
    try {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::sort(handles.begin(), handles.end(), [this](BackEnd* a, BackEnd* b) {
        return inputs_.phase_ns(a->rank()) < inputs_.phase_ns(b->rank());
      });
      Sender sender(inputs_, opt_.traced);
      std::uint64_t wave = 0;
      for (;; ++wave) {
        if (go_.waves > 0 ? wave >= go_.waves : stop_.load(std::memory_order_relaxed)) break;
        while (go_.waves == 0 && wave >= min_delivered() + inputs_.window() &&
               !stop_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        // One wake per wave, when its last contributor is due: the wave's
        // latency counts from then anyway, and one thread sleeping four
        // times per 50 us period would mostly measure timer overhead.
        const std::int64_t offset = go_.paced ? static_cast<std::int64_t>(wave) * inputs_.period_ns() : 0;
        if (wave == 0 || go_.paced) sleep_until_ns(go_.t0_ns + inputs_.max_phase_ns() + offset);
        for (BackEnd* be : handles) {
          const std::int64_t due = go_.t0_ns + inputs_.phase_ns(be->rank()) + offset;
          sender.send(*be, wave, go_.paced ? due : 0);
        }
      }
      threaded_waves_ = wave;
      reports_.push_back(sender.finish());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "generator: %s\n", e.what());
    }
  }

  std::uint64_t min_delivered() const {
    std::uint64_t low = std::numeric_limits<std::uint64_t>::max();
    for (const auto& d : delivered_) low = std::min(low, d.load(std::memory_order_relaxed));
    return low;
  }

  /// Count a received item against its back-end(s) and, in process and
  /// remote modes, acknowledge every ack_every() items.
  void delivered(std::optional<std::uint32_t> rank) {
    for (std::uint32_t r = 0; r < kBackends; ++r) {
      if (!rank || *rank == r) delivered_[r].fetch_add(1, std::memory_order_relaxed);
    }
    if (go_.waves != 0 || opt_.mode == NetworkMode::kThreaded ||
        arrival_ns_.size() % inputs_.ack_every() != 0) {
      return;
    }
    std::vector<std::int64_t> counts;
    for (const auto& d : delivered_) counts.push_back(static_cast<std::int64_t>(d.load()));
    ctl_->send(kTagAck, "vi64", {std::move(counts)});
  }

  /// Ends the open-ended phase; returns the wave count every generator
  /// completes.
  std::uint64_t stop_generators(Stream& ctl) {
    stop_sent_ns_ = now();
    received_at_stop_ = arrival_ns_.size();
    if (opt_.mode == NetworkMode::kThreaded) {
      stop_.store(true, std::memory_order_relaxed);
      generator_.join();
      return threaded_waves_;
    }
    ctl.send(kTagStop, "vi64", {std::vector<std::int64_t>{0}});
    std::uint64_t total = 0;
    std::uint32_t counted = 0;
    const std::int64_t give_up = now() + kStallNs;
    while (counted < kBackends && now() < give_up) {
      RecvResult r = ctl.recv_for(kPoll);
      if (!r.ok()) {
        if (r.status() != RecvStatus::kTimeout) break;
        continue;
      }
      if ((*r)->tag() != kTagCount) continue;
      total = std::max(total, static_cast<std::uint64_t>((*r)->get_vi64(0).at(1)));
      ++counted;
    }
    if (counted < kBackends) fail("missing wave counts from back-ends");
    ctl.send(kTagFinish, "vi64", {std::vector<std::int64_t>{static_cast<std::int64_t>(total)}});
    return total;
  }

  void collect_reports(Stream& ctl) {
    if (opt_.mode == NetworkMode::kThreaded) {
      if (generator_.joinable()) generator_.join();
      return;
    }
    const std::int64_t give_up = now() + kStallNs;
    while (reports_.size() < kBackends && now() < give_up) {
      RecvResult r = ctl.recv_for(kPoll);
      if (!r.ok()) {
        if (r.status() != RecvStatus::kTimeout) break;
        continue;
      }
      if ((*r)->tag() != kTagDone) continue;
      BinaryReader reader((*r)->get_bytes(0).span());
      reports_.push_back(GeneratorReport::deserialize(reader));
      report_ranks_.push_back((*r)->src_rank());
    }
    if (reports_.size() < kBackends) fail("missing generator reports");
  }

  // -- receiving ----------------------------------------------------------------

  /// Receive and check one item; false on a stall or shutdown.
  bool receive_one(Stream& data) {
    const std::int64_t give_up = now() + kStallNs;
    for (;;) {
      const std::int64_t before = now();
      RecvResult r = data.recv_for(kPoll);
      const std::int64_t after = now();
      if (opt_.traced) recv_calls_.emplace_back(before, after);
      if (r.ok()) {
        arrival_ns_.push_back(after);
        check(*r);
        if (opt_.traced) {
          const auto item = static_cast<std::int64_t>(arrival_ns_.size() - 1);
          if (item % static_cast<std::int64_t>(kSpanEvery) == 0) {
            const std::int32_t wave = spans_.add("frontend.wave", item, before, now());
            spans_.add("frontend.recv", item, before, after, wave);
            spans_.add("frontend.check", item, after, now(), wave);
          }
        }
        if (arrival_ns_.size() == 1) spans_.close(first_wave_span_);
        return true;
      }
      if (r.status() != RecvStatus::kTimeout || after >= give_up) {
        error(std::string("receive ended: ") + to_string(r.status()));
        return false;
      }
    }
  }

  std::int64_t first_arrival_or_wait(Stream& data) {
    if (arrival_ns_.empty() && !receive_one(data)) return now();
    return arrival_ns_.front();
  }

  void receive_until_time(Stream& data, std::int64_t deadline) {
    while (now() < deadline && receive_one(data)) {
    }
  }

  void receive_until_count(Stream& data, std::uint64_t count) {
    while (arrival_ns_.size() < count && receive_one(data)) {
    }
  }

  void check(const PacketPtr& packet) {
    const std::uint64_t item = arrival_ns_.size() - 1;
    if (inputs_.is_relay()) {
      const std::uint32_t rank = packet->src_rank();
      if (rank >= kBackends) {
        ++failed_;
        error("relay payload from unknown rank " + std::to_string(rank));
        return;
      }
      const std::uint64_t seq = next_seq_[rank]++;
      if (packet->tag() != relay_tag(seq) ||
          !inputs_.check_payload(rank, seq, packet->get_bytes(0).span())) {
        ++failed_;
        error("back-end " + std::to_string(rank) + " payload " + std::to_string(seq) +
              " out of order or not its pattern");
      }
      relay_arrival_ns_[rank].push_back(arrival_ns_.back());
      delivered(rank);
      return;
    }
    if (!inputs_.check_sum(packet->get_vf64(0), item)) {
      ++failed_;
      error("wrong aggregate at wave " + std::to_string(item));
    }
    delivered(std::nullopt);
  }

  // -- results --------------------------------------------------------------

  int finish(Network& net, std::int32_t run_span) {
    const std::int64_t shutdown_begin = now();
    net.shutdown();
    const std::int64_t shutdown_end = now();
    spans_.add("network.shutdown", -1, shutdown_begin, shutdown_end, run_span);
    spans_.close(run_span);
    metric("network.shutdown_ms", static_cast<double>(shutdown_end - shutdown_begin) / 1e6);
    if (first_wave_span_ >= 0 && !arrival_ns_.empty()) {
      metric("network.first_wave_ms", static_cast<double>(arrival_ns_.front() - go_.t0_ns) / 1e6);
    }
    if (generator_.joinable()) generator_.join();

    const std::uint64_t attempted = std::max<std::uint64_t>(expected_, 1);
    if (arrival_ns_.size() < attempted) {
      failed_ += attempted - arrival_ns_.size();
      error("missing " + std::to_string(attempted - arrival_ns_.size()) + " items");
    }
    failed_ = std::min(failed_, attempted) + protocol_failures_;

    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    metric("peak_rss_mib", static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0);

    workload_metrics();
    if (opt_.traced) traced_metrics(net);
    if (opt_.traced && !opt_.trace_out.empty()) write_spans();

    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
                static_cast<unsigned long long>(attempted + protocol_failures_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      std::string escaped;
      for (const char c : errors_[i]) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      std::printf("%s\"%s\"", i ? "," : "", escaped.c_str());
    }
    std::printf("],\"metrics\":{");
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), std::isfinite(value) ? value : 0.0);
      first = false;
    }
    std::printf("}}\n");
    return 0;
  }

  /// Every workload yields every end-to-end metric, over the steady window
  /// (warm-up and drain excluded):
  ///  - leaf_pkt_s: leaf packets delivered per second (a reduce aggregate
  ///    carries four, a relay payload one), the median of ten sub-windows;
  ///  - payload_MiB_s: the bytes those leaf packets carried for the
  ///    application (a 256 B report, or a 64 KiB payload);
  ///  - lat_*: reduce-paced times each wave from its scheduled time; the
  ///    closed-loop workloads time sampled items from the start of the last
  ///    contributing BackEnd::send.
  void workload_metrics() {
    if (arrival_ns_.empty()) return;
    const std::int64_t begin = arrival_ns_.front() + seconds_ns(opt_.warm_s);
    const std::int64_t end = std::min(begin + seconds_ns(opt_.measure_s), stop_sent_ns_);
    constexpr int kSlices = 10;
    const std::int64_t slice_ns = (end - begin) / kSlices;
    std::vector<std::vector<std::int64_t>> slices(kSlices);
    for (const std::int64_t t : arrival_ns_) {
      if (t >= begin && t < begin + slice_ns * kSlices) {
        slices[static_cast<std::size_t>((t - begin) / slice_ns)].push_back(t);
      }
    }
    // Items per second inside each sub-window, timed between its first and
    // last arrival so the figure does not snap to whole counts.
    std::vector<double> rates;
    for (const auto& slice : slices) {
      if (slice.size() >= 2) {
        rates.push_back(static_cast<double>(slice.size() - 1) * 1e9 /
                        static_cast<double>(slice.back() - slice.front()));
      }
    }
    const double leaf_per_item = inputs_.is_relay() ? 1.0 : kBackends;
    const double leaf_pkt_s = median(rates) * leaf_per_item;
    const double leaf_bytes = inputs_.is_relay() ? kPayloadBytes : kFunctions * sizeof(double);
    metric("leaf_pkt_s", leaf_pkt_s);
    metric("payload_MiB_s", leaf_pkt_s * leaf_bytes / (1024.0 * 1024.0));

    std::vector<double> latency_us = inputs_.is_paced() ? paced_latencies() : send_latencies(begin, end);
    metric("lat_samples", static_cast<double>(latency_us.size()));
    metric("lat_p50_us", percentile(latency_us, 0.50));
    metric("lat_p90_us", percentile(latency_us, 0.90));
    metric("lat_p99_us", percentile(latency_us, 0.99));
    metric("lat_p999_us", percentile(latency_us, 0.999));
  }

  /// reduce-paced: each wave in the window, from the time its last
  /// contributor was due.  Also records the backlog at the end of the
  /// paced phase.
  std::vector<double> paced_latencies() {
    const std::int64_t period = inputs_.period_ns();
    const auto first = static_cast<std::uint64_t>(seconds_ns(opt_.warm_s) / period);
    const std::int64_t complete = go_.t0_ns + inputs_.max_phase_ns();
    std::vector<double> latency_us;
    for (std::uint64_t k = first; k < arrival_ns_.size(); ++k) {
      const std::int64_t scheduled = complete + static_cast<std::int64_t>(k) * period;
      latency_us.push_back(static_cast<double>(arrival_ns_[k] - scheduled) / 1e3);
    }
    // Waves due by the end of the paced phase minus waves received by then.
    const std::int64_t last_due = complete + static_cast<std::int64_t>(go_.waves - 1) * period;
    const auto received = std::count_if(arrival_ns_.begin(), arrival_ns_.end(),
                                        [&](std::int64_t t) { return t <= last_due; });
    metric("gen.backlog_waves", static_cast<double>(go_.waves) - static_cast<double>(received));
    return latency_us;
  }

  /// Closed loop: sampled items that arrived inside [begin, end), from the
  /// start of the last BackEnd::send that contributed to them.  Also
  /// records the backlog when the open-ended phase stopped.
  std::vector<double> send_latencies(std::int64_t begin, std::int64_t end) {
    metric("gen.backlog_waves", static_cast<double>(expected_ / per_wave()) -
                                    static_cast<double>(received_at_stop_) / static_cast<double>(per_wave()));
    // item -> (contributors seen, latest send start); a relay item is one
    // payload of one rank, a reduce item one wave of all four.
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::pair<std::uint32_t, std::int64_t>> sent;
    for (const GeneratorReport& g : reports_) {
      for (const SendStamp& stamp : g.stamps) {
        auto& [seen, latest] = sent[{inputs_.is_relay() ? stamp.rank : 0, stamp.item}];
        ++seen;
        latest = std::max(latest, stamp.start_ns);
      }
    }
    std::vector<double> latency_us;
    for (const auto& [key, value] : sent) {
      const auto& [rank, item] = key;
      const std::vector<std::int64_t>& arrivals = inputs_.is_relay() ? relay_arrival_ns_[rank] : arrival_ns_;
      if (value.first != (inputs_.is_relay() ? 1 : kBackends) || item >= arrivals.size()) continue;
      const std::int64_t arrived = arrivals[item];
      if (arrived >= begin && arrived < end) latency_us.push_back(static_cast<double>(arrived - value.second) / 1e3);
    }
    return latency_us;
  }

  void traced_metrics(Network& net) {
    // Generators: the slowest one sets each wave's time.
    double send_p50 = 0, send_p99 = 0, busy = 0, late_p50 = 0, late_max = 0;
    for (const GeneratorReport& g : reports_) {
      send_p50 = std::max(send_p50, static_cast<double>(g.send_p50_ns) / 1e3);
      send_p99 = std::max(send_p99, static_cast<double>(g.send_p99_ns) / 1e3);
      if (g.active_ns > 0) busy = std::max(busy, static_cast<double>(g.send_busy_ns) / static_cast<double>(g.active_ns));
      late_p50 = std::max(late_p50, static_cast<double>(g.late_p50_ns) / 1e3);
      late_max = std::max(late_max, static_cast<double>(g.late_max_ns) / 1e3);
    }
    metric("backend.send_us_p50", send_p50);
    metric("backend.send_us_p99", send_p99);
    metric("backend.send_busy_frac", busy);
    metric("gen.late_us_p50", late_p50);
    metric("gen.late_us_max", late_max);

    // Front-end: share of the steady window spent blocked in recv_for.
    const std::int64_t begin = arrival_ns_.empty() ? 0 : arrival_ns_.front() + seconds_ns(opt_.warm_s);
    const std::int64_t end = begin + seconds_ns(opt_.measure_s);
    std::int64_t waited = 0;
    for (const auto& [lo, hi] : recv_calls_) {
      waited += std::max<std::int64_t>(0, std::min(hi, end) - std::max(lo, begin));
    }
    metric("frontend.recv_wait_frac", static_cast<double>(waited) / static_cast<double>(end - begin));

    codec_metrics();

    const TreeMetricsSnapshot snap = net.front_end().metrics();
    const NodeTelemetry& t = snap.total;
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    std::uint64_t inflight_peak = 0, send_queue_peak = 0, threads = 0;
    for (const NodeTelemetry& node : snap.nodes) {
      inflight_peak = std::max(inflight_peak, node.fc_inflight_peak);
      send_queue_peak = std::max(send_queue_peak, node.net_send_queue_peak);
      threads = std::max(threads, node.net_threads);
    }
    std::uint64_t leaf_packets = 0;
    for (const GeneratorReport& g : reports_) leaf_packets += g.sent;
    metric("sync.filter_ns_per_wave", ratio(t.filter_ns, t.waves));
    metric("batch.pkts_per_frame", ratio(t.batch_packets_out, t.batch_frames_out));
    metric("batch.deadline_flush_share", ratio(t.batch_flush_deadline, t.batch_frames_out));
    metric("batch.size_flush_share", ratio(t.batch_flush_size, t.batch_frames_out));
    metric("batch.eager_flush_share", ratio(t.batch_flush_eager, t.batch_frames_out));
    metric("batch.pressure_flush_share", ratio(t.batch_flush_pressure, t.batch_frames_out));
    metric("fc.blocked_ns_per_pkt", ratio(t.fc_blocked_ns, t.fc_credits_consumed));
    metric("fc.sends_blocked_share", ratio(t.fc_sends_blocked, t.fc_credits_consumed));
    metric("fc.inflight_peak", static_cast<double>(inflight_peak));
    metric("wire.bytes_out_per_leaf_pkt", ratio(t.wire_bytes_out, leaf_packets));
    metric("net.wakeups_per_frame", ratio(t.net_wakeups, t.net_frames_out));
    metric("net.partial_write_share", ratio(t.net_partial_writes, t.net_frames_out));
    metric("net.send_queue_peak_kib", static_cast<double>(send_queue_peak) / 1024.0);
    metric("net.threads", static_cast<double>(threads));
  }

  /// Time Packet::serialize and Packet::deserialize on this workload's packet.
  void codec_metrics() {
    const PacketPtr sample =
        inputs_.is_relay()
            ? Packet::make_view(kDataStream, relay_tag(0), 0, inputs_.payload(0, 0))
            : Packet::make(kDataStream, kTagData, 0, "vf64", {inputs_.report(0, 0)});
    const int reps = inputs_.is_relay() ? 400 : 20'000;
    std::vector<double> encode, decode;
    std::size_t sink = 0;
    for (int batch = 0; batch < 5; ++batch) {
      std::int64_t t = now();
      Bytes wire;
      for (int i = 0; i < reps; ++i) {
        BinaryWriter writer;
        sample->serialize(writer);
        wire = writer.take();
      }
      encode.push_back(static_cast<double>(now() - t) / reps);
      t = now();
      for (int i = 0; i < reps; ++i) {
        BinaryReader reader(wire);
        sink += Packet::deserialize(reader)->values().size();
      }
      decode.push_back(static_cast<double>(now() - t) / reps);
    }
    if (sink == 0) error("codec sample decoded to nothing");
    metric("packet.encode_ns", median(encode));
    metric("packet.decode_ns", median(decode));
  }

  void write_spans() {
    std::FILE* out = std::fopen(opt_.trace_out.c_str(), "w");
    if (out == nullptr) {
      error("cannot write " + opt_.trace_out);
      return;
    }
    spans_.write_jsonl(out, "frontend");
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      const std::string proc = opt_.mode == NetworkMode::kThreaded
                                   ? "generator"
                                   : "backend-" + std::to_string(report_ranks_.at(i));
      reports_[i].spans.write_jsonl(out, proc);
    }
    std::fclose(out);
  }

  Options opt_;
  Inputs inputs_;
  Go go_;
  SpanLog spans_;
  std::int32_t first_wave_span_ = -1;
  std::uint64_t expected_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t protocol_failures_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, double> metrics_;

  std::vector<std::int64_t> arrival_ns_;                       ///< per received item
  std::vector<std::pair<std::int64_t, std::int64_t>> recv_calls_;  ///< traced only
  std::array<std::uint64_t, kBackends> next_seq_{};
  std::array<std::vector<std::int64_t>, kBackends> relay_arrival_ns_;  ///< by sequence number
  std::array<std::atomic<std::uint64_t>, kBackends> delivered_{};  ///< items received per rank
  Stream* ctl_ = nullptr;
  std::int64_t stop_sent_ns_ = std::numeric_limits<std::int64_t>::max();
  std::size_t received_at_stop_ = 0;

  std::vector<GeneratorReport> reports_;
  std::vector<std::uint32_t> report_ranks_;
  std::atomic<bool> stop_{false};
  std::uint64_t threaded_waves_ = 0;
  std::jthread generator_;  ///< threaded mode; declared after what it uses
};

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("expected key=value, got " + arg);
    kv[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  };
  Options o;
  o.workload = parse_workload(get("workload", "reduce-flood"));
  const std::string mode = get("mode", "threaded");
  if (mode == "threaded") {
    o.mode = NetworkMode::kThreaded;
  } else if (mode == "process") {
    o.mode = NetworkMode::kProcess;
  } else if (mode == "remote") {
    o.mode = NetworkMode::kRemote;
  } else {
    throw std::invalid_argument("unknown mode: " + mode);
  }
  o.seed = std::stoull(get("seed", "1"));
  o.warm_s = std::stod(get("warm", "0.3"));
  o.measure_s = std::stod(get("measure", "2.0"));
  o.traced = get("traced", "0") == "1";
  o.trace_out = get("trace_out", "");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    Run run(options);
    return run.execute();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_trial: %s\n", error.what());
    return 2;
  }
}
