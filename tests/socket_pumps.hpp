// The two socket pumps under the forked instantiations — process mode's
// reader threads and remote mode's event loop — for tests that must hold on
// both.  Tests reach a socket only through SocketPump::open, as the node
// processes do.
#pragma once

#include <memory>
#include <utility>

#include "core/fd_link.hpp"
#include "core/socket_pump.hpp"
#include "net/event_loop.hpp"

namespace tbon::pumps {

enum class Kind { kReaderThreads, kEventLoop };

inline constexpr Kind kAll[] = {Kind::kReaderThreads, Kind::kEventLoop};

inline const char* name(Kind kind) {
  return kind == Kind::kReaderThreads ? "reader threads" : "event loop";
}

inline std::unique_ptr<SocketPump> make(Kind kind, MetricsRegistry* metrics = nullptr) {
  if (kind == Kind::kReaderThreads) return std::make_unique<ReaderPump>(metrics);
  return std::make_unique<net::EventLoop>(metrics);
}

/// Open `fd` on `pump` as a channel into `channel.inbox`; returns its raw
/// send link.
inline std::shared_ptr<Link> open(SocketPump& pump, Fd fd, ChannelOptions channel) {
  std::shared_ptr<Link> raw;
  pump.open(std::move(fd), std::move(channel),
            [&raw](std::shared_ptr<Link> link) { raw = std::move(link); });
  return raw;
}

}  // namespace tbon::pumps
