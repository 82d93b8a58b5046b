#include "transport/fd.hpp"

#include <limits.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace tbon {
namespace {

std::string errno_string() { return std::strerror(errno); }

/// Write everything `iov` points at, retrying on EINTR and short writes.
/// Uses sendmsg(MSG_NOSIGNAL) so that writing to a crashed peer surfaces as
/// EPIPE (-> TransportError, handled by the links) instead of a fatal
/// SIGPIPE; writev on a descriptor that is not a socket.
void write_all(int fd, std::span<iovec> iov) {
  std::size_t next = 0;
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - next, IOV_MAX);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::writev(fd, msg.msg_iov, static_cast<int>(msg.msg_iovlen));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError("writev failed: " + errno_string());
    }
    // Skip fully-written iovecs; trim a partially-written one in place.
    auto advanced = static_cast<std::size_t>(n);
    while (next < iov.size() && advanced >= iov[next].iov_len) {
      advanced -= iov[next].iov_len;
      ++next;
    }
    if (next < iov.size() && advanced > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + advanced;
      iov[next].iov_len -= advanced;
    }
  }
}

/// read() exactly `size` bytes; false on clean EOF at a frame boundary.
bool read_all(int fd, std::byte* data, std::size_t size) {
  std::size_t consumed = 0;
  while (consumed < size) {
    const ssize_t n = ::read(fd, data + consumed, size - consumed);
    if (n < 0) {
      if (errno == EINTR) continue;
      // ECONNRESET from a dead peer is EOF for our purposes.
      if (errno == ECONNRESET) return false;
      throw TransportError("read failed: " + errno_string());
    }
    if (n == 0) {
      if (consumed == 0) return false;  // orderly EOF between frames
      throw TransportError("EOF inside a frame");
    }
    consumed += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<Fd, Fd> make_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw TransportError("socketpair failed: " + errno_string());
  }
  return {Fd(fds[0]), Fd(fds[1])};
}

void write_frame(int fd, std::span<const std::byte> payload) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::byte header[4];
  std::memcpy(header, &length, 4);
  // Prefix and body in one call: two would let the reader wake twice.
  iovec iov[] = {{header, 4}, {const_cast<std::byte*>(payload.data()), payload.size()}};
  write_all(fd, iov);
}

void write_frame_segments(int fd, std::span<const SegmentWriter::Segment> segments,
                          std::size_t total) {
  const auto length = static_cast<std::uint32_t>(total);
  std::byte header[4];
  std::memcpy(header, &length, 4);

  // A frame rarely has many segments: build the iovecs on the stack and use
  // the heap only past 16.
  constexpr std::size_t kStackIovecs = 16;
  iovec stack_iov[kStackIovecs];
  std::vector<iovec> heap_iov;
  const std::size_t count = segments.size() + 1;
  iovec* iov = stack_iov;
  if (count > kStackIovecs) {
    heap_iov.resize(count);
    iov = heap_iov.data();
  }
  iov[0] = {header, 4};
  for (std::size_t i = 0; i < segments.size(); ++i) {
    iov[i + 1] = {const_cast<std::byte*>(segments[i].data), segments[i].size};
  }
  write_all(fd, {iov, count});
}

std::optional<Bytes> read_frame(int fd) {
  std::byte header[4];
  if (!read_all(fd, header, 4)) return std::nullopt;
  std::uint32_t length = 0;
  std::memcpy(&length, header, 4);
  if (length > kMaxFrame) throw TransportError("oversized frame");
  Bytes payload(length);
  if (length > 0 && !read_all(fd, payload.data(), length)) {
    throw TransportError("EOF inside a frame body");
  }
  return payload;
}

std::optional<Bytes> FrameReader::next() {
  if (!read_all(fd_, prefix_ + prefix_have_, sizeof(prefix_) - prefix_have_)) {
    if (prefix_have_ == 0) return std::nullopt;  // orderly EOF between frames
    throw TransportError("EOF inside a frame");
  }
  std::uint32_t length = 0;
  std::memcpy(&length, prefix_, sizeof(length));
  prefix_have_ = 0;
  if (length > kMaxFrame) throw TransportError("oversized frame");
  Bytes payload(length);
  std::size_t have = 0;
  while (have < length) {
    iovec iov[] = {{payload.data() + have, length - have}, {prefix_, sizeof(prefix_)}};
    const ssize_t n = ::readv(fd_, iov, 2);
    if (n < 0 && errno == EINTR) continue;
    // ECONNRESET from a dead peer is EOF for our purposes.
    if (n < 0 && errno != ECONNRESET) throw TransportError("read failed: " + errno_string());
    if (n <= 0) throw TransportError("EOF inside a frame body");
    const auto got = static_cast<std::size_t>(n);
    const std::size_t body = std::min(got, length - have);
    have += body;
    prefix_have_ = got - body;  // the next frame's prefix, or part of it
  }
  return payload;
}

void shutdown_write(int fd) noexcept { ::shutdown(fd, SHUT_WR); }

void set_socket_buffers(int fd, std::size_t bytes) noexcept {
  const int size = static_cast<int>(
      std::min<std::size_t>(bytes, std::numeric_limits<int>::max()));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
}

}  // namespace tbon
