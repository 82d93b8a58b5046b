// Byte-level OS transport: RAII file descriptors, socketpair channels and
// length-prefixed frame I/O.
//
// MRNet connects its communication processes with TCP; our multi-process
// instantiation runs on one host, so each tree edge is a Unix socketpair —
// the same kernel-buffered, back-pressured FIFO byte stream semantics
// without needing remote spawn (see DESIGN.md §5).  A localhost TCP path is
// provided in tcp.hpp for fidelity to the paper's transport.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "common/archive.hpp"
#include "common/buffer.hpp"

namespace tbon {

/// RAII wrapper around a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Largest frame a reader accepts (1 GiB): a corrupt or hostile length
/// prefix must not trigger a bigger allocation.
inline constexpr std::uint32_t kMaxFrame = 1u << 30;

/// Create a connected pair of stream sockets (AF_UNIX, SOCK_STREAM).
std::pair<Fd, Fd> make_socketpair();

/// Write a length-prefixed frame; throws TransportError on failure.
void write_frame(int fd, std::span<const std::byte> payload);

/// Write a length-prefixed frame from a scatter-gather segment list in one
/// writev/sendmsg call (no coalescing copy); `total` must equal the summed
/// segment sizes.  Throws TransportError on failure.
void write_frame_segments(int fd, std::span<const SegmentWriter::Segment> segments,
                          std::size_t total);

/// Read one length-prefixed frame; nullopt on orderly EOF, throws on error.
std::optional<Bytes> read_frame(int fd);

/// Reads consecutive length-prefixed frames from one blocking descriptor
/// with one readv per frame while frames arrive back to back: each body is
/// read together with the next frame's length prefix.  It reads ahead, so
/// it must be the descriptor's only reader from its first frame on.
class FrameReader {
 public:
  explicit FrameReader(int fd) noexcept : fd_(fd) {}

  /// The next frame; nullopt on orderly EOF between frames.  Throws
  /// TransportError as read_frame does: on a read error, an oversized length
  /// prefix, or EOF inside a frame.
  std::optional<Bytes> next();

 private:
  int fd_;
  std::byte prefix_[4] = {};
  std::size_t prefix_have_ = 0;  ///< bytes of the next prefix already read
};

/// Shut down the write side so the peer's read_frame sees EOF.
void shutdown_write(int fd) noexcept;

/// Best-effort SO_SNDBUF/SO_RCVBUF sizing.  With credit-based flow control
/// the kernel buffers only need to absorb one credit window; without a
/// clamp their defaults add an invisible, unaccounted queue on every edge.
/// Errors are ignored (the kernel may round or refuse).
void set_socket_buffers(int fd, std::size_t bytes) noexcept;

}  // namespace tbon
