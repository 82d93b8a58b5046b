// The three instantiations as one gtest parameter, so a suite written once
// against NetworkOptions::backend_main runs in each of them:
//
//   class Sums : public modes::Test {};
//   TEST_P(Sums, AreExact) { auto net = create({.topology = ..., .backend_main = ...}); }
//   TBON_INSTANTIATE_MODES(Sums);
//
// ctest names the cases Modes/<Suite>.<Case>/{threaded,process,remote}.  A
// forked body's EXPECT never reaches the test process, so whatever a case
// asserts about what a back-end saw travels upstream as data.  The forked
// modes must not create threads before the network, so every case builds it
// first.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <utility>

#include "core/network.hpp"

namespace tbon {

/// Names each case's mode: CMake's test discovery turns the printed value
/// of a numbered case into its ctest name.
inline void PrintTo(NetworkMode mode, std::ostream* os) {
  switch (mode) {
    case NetworkMode::kThreaded: *os << "threaded"; return;
    case NetworkMode::kProcess: *os << "process"; return;
    case NetworkMode::kRemote: *os << "remote"; return;
  }
}

namespace modes {

class Test : public ::testing::TestWithParam<NetworkMode> {
 protected:
  NetworkMode mode() const { return GetParam(); }
  /// Back-ends run in their own processes (process and remote mode).
  bool forked() const { return mode() != NetworkMode::kThreaded; }
  /// Network::create in this case's mode.
  std::unique_ptr<Network> create(NetworkOptions options) const {
    options.mode = mode();
    return Network::create(std::move(options));
  }
};

}  // namespace modes
}  // namespace tbon

#define TBON_INSTANTIATE_MODES(suite)                                        \
  INSTANTIATE_TEST_SUITE_P(Modes, suite,                                     \
                           ::testing::Values(::tbon::NetworkMode::kThreaded, \
                                             ::tbon::NetworkMode::kProcess,  \
                                             ::tbon::NetworkMode::kRemote))
