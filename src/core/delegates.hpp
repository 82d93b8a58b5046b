// Delegate implementations shared by the threaded and multi-process
// instantiations.  Internal header (included by network.cpp and
// process_network.cpp only).
#pragma once

#include "core/network.hpp"

namespace tbon {

class Network::RootDelegate final : public NodeRuntime::Delegate {
 public:
  explicit RootDelegate(Network& network) : network_(network) {}

  void on_result(std::uint32_t stream_id, PacketPtr packet) override {
    network_.on_result(stream_id, std::move(packet));
  }
  void on_stream_deleted(std::uint32_t stream_id) override {
    network_.on_stream_deleted(stream_id);
  }
  void on_subscription(const std::string& prefix, std::uint32_t rank,
                       bool added) override {
    network_.on_subscription(prefix, rank, added);
  }
  void on_shutdown_complete() override { network_.on_shutdown_complete(); }
  void on_reconfig_ack(std::int64_t op_id, NodeId subject) override {
    network_.on_reconfig_ack(op_id, subject);
  }

 private:
  Network& network_;
};

/// Bridges NodeRuntime callbacks at a leaf into a BackEnd handle.
class BackEndDelegate final : public NodeRuntime::Delegate {
 public:
  explicit BackEndDelegate(BackEnd& backend) : backend_(backend) {}

  void on_downstream(PacketPtr packet) override {
    backend_.downstream_.push(std::move(packet));
  }

  void on_stream_known(const StreamSpec& spec) override {
    {
      std::lock_guard<std::mutex> lock(backend_.mutex_);
      backend_.known_streams_.insert(spec.id);
    }
    backend_.stream_known_cv_.notify_all();
  }

  void on_stream_deleted(std::uint32_t stream_id) override {
    std::lock_guard<std::mutex> lock(backend_.mutex_);
    backend_.known_streams_.erase(stream_id);
  }

  void on_shutdown() override {
    {
      std::lock_guard<std::mutex> lock(backend_.mutex_);
      backend_.shutting_down_ = true;
    }
    backend_.downstream_.close();
    backend_.peer_messages_.close();
    backend_.stream_known_cv_.notify_all();
  }

  void on_peer_message(PacketPtr inner) override {
    backend_.peer_messages_.push(std::move(inner));
  }

  void on_reconfig_pause() override { backend_.pause_sends(); }
  void on_reconfig_resume() override { backend_.resume_sends(); }

 private:
  BackEnd& backend_;
};

}  // namespace tbon
