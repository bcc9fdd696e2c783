// ThreadTransport — real-concurrency implementation of the Transport
// interface, standing in for the paper's per-process TCP sockets.
//
// Every site gets one receipt thread draining a mutex/condvar-guarded FIFO
// inbox, mirroring the paper's "message receipt subsystem" (§IV-A). FIFO
// per channel holds because a sender enqueues into an inbox in program
// order and the inbox is drained in order; cross-channel interleaving is
// whatever the OS scheduler produces, exactly as with TCP.
//
// An optional artificial delay stage (the "wire") re-injects latency:
// packets are held by a dedicated timer thread until their due time, with
// per-channel FIFO enforced, so thread runs can exhibit the same
// out-of-order cross-channel arrivals the simulator produces.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace causim::net {

class ThreadTransport final : public Transport {
 public:
  struct Options {
    /// Maximum artificial one-way delay in real microseconds (0 = direct
    /// hand-off to the receiver inbox).
    std::int64_t max_delay_us = 0;
    std::uint64_t seed = 1;
  };

  explicit ThreadTransport(SiteId n);
  ThreadTransport(SiteId n, Options options);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  void attach(SiteId site, PacketHandler* handler) override;

  /// Starts the receipt threads. All attach() calls must precede start().
  void start();

  /// Waits until every queued packet has been delivered *and* handled, i.e.
  /// the network is quiescent. Only meaningful once senders have stopped.
  void quiesce();

  /// Stops all threads. Implies quiesce().
  void stop();

  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return static_cast<SiteId>(inboxes_.size()); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;

  /// Must be called before start(); timestamps are real microseconds since
  /// transport construction (thread runs are wall-clock, not simulated).
  void set_trace_sink(obs::TraceSink* sink) override;

 private:
  struct Inbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Packet> queue;
    PacketHandler* handler = nullptr;
  };

  struct TimedPacket {
    std::chrono::steady_clock::time_point due;
    Packet packet;
  };

  void receipt_loop(SiteId site);
  void wire_loop();

  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::thread> receivers_;

  // Artificial-delay stage.
  std::int64_t max_delay_us_;
  std::uint64_t rng_state_;
  std::mutex wire_mutex_;
  std::condition_variable wire_cv_;
  std::deque<TimedPacket> wire_queue_;  // kept sorted by due time
  std::thread wire_thread_;

  // channel_seq_[from * n + to]: next FIFO sequence number on the channel.
  // Assigned inside the critical section that orders the enqueue (the wire
  // mutex with a delay stage, the target inbox mutex without), so sequence
  // numbers always match actual per-channel delivery order.
  std::vector<std::uint64_t> channel_seq_;

  // Tracing (sink set before start(); RingBufferSink::emit is thread-safe).
  obs::TraceSink* trace_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  SimTime trace_now() const;

  // Guards the run state and the packet counters; one section per send
  // and one per delivery.
  mutable std::mutex state_mutex_;
  std::condition_variable quiesce_cv_;
  std::uint64_t in_flight_ = 0;  // sent but not yet fully handled
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  bool running_ = false;
  bool stopping_ = false;
};

}  // namespace causim::net
