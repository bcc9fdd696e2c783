// ThreadTransport — real-concurrency implementation of the Transport
// interface, standing in for the paper's per-process TCP sockets, and the
// worker pool every thread run executes on.
//
// Every site is an actor. Its inbox holds its inbound packets plus a "next
// application step runnable" flag, and only worker s % W drains it. A
// worker's turn for a site delivers every queued packet in order — the
// paper's message receipt subsystem (§IV-A) — then runs at most one
// application step, then sends the site to the back of the worker's run
// queue if more work arrived. FIFO per channel holds because a sender
// enqueues into an inbox in program order and the inbox is drained in
// order; cross-channel interleaving is whatever the OS scheduler
// produces, exactly as with TCP. No send or delivery takes a global lock:
// only the target's inbox lock and its worker's run-queue lock; the
// packet counters are atomics.
//
// An optional artificial delay stage (the "wire") re-injects latency:
// packets are held by a dedicated thread until their due time, with
// per-channel FIFO enforced, so thread runs can exhibit the same
// out-of-order cross-channel arrivals the simulator produces.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "obs/trace_event.hpp"

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

  /// Starts `workers` workers (0 = one per site); site s is served by
  /// worker s % workers. `app` runs one application step of a site each
  /// time post_app() has marked one runnable. All attach() calls must
  /// precede start(); start() and stop() are called from one controlling
  /// thread.
  void start(unsigned workers = 0, std::function<void(SiteId)> app = {});

  /// Marks site `s`'s next application step runnable (any thread). It runs
  /// on the site's worker, in the site's next turn.
  void post_app(SiteId s);

  /// Waits until every queued packet has been delivered *and* handled and
  /// no application step is running, i.e. the network is quiescent. Only
  /// meaningful once senders have stopped.
  void quiesce();

  /// Refuses further application steps, waits out a running one, quiesces,
  /// and stops all threads. Idempotent.
  void stop();

  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return static_cast<SiteId>(inboxes_.size()); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;

  /// Must be called before start(); timestamps are real microseconds since
  /// transport construction (thread runs are wall-clock, not simulated).
  void set_trace_sink(obs::TraceSink* sink) override;

 private:
  /// One site's mailbox. `scheduled` is true from the moment the site is
  /// pushed on its worker's run queue until a turn ends with nothing left
  /// to do, so at most one turn of a site runs at a time.
  struct alignas(64) Inbox {
    std::mutex mutex;
    std::deque<Packet> queue;
    bool app_ready = false;
    bool scheduled = false;
    std::deque<Packet> batch;  // the packets the running turn delivers
    PacketHandler* handler = nullptr;
  };

  /// Cache-line aligned so neighbouring workers' queue locks do not share
  /// a line.
  struct alignas(64) Worker {
    std::mutex mutex;
    std::condition_variable cv;  // runnable site or stop
    std::deque<SiteId> queue;
    std::thread thread;
  };

  struct TimedPacket {
    std::chrono::steady_clock::time_point due;
    Packet packet;
  };

  /// Runs `fill` on site `s`'s inbox under its lock and puts the site on
  /// its worker's run queue unless it is already there or running.
  template <typename Fill>
  void post(SiteId s, Fill&& fill);
  void push(SiteId s);
  void worker_loop(Worker& w);
  void run_turn(SiteId s);
  void deliver(PacketHandler& handler, Packet p);
  /// Retires one unit of in-flight work (a handled packet or a finished
  /// application step).
  void retire();
  void wire_loop();

  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::function<void(SiteId)> app_;

  // Artificial-delay stage.
  std::int64_t max_delay_us_;
  std::uint64_t rng_state_;
  std::mutex wire_mutex_;
  std::condition_variable wire_cv_;
  std::deque<TimedPacket> wire_queue_;  // kept sorted by due time
  // channel_due_[from * n + to]: due time of the channel's latest packet,
  // so a later packet on the channel is never due earlier (per-channel
  // FIFO through the wire).
  std::vector<std::chrono::steady_clock::time_point> channel_due_;
  std::thread wire_thread_;

  // channel_seq_[from * n + to]: next FIFO sequence number on the channel.
  // Assigned inside the critical section that orders the enqueue (the wire
  // mutex with a delay stage, the target inbox mutex without), so sequence
  // numbers always match actual per-channel delivery order.
  std::vector<std::uint64_t> channel_seq_;

  // Tracing (sink set before start(); RingBufferSink::emit is thread-safe).
  obs::TraceSink* trace_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  /// Emits one event stamped with real microseconds since construction.
  void trace(obs::TraceEventType type, SiteId site, SiteId peer, SimTime dur,
             std::uint64_t seq, std::uint64_t bytes);

  // Work not yet done: packets sent but not yet handled, plus application
  // steps running; quiesce() sleeps until it is zero.
  alignas(64) std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;

  /// Moved idle → running → stopping → idle by the controlling thread;
  /// sends are legal only while running.
  enum class Phase { kIdle, kRunning, kStopping };
  std::atomic<Phase> phase_{Phase::kIdle};
  /// Cleared by stop() before it quiesces, so no op sends once stopping.
  std::atomic<bool> app_open_{false};

  /// Declared after everything the worker threads touch.
  std::unique_ptr<Worker[]> workers_;
  unsigned worker_count_ = 0;
};

}  // namespace causim::net
