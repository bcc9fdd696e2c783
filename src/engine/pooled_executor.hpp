// PooledExecutor — the thread substrate: N sites multiplexed over a fixed
// pool of W workers.
//
// Two regimes are the same code at different W:
//
//   * W = n (ExecutorKind::kPerSite) — every site has its own worker, so
//     the pool models the paper's one-process-per-site testbed, whose
//     application subsystem blocks on RemoteFetch (§II-B) while its
//     message receipt subsystem keeps answering peers.
//   * W < n (ExecutorKind::kPooled) — PaRiS/Okapi-style deployments that
//     multiplex many partitions over fixed server resources; this is the
//     msgs/sec-ceiling lane.
//
// The pool is net::ThreadTransport's: each site is an actor whose mailbox
// only worker s % W drains. This class supplies the application half —
// one schedule op per turn of the site — and the run's lifecycle. A
// blocked site holds no worker: the RM delivery that completes its fetch
// posts its next op.
//
// Per-site invokers are serialized by an atomic completion gate.
// dispatch()'s `done` may fire inline (writes, local reads) or later
// (remote reads), and not always on the site's own turn: a gateway fans a
// mailbox frame out to its cell-mates from its own turn. Both the
// dispatching turn and the callback fetch_add the gate; whoever arrives
// *second* (reads 1) owns the site's continuation — advance the cursor
// and post the next op. Exactly one side continues, the blocking-fetch
// rule holds, and no latch or per-op condvar is needed.
//
// Schedule gaps (op.at) scaled by Options::time_scale delay the *posting*
// of the next op through a timer; the default 0 posts at once. A site in
// its think time holds no worker, so its mailbox keeps being served. The
// same timer ticks the live sampler.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>

#include "engine/schedule_driver.hpp"

namespace causim::net {
class ThreadTransport;
class ThreadTimerDriver;
}  // namespace causim::net

namespace causim::engine {

class PooledExecutor final : public Executor {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread (at least 1).
    unsigned workers = 0;
    /// Delay each op by its schedule gap scaled by this factor (0 = run at
    /// full speed; 1e-6 turns a millisecond of schedule time into a
    /// microsecond).
    double time_scale = 0.0;
  };

  PooledExecutor(NodeStack& stack, net::ThreadTransport& transport,
                 Options options);
  ~PooledExecutor() override;

  PooledExecutor(const PooledExecutor&) = delete;
  PooledExecutor& operator=(const PooledExecutor&) = delete;

  void play(ScheduleDriver& driver, const workload::Schedule& schedule) override;

  /// Brings the network to quiescence once every site finished. Shutdown
  /// order with the fault stack up: (0) the gateway and batching layers
  /// flush every pending frame, (1) the reliability layer reaches
  /// app-level quiescence (retransmission timers still live to get it
  /// there), (2) the timer stops, discarding pending callbacks (all
  /// droppable by then), (3) the wire drains.
  void drain() override;
  void finish() override;

  /// Stops the timers and the transport (and with it the pool) so no
  /// background thread outlives the stack (see Executor::abort). Safe to
  /// call concurrently with a play() in flight — sites abandon their
  /// remaining ops and play() returns; tests/test_pooled_executor.cpp
  /// races this against live traffic deliberately.
  void abort() override;

  /// The resolved pool width.
  unsigned workers() const { return workers_target_; }

 private:
  /// Per-site invoker state. The gate implements the exactly-once
  /// continuation handoff described above; the cursor and the previous
  /// op's schedule time are only ever touched by the gate winner, so they
  /// need no lock of their own.
  struct SiteState {
    std::size_t cursor = 0;
    SimTime prev_at = 0;
    std::atomic<int> gate{0};
  };

  /// Runs the site's next op (worker context, the site's turn).
  void run_site(SiteId s);
  /// dispatch() completion for site `s` (any context).
  void complete(SiteId s);
  /// Posts the op under the site's cursor, after its scaled gap, or
  /// retires the site when its schedule is done.
  void post_next(SiteId s);
  void site_finished();
  void wake_play();
  /// One live time-series sample, then the next tick (timer context): real
  /// time stands in for the DES clock.
  void sample_live();

  NodeStack& stack_;
  net::ThreadTransport& transport_;
  const unsigned workers_target_;
  const double time_scale_;

  ScheduleDriver* driver_ = nullptr;
  const workload::Schedule* schedule_ = nullptr;
  std::unique_ptr<SiteState[]> sites_;
  std::atomic<std::size_t> live_sites_{0};
  std::atomic<bool> stop_{false};

  /// play() waits here for the last site to finish or for a stop.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  /// Posts ops whose scaled schedule gap has not elapsed yet and ticks the
  /// live sampler every LiveTelemetry::sample_interval microseconds of
  /// wall time. play() creates it only when time_scale > 0 or live
  /// telemetry samples.
  std::unique_ptr<net::ThreadTimerDriver> timer_;

  /// Serializes play() startup against abort()/finish() teardown, so an
  /// abort racing a starting run sees either "not started" or the fully
  /// started run.
  std::mutex life_mutex_;
  bool started_ = false;
};

}  // namespace causim::engine
