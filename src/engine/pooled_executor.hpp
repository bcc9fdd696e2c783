// PooledExecutor — the thread substrate: N sites multiplexed over a fixed
// pool of W workers, each with its own run queue.
//
// Two regimes are the same code at different W:
//
//   * W = n (ExecutorKind::kPerSite) — every site has its own worker, so
//     the pool models the paper's one-process-per-site testbed: a site's
//     application thread blocks on RemoteFetch and is woken by one notify
//     on its own condvar when the RM arrives (§II-B).
//   * W < n (ExecutorKind::kPooled) — PaRiS/Okapi-style deployments that
//     multiplex many partitions over fixed server resources; this is the
//     msgs/sec-ceiling lane.
//
// The architecture is action-queue/invoker:
//
//   * site s always runs on worker s % W, whose run queue holds the
//     worker's sites with runnable work (a site is in at most one queue,
//     at most once, so the queues never contend across workers),
//   * a worker pops a site and runs its schedule ops until one blocks (a
//     RemoteFetch in flight) or the site finishes,
//   * per-site invokers are serialized by an atomic completion gate, so a
//     SiteRuntime never runs concurrently with itself, while different
//     sites run genuinely in parallel,
//   * a blocked site consumes no worker: the RM completion callback
//     (receipt-thread context) re-enqueues it on its worker's queue, and
//     the worker has long moved on to another of its sites.
//
// The completion gate is the whole trick. dispatch()'s `done` may fire
// inline (writes, local reads) or later from a receipt thread (remote
// reads), and the two sides race. Both the dispatching worker and the
// callback fetch_add the gate; whoever arrives *second* (reads 1) owns
// the site's continuation — advance the cursor and either keep running
// inline or push the site back on its run queue. Exactly one side
// continues, the blocking-fetch rule holds, and no latch or per-op
// condvar is needed.
//
// Schedule gaps (op.at) are slept out before each op, scaled by
// Options::time_scale; the default 0 runs every site at full speed. At
// W < n a sleeping site holds its worker, delaying the worker's other
// sites — scaled gaps model think time, which occupies the server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/schedule_driver.hpp"

namespace causim::net {
class ThreadTransport;
}  // namespace causim::net

namespace causim::engine {

class PooledExecutor final : public Executor {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread (at least 1).
    unsigned workers = 0;
    /// Sleep schedule gaps scaled by this factor (0 = run at full speed;
    /// 1e-6 turns a millisecond of schedule time into a microsecond).
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

  /// Stops the pool, the timer and the transport so no background thread
  /// outlives the stack (see Executor::abort). Safe to call concurrently
  /// with a play() in flight — sites abandon their remaining ops and
  /// play() returns; tests/test_pooled_executor.cpp races this against
  /// live traffic deliberately.
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

  /// One pool worker and its run queue. Cache-line aligned so neighbouring
  /// workers' queue locks do not share a line.
  struct alignas(64) Worker {
    std::mutex mutex;
    std::condition_variable cv;  // runnable site or stop
    std::deque<SiteId> queue;
    std::thread thread;
  };

  void worker_loop(Worker& w);
  /// Runs ops of `s` until it blocks or finishes (worker context).
  void run_site(SiteId s);
  /// dispatch() completion for site `s` (any context).
  void complete(SiteId s);
  void enqueue(SiteId s);
  void site_finished();
  void stop_workers();
  void start_live_sampler();
  void stop_live_sampler();

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

  /// Declared after everything the worker threads touch.
  std::unique_ptr<Worker[]> workers_;

  /// Serializes play() startup against abort()/finish() teardown, so an
  /// abort racing a starting run sees either "not started" or the fully
  /// assembled pool — never a half-spawned worker set.
  std::mutex life_mutex_;
  bool started_ = false;

  /// Live time-series sampler: real time stands in for the DES clock, so
  /// a dedicated thread ticks NodeStack::live_sample every
  /// LiveTelemetry::sample_interval microseconds of wall time until
  /// finish().
  std::mutex live_mutex_;
  std::condition_variable live_cv_;
  bool live_stop_ = false;
  std::thread live_sampler_;
};

}  // namespace causim::engine
