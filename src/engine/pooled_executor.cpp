#include "engine/pooled_executor.hpp"

#include <algorithm>
#include <chrono>

#include "common/panic.hpp"
#include "net/thread_transport.hpp"
#include "obs/live/live_telemetry.hpp"

namespace causim::engine {

namespace {

unsigned resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

PooledExecutor::PooledExecutor(NodeStack& stack, net::ThreadTransport& transport,
                               Options options)
    : stack_(stack),
      transport_(transport),
      workers_target_(resolve_workers(options.workers)),
      time_scale_(options.time_scale),
      workers_(std::make_unique<Worker[]>(workers_target_)) {}

PooledExecutor::~PooledExecutor() { abort(); }

void PooledExecutor::play(ScheduleDriver& driver,
                          const workload::Schedule& schedule) {
  const SiteId n = stack_.sites();
  {
    std::lock_guard life(life_mutex_);
    driver_ = &driver;
    schedule_ = &schedule;
    sites_ = std::make_unique<SiteState[]>(n);
    live_sites_.store(n, std::memory_order_release);
    stop_.store(false, std::memory_order_release);
    transport_.start();
    started_ = true;
    start_live_sampler();
    // No worker runs yet, so the queues need no locks here.
    for (unsigned i = 0; i < workers_target_; ++i) workers_[i].queue.clear();
    for (SiteId s = 0; s < n; ++s) workers_[s % workers_target_].queue.push_back(s);
    for (unsigned i = 0; i < workers_target_; ++i) {
      Worker& w = workers_[i];
      w.thread = std::thread([this, &w] { worker_loop(w); });
    }
  }
  // All application work happens on the pool; this thread only waits for
  // the last site to finish — or for an abort() to pull the plug.
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [this] {
    return live_sites_.load(std::memory_order_acquire) == 0 ||
           stop_.load(std::memory_order_acquire);
  });
}

void PooledExecutor::worker_loop(Worker& w) {
  for (;;) {
    SiteId s;
    {
      std::unique_lock lock(w.mutex);
      w.cv.wait(lock, [this, &w] {
        return stop_.load(std::memory_order_acquire) || !w.queue.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      s = w.queue.front();
      w.queue.pop_front();
    }
    run_site(s);
  }
}

void PooledExecutor::run_site(SiteId s) {
  SiteState& st = sites_[s];
  const std::vector<workload::Op>& ops = schedule_->per_site[s];
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;  // aborted mid-run
    if (st.cursor >= ops.size()) {
      site_finished();
      return;
    }
    const workload::Op& op = ops[st.cursor];
    if (time_scale_ > 0.0) {
      const auto gap = static_cast<std::int64_t>(
          static_cast<double>(op.at - st.prev_at) * time_scale_);
      if (gap > 0) std::this_thread::sleep_for(std::chrono::microseconds(gap));
      st.prev_at = op.at;
    }
    st.gate.store(0, std::memory_order_release);
    driver_->dispatch(s, op, [this, s] { complete(s); });
    if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 1) {
      // `done` already fired (inline write/local read, or a remote read
      // whose RM beat us here): this worker owns the continuation and
      // keeps the site hot instead of a queue round trip.
      ++st.cursor;
      continue;
    }
    // Completion pending (RemoteFetch in flight): the callback owns the
    // continuation and will re-enqueue the site. This worker is free.
    return;
  }
}

void PooledExecutor::complete(SiteId s) {
  SiteState& st = sites_[s];
  if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // The dispatching worker has not checked the gate yet — it arrives
    // second and continues the site inline.
    return;
  }
  // dispatch() already returned on the worker side: this callback (a
  // receipt thread, typically) owns the continuation. The cursor touch is
  // safe — the gate handoff is the site's serialization point.
  ++st.cursor;
  enqueue(s);
}

void PooledExecutor::enqueue(SiteId s) {
  Worker& w = workers_[s % workers_target_];
  {
    std::lock_guard lock(w.mutex);
    w.queue.push_back(s);
  }
  w.cv.notify_one();
}

void PooledExecutor::site_finished() {
  if (live_sites_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last site done. Take the lock before notifying so play()'s
    // predicate check cannot slip between our decrement and the notify.
    std::lock_guard lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void PooledExecutor::drain() {
  // All senders are done. With the cross-DC gateway up, the flush and
  // quiescence steps loop: a mailbox can be *refilled* mid-drain — an
  // enroute frame still in flight lands at its gateway after the flush,
  // and an FM fanned out of a mailbox triggers an RM reply that enters a
  // fresh one. Each pass strictly moves messages down the stack and the
  // senders have stopped, so the loop terminates once the last reply made
  // it through.
  do {
    if (stack_.gateway() != nullptr) stack_.gateway()->flush_all();
    if (stack_.batching() != nullptr) stack_.batching()->flush_all();
    if (stack_.reliable() != nullptr) stack_.reliable()->wait_quiescent();
    if (stack_.gateway() != nullptr) transport_.quiesce();
  } while (stack_.gateway() != nullptr && !stack_.gateway()->quiescent());
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.quiesce();
}

void PooledExecutor::finish() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  stop_workers();
  stop_live_sampler();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::abort() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  // Workers first: once they are joined no application thread can send,
  // so the layers below can be torn down in the usual order (timer before
  // transport — a retransmission firing into a stopped wire would panic).
  stop_workers();
  stop_live_sampler();
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::stop_workers() {
  stop_.store(true, std::memory_order_release);
  // Passing through each waiter's mutex orders the store before any
  // predicate check that could otherwise miss it and sleep forever.
  { std::lock_guard lock(done_mutex_); }
  done_cv_.notify_all();
  for (unsigned i = 0; i < workers_target_; ++i) {
    Worker& w = workers_[i];
    { std::lock_guard lock(w.mutex); }
    w.cv.notify_all();
    if (w.thread.joinable()) w.thread.join();
  }
}

void PooledExecutor::start_live_sampler() {
  obs::live::LiveTelemetry* live = stack_.config().live;
  if (live == nullptr || live->sample_interval() <= 0) return;
  live_stop_ = false;
  live_sampler_ = std::thread([this, live] {
    const auto period = std::chrono::microseconds(live->sample_interval());
    std::unique_lock lock(live_mutex_);
    while (!live_stop_) {
      lock.unlock();
      // The stack snapshots under per-site locks; the telemetry stamps the
      // sample with its own steady clock (no engine clock under threads).
      stack_.live_sample(0);
      lock.lock();
      live_cv_.wait_for(lock, period, [this] { return live_stop_; });
    }
  });
}

void PooledExecutor::stop_live_sampler() {
  if (!live_sampler_.joinable()) return;
  {
    std::lock_guard lock(live_mutex_);
    live_stop_ = true;
  }
  live_cv_.notify_all();
  live_sampler_.join();
}

}  // namespace causim::engine
