#include "engine/pooled_executor.hpp"

#include <algorithm>
#include <thread>

#include "common/panic.hpp"
#include "net/thread_transport.hpp"
#include "net/timer.hpp"
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
      time_scale_(options.time_scale) {}

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
    const obs::live::LiveTelemetry* live = stack_.config().live;
    const bool sample = live != nullptr && live->sample_interval() > 0;
    timer_ = time_scale_ > 0.0 || sample ? std::make_unique<net::ThreadTimerDriver>()
                                         : nullptr;
    transport_.start(workers_target_, [this](SiteId s) { run_site(s); });
    started_ = true;
    if (sample) timer_->schedule(0, [this] { sample_live(); });
    for (SiteId s = 0; s < n; ++s) post_next(s);
  }
  // All application work happens on the pool; this thread only waits for
  // the last site to finish — or for an abort() to pull the plug.
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [this] {
    return live_sites_.load(std::memory_order_acquire) == 0 ||
           stop_.load(std::memory_order_acquire);
  });
}

void PooledExecutor::run_site(SiteId s) {
  if (stop_.load(std::memory_order_acquire)) return;  // aborted mid-run
  SiteState& st = sites_[s];
  st.gate.store(0, std::memory_order_release);
  driver_->dispatch(s, schedule_->per_site[s][st.cursor], [this, s] { complete(s); });
  if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 1) {
    // `done` already fired (inline write/local read, or a remote read
    // whose RM beat us here): this turn owns the continuation.
    ++st.cursor;
    post_next(s);
  }
  // Otherwise the completion is pending (RemoteFetch in flight): the
  // callback owns the continuation, and the worker moves on.
}

void PooledExecutor::complete(SiteId s) {
  SiteState& st = sites_[s];
  if (st.gate.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // The dispatching turn has not checked the gate yet — it arrives
    // second and continues the site.
    return;
  }
  // dispatch() already returned: this callback owns the continuation. The
  // cursor touch is safe — the gate handoff is the site's serialization
  // point.
  ++st.cursor;
  post_next(s);
}

void PooledExecutor::post_next(SiteId s) {
  SiteState& st = sites_[s];
  const std::vector<workload::Op>& ops = schedule_->per_site[s];
  if (st.cursor >= ops.size()) {
    site_finished();
    return;
  }
  if (time_scale_ > 0.0) {
    const SimTime at = ops[st.cursor].at;
    const auto gap =
        static_cast<SimTime>(static_cast<double>(at - st.prev_at) * time_scale_);
    st.prev_at = at;
    if (gap > 0) {
      timer_->schedule(gap, [this, s] { transport_.post_app(s); });
      return;
    }
  }
  transport_.post_app(s);
}

void PooledExecutor::site_finished() {
  if (live_sites_.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_play();
}

void PooledExecutor::wake_play() {
  // Passing through the mutex orders the state change before any
  // predicate check in play() that could otherwise miss it and sleep
  // forever.
  { std::lock_guard lock(done_mutex_); }
  done_cv_.notify_all();
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
  if (timer_ != nullptr) timer_->stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::abort() {
  std::lock_guard life(life_mutex_);
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  wake_play();
  // Timers before the transport: a post or a retransmission firing into a
  // stopped wire would panic. transport_.stop() then refuses further ops,
  // waits out a running one, drains the wire and joins the pool.
  if (timer_ != nullptr) timer_->stop();
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.stop();
  started_ = false;
}

void PooledExecutor::sample_live() {
  // The stack snapshots under per-site locks; the telemetry stamps the
  // sample with its own steady clock (no engine clock under threads).
  stack_.live_sample(0);
  timer_->schedule(stack_.config().live->sample_interval(), [this] { sample_live(); });
}

}  // namespace causim::engine
