#include "net/thread_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/panic.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

namespace {
// Minimal xorshift for delay jitter; ThreadTransport runs are inherently
// nondeterministic anyway, so a full PCG stream is unnecessary here.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace

ThreadTransport::ThreadTransport(SiteId n) : ThreadTransport(n, Options()) {}

ThreadTransport::ThreadTransport(SiteId n, Options options)
    : max_delay_us_(options.max_delay_us),
      rng_state_(options.seed == 0 ? 0x9e3779b97f4a7c15ULL : options.seed),
      channel_due_(static_cast<std::size_t>(n) * n),
      channel_seq_(static_cast<std::size_t>(n) * n, 0),
      epoch_(std::chrono::steady_clock::now()) {
  inboxes_.reserve(n);
  for (SiteId i = 0; i < n; ++i) inboxes_.push_back(std::make_unique<Inbox>());
}

void ThreadTransport::set_trace_sink(obs::TraceSink* sink) {
  CAUSIM_CHECK(phase_.load() == Phase::kIdle, "set_trace_sink after start()");
  trace_ = sink;
}

void ThreadTransport::trace(obs::TraceEventType type, SiteId site, SiteId peer,
                            SimTime dur, std::uint64_t seq, std::uint64_t bytes) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.type = type;
  e.site = site;
  e.peer = peer;
  e.ts = std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
             .count();
  e.dur = dur;
  e.a = seq;
  e.b = bytes;
  trace_->emit(e);
}

ThreadTransport::~ThreadTransport() { stop(); }

void ThreadTransport::attach(SiteId site, PacketHandler* handler) {
  CAUSIM_CHECK(site < inboxes_.size(), "attach: site " << site << " out of range");
  CAUSIM_CHECK(phase_.load() == Phase::kIdle, "attach after start()");
  inboxes_[site]->handler = handler;
}

void ThreadTransport::start(unsigned workers, std::function<void(SiteId)> app) {
  CAUSIM_CHECK(phase_.load() == Phase::kIdle, "transport already started");
  worker_count_ = workers == 0 ? static_cast<unsigned>(inboxes_.size()) : workers;
  CAUSIM_CHECK(worker_count_ > 0, "transport needs at least one worker");
  app_ = std::move(app);
  // A stopped run may have left sites flagged on run queues that no
  // worker drains any more.
  for (auto& inbox : inboxes_) {
    inbox->app_ready = false;
    inbox->scheduled = false;
  }
  workers_ = std::make_unique<Worker[]>(worker_count_);
  app_open_.store(true);
  phase_.store(Phase::kRunning);
  for (unsigned i = 0; i < worker_count_; ++i) {
    Worker& w = workers_[i];
    w.thread = std::thread([this, &w] { worker_loop(w); });
  }
  if (max_delay_us_ > 0) {
    wire_thread_ = std::thread([this] { wire_loop(); });
  }
}

template <typename Fill>
void ThreadTransport::post(SiteId s, Fill&& fill) {
  Inbox& inbox = *inboxes_[s];
  {
    std::lock_guard lock(inbox.mutex);
    fill(inbox);
    if (inbox.scheduled) return;
    inbox.scheduled = true;
  }
  push(s);
}

void ThreadTransport::push(SiteId s) {
  Worker& w = workers_[s % worker_count_];
  {
    std::lock_guard lock(w.mutex);
    w.queue.push_back(s);
  }
  w.cv.notify_one();
}

void ThreadTransport::post_app(SiteId s) {
  CAUSIM_CHECK(app_, "post_app on a transport started without an application");
  post(s, [](Inbox& inbox) { inbox.app_ready = true; });
}

void ThreadTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  CAUSIM_CHECK(to < inboxes_.size() && inboxes_[to]->handler != nullptr,
               "send to unattached site " << to);
  CAUSIM_CHECK(phase_.load() == Phase::kRunning, "send on a stopped transport");
  in_flight_.fetch_add(1);
  sent_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t channel = static_cast<std::size_t>(from) * inboxes_.size() + to;
  Packet p{from, to, 0, std::move(bytes)};
  const std::uint64_t packet_bytes = p.bytes.size();
  if (max_delay_us_ > 0) {
    {
      // Due times are assigned under the wire mutex so per-channel FIFO can
      // be enforced by clamping to the previous due time on the same channel.
      std::lock_guard lock(wire_mutex_);
      p.seq = channel_seq_[channel]++;
      const auto now = std::chrono::steady_clock::now();
      const std::int64_t jitter =
          static_cast<std::int64_t>(next_rand(rng_state_) % static_cast<std::uint64_t>(max_delay_us_ + 1));
      const auto due = std::max(now + std::chrono::microseconds(jitter),
                                channel_due_[channel] + std::chrono::microseconds(1));
      channel_due_[channel] = due;
      trace(obs::TraceEventType::kWireDelay, from, to,
            std::chrono::duration_cast<std::chrono::microseconds>(due - now).count(),
            p.seq, packet_bytes);
      TimedPacket tp{due, std::move(p)};
      const auto pos = std::upper_bound(
          wire_queue_.begin(), wire_queue_.end(), tp,
          [](const TimedPacket& a, const TimedPacket& b) { return a.due < b.due; });
      wire_queue_.insert(pos, std::move(tp));
    }
    wire_cv_.notify_one();
    return;
  }
  post(to, [&](Inbox& inbox) {
    p.seq = channel_seq_[channel]++;
    trace(obs::TraceEventType::kWireDelay, from, to, 0, p.seq, packet_bytes);
    inbox.queue.push_back(std::move(p));
  });
}

void ThreadTransport::wire_loop() {
  std::unique_lock lock(wire_mutex_);
  for (;;) {
    if (wire_queue_.empty()) {
      if (phase_.load() == Phase::kStopping) return;
      wire_cv_.wait(lock, [this] {
        return !wire_queue_.empty() || phase_.load() == Phase::kStopping;
      });
      continue;
    }
    const auto due = wire_queue_.front().due;
    if (due > std::chrono::steady_clock::now()) {
      wire_cv_.wait_until(lock, due);
      continue;
    }
    Packet p = std::move(wire_queue_.front().packet);
    wire_queue_.pop_front();
    lock.unlock();
    const SiteId to = p.to;
    post(to, [&p](Inbox& inbox) { inbox.queue.push_back(std::move(p)); });
    lock.lock();
  }
}

void ThreadTransport::worker_loop(Worker& w) {
  for (;;) {
    SiteId s = kInvalidSite;
    {
      std::unique_lock lock(w.mutex);
      w.cv.wait(lock, [this, &w] {
        return !w.queue.empty() || phase_.load() == Phase::kStopping;
      });
      // Stopping comes after quiesce(): no packet is left, and whatever
      // application step is still flagged was refused.
      if (phase_.load() == Phase::kStopping) return;
      s = w.queue.front();
      w.queue.pop_front();
    }
    run_turn(s);
  }
}

void ThreadTransport::run_turn(SiteId s) {
  Inbox& inbox = *inboxes_[s];
  {
    std::lock_guard lock(inbox.mutex);
    inbox.batch.swap(inbox.queue);
  }
  for (Packet& p : inbox.batch) deliver(*inbox.handler, std::move(p));
  inbox.batch.clear();
  bool app = false;
  {
    std::lock_guard lock(inbox.mutex);
    app = std::exchange(inbox.app_ready, false);
  }
  if (app) {
    // Counted as in flight before the gate is read, so a stop() that
    // closes the gate either sees this step in quiesce() or is seen here.
    in_flight_.fetch_add(1);
    if (app_open_.load()) app_(s);
    retire();
  }
  {
    std::lock_guard lock(inbox.mutex);
    inbox.scheduled = !inbox.queue.empty() || inbox.app_ready;
    if (!inbox.scheduled) return;
  }
  push(s);
}

void ThreadTransport::deliver(PacketHandler& handler, Packet p) {
  trace(obs::TraceEventType::kDeliver, p.to, p.from, 0, p.seq, p.bytes.size());
  handler.on_packet(std::move(p));
  delivered_.fetch_add(1, std::memory_order_relaxed);
  retire();
}

void ThreadTransport::retire() {
  const std::uint64_t before = in_flight_.fetch_sub(1);
  CAUSIM_CHECK(before > 0, "delivered more packets than were sent");
  if (before == 1) {
    // Taking the lock orders the notify after a quiesce() that saw a
    // non-zero count and is about to sleep.
    std::lock_guard lock(quiesce_mutex_);
    quiesce_cv_.notify_all();
  }
}

void ThreadTransport::quiesce() {
  std::unique_lock lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] { return in_flight_.load() == 0; });
}

void ThreadTransport::stop() {
  if (phase_.load() != Phase::kRunning) return;
  app_open_.store(false);
  quiesce();
  phase_.store(Phase::kStopping);
  // Pass through each waiter's mutex: a thread that checked the phase
  // just before it changed would otherwise miss the notify and wait
  // forever.
  for (unsigned i = 0; i < worker_count_; ++i) {
    { std::lock_guard lock(workers_[i].mutex); }
    workers_[i].cv.notify_all();
  }
  { std::lock_guard lock(wire_mutex_); }
  wire_cv_.notify_all();
  for (unsigned i = 0; i < worker_count_; ++i) workers_[i].thread.join();
  if (wire_thread_.joinable()) wire_thread_.join();
  phase_.store(Phase::kIdle);
}

std::uint64_t ThreadTransport::packets_sent() const {
  return sent_.load(std::memory_order_relaxed);
}

std::uint64_t ThreadTransport::packets_delivered() const {
  return delivered_.load(std::memory_order_relaxed);
}

}  // namespace causim::net
