#include "dsm/site_runtime.hpp"

#include <algorithm>
#include <string>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace causim::dsm {

SiteRuntime::SiteRuntime(SiteId self, const Placement& placement, net::Transport& transport,
                         std::unique_ptr<causal::Protocol> protocol,
                         checker::HistoryRecorder* recorder, serial::ClockWidth clock_width,
                         std::function<SimTime()> now_fn, bool causal_fetch)
    : self_(self),
      placement_(placement),
      transport_(transport),
      protocol_(std::move(protocol)),
      recorder_(recorder),
      clock_width_(clock_width),
      now_fn_(std::move(now_fn)),
      causal_fetch_(causal_fetch) {
  CAUSIM_CHECK(protocol_ != nullptr, "runtime needs a protocol");
  CAUSIM_CHECK(protocol_->self() == self_, "protocol bound to a different site");
  protocol_->set_observer(this);
}

void SiteRuntime::set_trace_sink(obs::TraceSink* sink) {
  std::lock_guard lock(mutex_);
  trace_ = sink;
}

void SiteRuntime::set_buffer_pool(serial::BufferPool* pool) {
  std::lock_guard lock(mutex_);
  pool_ = pool;
}

serial::ByteWriter SiteRuntime::meta_writer_locked() const {
  return pool_ != nullptr ? serial::ByteWriter(clock_width_, pool_->acquire())
                          : serial::ByteWriter(clock_width_);
}

void SiteRuntime::recycle_locked(serial::Bytes&& bytes) {
  if (pool_ != nullptr) pool_->release(std::move(bytes));
}

void SiteRuntime::trace_log_occupancy() {
  std::lock_guard lock(mutex_);
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.type = obs::TraceEventType::kLogSample;
  e.a = protocol_->log_entry_count();
  e.b = protocol_->local_meta_bytes();
  trace_locked(e);
}

SiteRuntime::LiveSample SiteRuntime::live_sample(std::uint64_t ordinal) {
  std::lock_guard lock(mutex_);
  LiveSample sample;
  sample.pending_updates = pending_.size();
  sample.log_entries = protocol_->log_entry_count();
  sample.log_bytes = protocol_->local_meta_bytes();
  obs::TraceEvent e;
  e.type = obs::TraceEventType::kTimeSample;
  e.a = sample.pending_updates;
  e.b = ordinal;
  trace_locked(e);
  return sample;
}

void SiteRuntime::trace_locked(obs::TraceEvent e) {
  if (trace_ == nullptr) return;
  e.site = self_;
  if (e.ts == 0) e.ts = now_locked();
  trace_->emit(e);
}

void SiteRuntime::on_log_merge(std::size_t before, std::size_t incoming,
                               std::size_t after) {
  (void)incoming;
  ++log_merges_;
  obs::TraceEvent e;
  e.type = obs::TraceEventType::kLogMerge;
  e.a = before;
  e.b = after;
  trace_locked(e);
}

void SiteRuntime::on_log_prune(std::size_t before, std::size_t after) {
  ++log_prunes_;
  obs::TraceEvent e;
  e.type = obs::TraceEventType::kLogPrune;
  e.a = before;
  e.b = after;
  trace_locked(e);
}

WriteId SiteRuntime::write(VarId var, std::uint32_t payload_bytes, bool record) {
  std::unique_lock lock(mutex_);
  CAUSIM_CHECK(!fetch_.has_value(), "write issued while a remote fetch is outstanding");
  const DestSet& dests = placement_.replicas(var);
  {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kOpIssue;
    e.a = var;
    e.b = 1;
    trace_locked(e);
  }
  if (record) dest_set_size_.record(static_cast<double>(dests.count()));

  Value value;
  value.id = (static_cast<std::uint64_t>(self_) + 1) << 32 | ++next_value_seq_;
  value.payload_bytes = payload_bytes;

  serial::ByteWriter meta = meta_writer_locked();
  const WriteId w = protocol_->local_write(var, value, dests, meta);
  if (recorder_ != nullptr) recorder_->record_write(self_, var, w);

  if (dests.contains(self_)) {
    store_[var] = {value, w};
    if (recorder_ != nullptr) recorder_->record_apply(self_, var, w);
  }

  Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = self_;
  env.var = var;
  env.value = value;
  env.write = w;
  env.meta = meta.take();
  dests.for_each([&](SiteId d) {
    if (d != self_) send_envelope(env, d, record);
  });
  recycle_locked(std::move(env.meta));

  if (record) sample_meta_locked();
  {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kOpComplete;
    e.a = var;
    e.b = 1;
    trace_locked(e);
  }
  return w;
}

bool SiteRuntime::read(VarId var, ReadCallback done, bool record) {
  std::unique_lock lock(mutex_);
  CAUSIM_CHECK(!fetch_.has_value(), "read issued while a remote fetch is outstanding");
  {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kOpIssue;
    e.a = var;
    trace_locked(e);
  }

  if (placement_.replicated_at(var, self_)) {
    protocol_->local_read(var);
    const auto it = store_.find(var);
    const auto [value, w] =
        it == store_.end() ? std::pair<Value, WriteId>{} : it->second;
    if (recorder_ != nullptr) recorder_->record_read(self_, var, w, false, self_);
    if (record) sample_meta_locked();
    {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kOpComplete;
      e.a = var;
      trace_locked(e);
    }
    lock.unlock();
    if (done) done(value, w);
    return true;
  }

  const SiteId target = placement_.fetch_site(var, self_);
  PendingFetch fetch;
  fetch.var = var;
  fetch.seq = ++next_fetch_seq_;
  fetch.done = std::move(done);
  fetch.record = record;
  fetch.started = now_fn_ ? now_fn_() : 0;
  fetch_ = std::move(fetch);

  Envelope env;
  env.kind = MessageKind::kFM;
  env.sender = self_;
  env.var = var;
  env.fetch_seq = fetch_->seq;
  env.record = record;
  if (causal_fetch_) {
    serial::ByteWriter guard = meta_writer_locked();
    protocol_->fetch_guard_meta(target, guard);
    env.meta = guard.take();
  }
  send_envelope(env, target, record);
  recycle_locked(std::move(env.meta));
  return false;
}

bool SiteRuntime::fetch_pending() const {
  std::lock_guard lock(mutex_);
  return fetch_.has_value();
}

void SiteRuntime::on_packet(net::Packet packet) {
  Envelope env = Envelope::decode(packet.bytes, clock_width_);
  {
    // The frame is spent: decode copied everything into `env`.
    std::lock_guard lock(mutex_);
    recycle_locked(std::move(packet.bytes));
  }
  switch (env.kind) {
    case MessageKind::kSM:
      handle_sm(std::move(env));
      break;
    case MessageKind::kFM:
      handle_fm(env, packet.from);
      break;
    case MessageKind::kRM:
      handle_rm(std::move(env));
      break;
  }
}

void SiteRuntime::handle_sm(Envelope env) {
  std::function<void()> completion;
  {
    std::lock_guard lock(mutex_);
    CAUSIM_CHECK(placement_.replicated_at(env.var, self_),
                 "SM for var " << env.var << " reached non-replica site " << self_);
    serial::ByteReader meta(env.meta, clock_width_);
    causal::SmEnvelope sm{env.sender, env.var, env.value, env.write};
    auto update = protocol_->decode_sm(sm, placement_.replicas(env.var), meta);
    CAUSIM_CHECK(meta.ok(), "corrupt SM meta-data at site " << self_
                                                            << " (the reliability layer "
                                                               "must deliver intact bytes)");
    recycle_locked(std::move(env.meta));  // decode_sm copied what it needs
    const bool buffered = !protocol_->ready(*update);
    QueuedUpdate queued{std::move(update), now_locked(), buffered, {}, 0};
    if (buffered && trace_ != nullptr) {
      // Provenance: capture *why* the predicate is false. Queried only with
      // a sink attached, so a traceless run never pays for blocking_dep.
      queued.blocker = protocol_->blocking_dep(*queued.update);
      queued.blocker_since = queued.received;
    }
    pending_.push_back(std::move(queued));
    pending_hwm_ = std::max(pending_hwm_, pending_.size());
    if (buffered) {
      ++buffered_updates_;
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kBuffered;
      e.peer = env.sender;
      e.a = env.var;
      e.b = pending_.size();
      e.c = obs::pack_write_id(env.write);
      const causal::BlockingDep& dep = pending_.back().blocker;
      if (dep.valid()) {
        e.d = obs::pack_blocking_dep(dep.writer, dep.value, dep.is_ordinal);
      }
      trace_locked(e);
    }
    drain_pending_locked();
    completion = try_complete_fetch_locked();
  }
  if (completion) completion();
}

void SiteRuntime::handle_fm(const Envelope& env, SiteId from) {
  std::lock_guard lock(mutex_);
  CAUSIM_CHECK(placement_.replicated_at(env.var, self_),
               "fetch for var " << env.var << " reached non-replica site " << self_);
  if (causal_fetch_ && !env.meta.empty()) {
    serial::ByteReader guard_meta(env.meta, clock_width_);
    auto guard = protocol_->decode_fetch_guard(guard_meta);
    CAUSIM_CHECK(guard_meta.ok(), "corrupt FM guard meta-data at site " << self_);
    if (guard != nullptr && !protocol_->fetch_ready(*guard)) {
      held_fetches_.push_back(HeldFetch{env, from, std::move(guard)});
      held_fetch_hwm_ = std::max(held_fetch_hwm_, held_fetches_.size());
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kFetchHeld;
      e.peer = from;
      e.a = env.var;
      trace_locked(e);
      return;
    }
  }
  serve_fm_locked(env, from);
}

void SiteRuntime::serve_fm_locked(const Envelope& env, SiteId from) {
  serial::ByteWriter meta = meta_writer_locked();
  protocol_->remote_return_meta(env.var, meta);
  const auto it = store_.find(env.var);
  const auto [value, w] = it == store_.end() ? std::pair<Value, WriteId>{} : it->second;
  if (recorder_ != nullptr) recorder_->record_serve(self_, env.var, w);

  Envelope rm;
  rm.kind = MessageKind::kRM;
  rm.sender = self_;
  rm.var = env.var;
  rm.value = value;
  rm.write = w;
  rm.fetch_seq = env.fetch_seq;
  rm.record = env.record;  // the RM inherits the fetch's warm-up status
  rm.meta = meta.take();
  send_envelope(rm, from, env.record);
  recycle_locked(std::move(rm.meta));
}

void SiteRuntime::handle_rm(Envelope env) {
  std::function<void()> completion;
  {
    std::lock_guard lock(mutex_);
    CAUSIM_CHECK(fetch_.has_value() && fetch_->seq == env.fetch_seq,
                 "unexpected RM (seq " << env.fetch_seq << ") at site " << self_);
    CAUSIM_CHECK(fetch_->var == env.var, "RM variable mismatch");
    CAUSIM_CHECK(!held_return_.has_value(), "two remote returns outstanding");
    serial::ByteReader meta(env.meta, clock_width_);
    held_return_ = HeldReturn{std::move(env), protocol_->decode_remote_return(meta)};
    CAUSIM_CHECK(meta.ok(), "corrupt RM meta-data at site " << self_);
    completion = try_complete_fetch_locked();
  }
  if (completion) completion();
}

std::function<void()> SiteRuntime::try_complete_fetch_locked() {
  if (!held_return_.has_value() || !protocol_->return_ready(*held_return_->decoded)) {
    return {};
  }
  const Envelope env = std::move(held_return_->reply);
  const auto decoded = std::move(held_return_->decoded);
  held_return_.reset();
  protocol_->absorb_remote_return(env.var, *decoded);
  if (recorder_ != nullptr) {
    recorder_->record_read(self_, env.var, env.write, /*remote=*/true, env.sender);
  }
  const SimTime latency = now_fn_ ? now_fn_() - fetch_->started : 0;
  if (now_fn_ && fetch_->record) {
    fetch_latency_.record(static_cast<double>(latency));
    fetch_latency_hist_.record(static_cast<double>(latency));
  }
  if (fetch_->record) sample_meta_locked();
  {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kOpComplete;
    e.peer = env.sender;
    e.ts = fetch_->started;  // span covers the whole fetch round-trip
    e.dur = latency;
    e.a = env.var;
    trace_locked(e);
  }
  ReadCallback done = std::move(fetch_->done);
  fetch_.reset();
  if (!done) return [] {};
  return [done = std::move(done), value = env.value, w = env.write] { done(value, w); };
}

void SiteRuntime::drain_pending_locked() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!protocol_->ready(*it->update)) continue;
      const QueuedUpdate queued = std::move(*it);
      pending_.erase(it);
      protocol_->apply(*queued.update);
      ++total_applies_;
      const SimTime waited = now_fn_ ? now_fn_() - queued.received : 0;
      if (waited > 0) apply_delay_.record(static_cast<double>(waited));
      const auto& env = queued.update->env();
      store_[env.var] = {env.value, env.write};
      if (recorder_ != nullptr) recorder_->record_apply(self_, env.var, env.write);
      if (queued.blocker.valid()) {
        // Close the final blocker segment: its end is this apply (d = 0).
        trace_dep_satisfied_locked(queued, causal::BlockingDep{});
      }
      {
        obs::TraceEvent e;
        e.type = obs::TraceEventType::kActivated;
        e.peer = env.sender;
        e.ts = queued.received;  // span covers the time spent buffered
        e.dur = waited;
        e.a = env.var;
        e.b = queued.was_buffered ? 1 : 0;
        e.c = obs::pack_write_id(env.write);
        trace_locked(e);
      }
      if (trace_ != nullptr) trace_dep_progress_locked();
      progress = true;
      break;  // iterator invalidated; rescan from the front
    }
  }
  drain_held_fetches_locked();
}

void SiteRuntime::trace_dep_satisfied_locked(const QueuedUpdate& queued,
                                             const causal::BlockingDep& next) {
  obs::TraceEvent e;
  e.type = obs::TraceEventType::kDepSatisfied;
  e.peer = queued.update->env().sender;
  e.ts = queued.blocker_since;
  e.dur = now_locked() - queued.blocker_since;
  e.a = queued.update->env().var;
  e.b = obs::pack_write_id(queued.update->env().write);
  e.c = obs::pack_blocking_dep(queued.blocker.writer, queued.blocker.value,
                               queued.blocker.is_ordinal);
  if (next.valid()) {
    e.d = obs::pack_blocking_dep(next.writer, next.value, next.is_ordinal);
  }
  trace_locked(e);
}

void SiteRuntime::trace_dep_progress_locked() {
  for (QueuedUpdate& queued : pending_) {
    if (!queued.blocker.valid()) continue;
    const causal::BlockingDep dep = protocol_->blocking_dep(*queued.update);
    // A now-ready update keeps its blocker: the final segment is closed by
    // the apply itself (d = 0), not here — otherwise the tiling would leave
    // an unattributed gap between "last blocker resolved" and the apply.
    if (!dep.valid() || dep == queued.blocker) continue;
    trace_dep_satisfied_locked(queued, dep);
    queued.blocker = dep;
    queued.blocker_since = now_locked();
  }
}

void SiteRuntime::drain_held_fetches_locked() {
  for (auto it = held_fetches_.begin(); it != held_fetches_.end();) {
    if (protocol_->fetch_ready(*it->guard)) {
      const HeldFetch held = std::move(*it);
      it = held_fetches_.erase(it);
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kFetchServed;
      e.peer = held.from;
      e.a = held.request.var;
      trace_locked(e);
      serve_fm_locked(held.request, held.from);
    } else {
      ++it;
    }
  }
}

void SiteRuntime::send_envelope(const Envelope& env, SiteId to, bool record) {
  Envelope::Sizes sizes;
  serial::ByteWriter frame = meta_writer_locked();
  env.encode_into(frame, &sizes);
  if (record) {
    stats_.record(env.kind, sizes.header, sizes.meta, sizes.payload);
    if (message_probe_) {
      message_probe_(env.kind, sizes.header + sizes.meta, now_locked());
    }
  }
  {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kSend;
    e.kind = env.kind;
    e.peer = to;
    e.a = env.var;
    e.b = sizes.header + sizes.meta;
    // Provenance: SM sends carry the write's identity so the analyzer can
    // join this send to its kBuffered/kActivated at the destination.
    if (env.kind == MessageKind::kSM) e.c = obs::pack_write_id(env.write);
    trace_locked(e);
  }
  transport_.send(self_, to, frame.take());
}

void SiteRuntime::set_message_probe(MessageProbe probe) {
  std::lock_guard lock(mutex_);
  message_probe_ = std::move(probe);
}

void SiteRuntime::sample_meta_locked() {
  log_entries_.record(static_cast<double>(protocol_->log_entry_count()));
  log_bytes_.record(static_cast<double>(protocol_->local_meta_bytes()));
}

std::size_t SiteRuntime::pending_updates() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

std::size_t SiteRuntime::pending_remote_fetches() const {
  std::lock_guard lock(mutex_);
  return held_fetches_.size();
}

std::pair<Value, WriteId> SiteRuntime::local_value(VarId var) const {
  std::lock_guard lock(mutex_);
  const auto it = store_.find(var);
  return it == store_.end() ? std::pair<Value, WriteId>{} : it->second;
}

stats::MessageStats SiteRuntime::message_stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

stats::Summary SiteRuntime::log_entries() const {
  std::lock_guard lock(mutex_);
  return log_entries_;
}

stats::Summary SiteRuntime::log_bytes() const {
  std::lock_guard lock(mutex_);
  return log_bytes_;
}

stats::Summary SiteRuntime::fetch_latency() const {
  std::lock_guard lock(mutex_);
  return fetch_latency_;
}

stats::Summary SiteRuntime::apply_delay() const {
  std::lock_guard lock(mutex_);
  return apply_delay_;
}

std::uint64_t SiteRuntime::total_applies() const {
  std::lock_guard lock(mutex_);
  return total_applies_;
}

void SiteRuntime::export_metrics(obs::MetricsRegistry& registry) const {
  std::lock_guard lock(mutex_);
  for (const MessageKind kind : kAllMessageKinds) {
    const stats::SizeBreakdown& b = stats_.of(kind);
    const std::string prefix = std::string("msg.") + causim::to_string(kind);
    registry.counter(prefix + ".count").add(b.count);
    registry.counter(prefix + ".overhead_bytes").add(b.overhead_bytes());
    registry.counter(prefix + ".meta_bytes").add(b.meta_bytes);
  }
  registry.counter("apply.total").add(total_applies_);
  registry.counter("apply.buffered").add(buffered_updates_);
  registry.counter("log.merge.count").add(log_merges_);
  registry.counter("log.prune.count").add(log_prunes_);
  registry.gauge("site.activation_queue.high_water")
      .set(static_cast<double>(pending_hwm_));
  registry.gauge("site.held_fetch.high_water")
      .set(static_cast<double>(held_fetch_hwm_));
  registry.summary("log.entries") += log_entries_;
  registry.summary("log.bytes") += log_bytes_;
  registry.summary("dest_set.size") += dest_set_size_;
  registry.summary("apply.delay_us") += apply_delay_;
  registry.histogram("fetch.latency_us", 0.0, 1e6, 200) += fetch_latency_hist_;
}

}  // namespace causim::dsm
