// SiteRuntime — one site of the distributed shared memory (§IV-A).
//
// Mirrors the paper's process model: an *application subsystem* (the
// write/read entry points, driven by a schedule) and a *message receipt
// subsystem* (the PacketHandler half, which applies multicast updates when
// the activation predicate allows and answers remote fetches). The runtime
// owns the local variable store and the message envelopes; the pluggable
// Protocol owns all causal-ordering meta-data.
//
// Thread-safety: all entry points take the site mutex, so the same runtime
// works single-threaded under the discrete-event simulator and under
// ThreadTransport, where the site's own worker runs both subsystems but
// other threads can still reach it (a gateway fanning a mailbox frame out
// to its cell-mates, timer-driven layers). Completion callbacks are
// invoked with the mutex released.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "causal/protocol.hpp"
#include "checker/history.hpp"
#include "common/message_kind.hpp"
#include "dsm/envelope.hpp"
#include "dsm/placement.hpp"
#include "net/transport.hpp"
#include "obs/trace_event.hpp"
#include "serial/buffer_pool.hpp"
#include "stats/histogram.hpp"
#include "stats/message_stats.hpp"

namespace causim::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace causim::obs

namespace causim::dsm {

class SiteRuntime final : public net::PacketHandler, private causal::ProtocolObserver {
 public:
  /// Called when a read completes with the value and the id of the write
  /// that produced it (null id for ⊥).
  using ReadCallback = std::function<void(Value, WriteId)>;

  /// `recorder` may be null (no history tracing); `now_fn` supplies the
  /// current time for fetch-latency measurement (may be null).
  /// `causal_fetch` enables the causally-fresh RemoteFetch extension: FMs
  /// piggyback a guard and the responder delays the RM until fresh.
  SiteRuntime(SiteId self, const Placement& placement, net::Transport& transport,
              std::unique_ptr<causal::Protocol> protocol,
              checker::HistoryRecorder* recorder, serial::ClockWidth clock_width,
              std::function<SimTime()> now_fn = {}, bool causal_fetch = false);

  SiteId self() const { return self_; }
  causal::Protocol& protocol() { return *protocol_; }
  const causal::Protocol& protocol() const { return *protocol_; }

  // ---- application subsystem ----

  /// Executes w_i(x_h)v: multicasts an SM to every replica of `var` and
  /// applies locally when this site replicates it. `payload_bytes` models
  /// the raw-data size; `record` gates statistics (warm-up exclusion).
  WriteId write(VarId var, std::uint32_t payload_bytes, bool record = true);

  /// Executes r_i(x_h): a locally replicated variable completes inline
  /// (callback invoked before returning, result true); otherwise an FM is
  /// sent to the predesignated replica and `done` fires when the RM
  /// arrives (result false). At most one read may be outstanding — the
  /// application subsystem is sequential and RemoteFetch blocks (§II-B).
  bool read(VarId var, ReadCallback done, bool record = true);

  bool fetch_pending() const;

  // ---- message receipt subsystem ----

  void on_packet(net::Packet packet) override;

  /// Received-but-not-applied updates (activation predicate still false).
  std::size_t pending_updates() const;

  /// Fetch requests held back by the causal-fetch guard (extension mode).
  std::size_t pending_remote_fetches() const;

  /// Current value of a locally replicated variable (⊥ if never written).
  std::pair<Value, WriteId> local_value(VarId var) const;

  // ---- instrumentation ----

  /// Optional per-message probe, invoked (under the site lock) for every
  /// *recorded* message this site sends: kind, header+meta bytes, send
  /// time. Used by benches that need time-resolved series (e.g. the
  /// warm-up transient) rather than aggregate counters.
  using MessageProbe = std::function<void(MessageKind, std::size_t, SimTime)>;
  void set_message_probe(MessageProbe probe);

  stats::MessageStats message_stats() const;
  /// Log entry count / serialized local meta-data bytes, sampled after
  /// every recorded operation.
  stats::Summary log_entries() const;
  stats::Summary log_bytes() const;
  /// Remote-fetch round-trip latency (only when a now_fn was supplied).
  stats::Summary fetch_latency() const;
  /// Activation delay of the applies that had to wait: time an SM spent in
  /// the pending queue between receipt and apply. Applies whose predicate
  /// held on arrival are not recorded here (see total_applies()). This is
  /// the cost of (possibly false) causal dependencies — ext_false_causality.
  stats::Summary apply_delay() const;
  std::uint64_t total_applies() const;

  /// The LogSampler hook: emits one kLogSample trace event carrying the
  /// protocol's current log entry count (a) and serialized local meta-data
  /// bytes (b). No-op without an attached sink, so a disabled sampler
  /// costs nothing. Cluster drives this on a DES-time period
  /// (ClusterConfig::log_sample_interval); thread-transport drivers may
  /// call it from their own timer.
  void trace_log_occupancy();

  /// One tick of the live time-series sampler (obs::live, see
  /// EngineConfig::live): under the site lock, snapshots the pending
  /// (buffered) update count and the protocol log's current footprint, and
  /// emits one kTimeSample trace event (a = pending updates, b = the
  /// sampler ordinal). The trace emission is a no-op without a sink.
  struct LiveSample {
    std::size_t pending_updates = 0;
    std::uint64_t log_entries = 0;
    std::uint64_t log_bytes = 0;
  };
  LiveSample live_sample(std::uint64_t ordinal);

  /// Attaches the shared frame pool (see serial::BufferPool): outgoing
  /// envelopes and protocol meta-data blocks are encoded into recycled
  /// buffers, and every frame this site consumes is released back. Attach
  /// before driving traffic (like the trace sink); null disables pooling.
  /// The pool must outlive the runtime.
  void set_buffer_pool(serial::BufferPool* pool);

  /// Attaches a trace sink receiving this site's lifecycle events — op
  /// issue/complete, sends, buffering, activation, fetch holds, log
  /// merge/prune (nullptr detaches). Attach before driving traffic; the
  /// sink must be thread-safe under ThreadTransport (RingBufferSink is).
  void set_trace_sink(obs::TraceSink* sink);

  /// Folds this site's counters and distributions into `registry` (metric
  /// names are catalogued in docs/OBSERVABILITY.md). Call after quiescence;
  /// per-site registries merge with MetricsRegistry::merge.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct PendingFetch {
    VarId var = kInvalidVar;
    std::uint64_t seq = 0;
    ReadCallback done;
    bool record = true;
    SimTime started = 0;
  };

  void handle_sm(Envelope env);
  void handle_fm(const Envelope& env, SiteId from);
  void handle_rm(Envelope env);
  void serve_fm_locked(const Envelope& env, SiteId from);
  void drain_held_fetches_locked();
  /// If a held remote return became absorbable, absorbs it and returns the
  /// read-completion action to run after the site mutex is released
  /// (invoking it under the lock would deadlock: the continuation issues
  /// the application's next operation).
  std::function<void()> try_complete_fetch_locked();

  /// Applies every pending update whose activation predicate holds,
  /// repeating until a fixpoint (applies can enable other applies).
  void drain_pending_locked();
  /// After an apply changed protocol state: re-queries the blocking
  /// dependency of every still-buffered update and emits a kDepSatisfied
  /// segment for each one whose blocker moved on. Trace-only (no-op
  /// without a sink); never called when tracing is off, so provenance
  /// keeps the "tracing is free when disabled" bound.
  void trace_dep_progress_locked();
  void send_envelope(const Envelope& env, SiteId to, bool record);
  void sample_meta_locked();
  /// Meta-data writer backed by a pooled buffer when a pool is attached.
  serial::ByteWriter meta_writer_locked() const;
  void recycle_locked(serial::Bytes&& bytes);

  // causal::ProtocolObserver — the protocol only runs inside entry points
  // that already hold the site mutex, so these fire with mutex_ held.
  void on_log_merge(std::size_t before, std::size_t incoming,
                    std::size_t after) override;
  void on_log_prune(std::size_t before, std::size_t after) override;

  /// Stamps site and emits if a sink is attached (type/peer/args and, for
  /// spans, dur are the caller's job; ts defaults to now).
  void trace_locked(obs::TraceEvent e);
  SimTime now_locked() const { return now_fn_ ? now_fn_() : 0; }

  const SiteId self_;
  const Placement& placement_;
  net::Transport& transport_;
  std::unique_ptr<causal::Protocol> protocol_;
  checker::HistoryRecorder* recorder_;
  const serial::ClockWidth clock_width_;
  std::function<SimTime()> now_fn_;
  const bool causal_fetch_;

  mutable std::mutex mutex_;

  struct QueuedUpdate {
    std::unique_ptr<causal::PendingUpdate> update;
    SimTime received = 0;
    bool was_buffered = false;  // activation predicate was false on arrival
    /// Provenance (filled only while a trace sink is attached): the
    /// dependency currently blocking this update and when it became the
    /// blocker. Each blocker change emits one kDepSatisfied segment, so
    /// the segments tile [received, apply) exactly.
    causal::BlockingDep blocker;
    SimTime blocker_since = 0;
  };

  /// One closed blocker segment of a buffered update (see kDepSatisfied).
  void trace_dep_satisfied_locked(const QueuedUpdate& queued,
                                  const causal::BlockingDep& next);

  struct HeldFetch {
    Envelope request;
    SiteId from = kInvalidSite;
    std::unique_ptr<causal::FetchGuard> guard;
  };

  /// A received RM whose meta-data names writes destined here that are not
  /// yet applied; the read completes once they are (Protocol::return_ready).
  struct HeldReturn {
    Envelope reply;
    std::unique_ptr<causal::PendingReturn> decoded;
  };

  std::unordered_map<VarId, std::pair<Value, WriteId>> store_;
  std::deque<QueuedUpdate> pending_;
  std::deque<HeldFetch> held_fetches_;
  std::optional<PendingFetch> fetch_;
  std::optional<HeldReturn> held_return_;
  std::uint64_t next_fetch_seq_ = 0;
  std::uint64_t next_value_seq_ = 0;

  MessageProbe message_probe_;
  stats::MessageStats stats_;
  stats::Summary log_entries_;
  stats::Summary log_bytes_;
  stats::Summary fetch_latency_;
  stats::Summary apply_delay_;
  std::uint64_t total_applies_ = 0;

  // Observability (guarded by mutex_ like the rest of the instruments).
  obs::TraceSink* trace_ = nullptr;
  // Frame pool (set before traffic starts, internally synchronized).
  serial::BufferPool* pool_ = nullptr;
  stats::Histogram fetch_latency_hist_{0.0, 1e6, 200};  // µs, 5 ms buckets
  stats::Summary dest_set_size_;
  std::uint64_t buffered_updates_ = 0;
  std::uint64_t log_merges_ = 0;
  std::uint64_t log_prunes_ = 0;
  std::size_t pending_hwm_ = 0;
  std::size_t held_fetch_hwm_ = 0;
};

}  // namespace causim::dsm
