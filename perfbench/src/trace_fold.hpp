// The benchmark's own trace sink and the folds that turn its events into
// per-layer metrics.
//
// Under the thread substrates the library leaves ts = 0 on site-local
// events (SiteRuntime has no clock there), so the sink ignores the
// library's timestamps and stamps every event with the steady clock at
// emit time. Each emitting thread appends to a buffer of its own; the
// only lock is taken once per thread, when that buffer is registered.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace perfbench {

struct StampedEvent {
  causim::obs::TraceEvent event;
  std::int64_t ns = 0;  // steady-clock stamp taken by the sink
};

class StampSink final : public causim::obs::TraceSink {
 public:
  StampSink();
  StampSink(const StampSink&) = delete;
  StampSink& operator=(const StampSink&) = delete;

  void emit(const causim::obs::TraceEvent& event) override;

  /// Every buffered event, concatenated thread by thread. Call only after
  /// the run that emitted them has returned (no emitter active).
  std::vector<StampedEvent> collect() const;

 private:
  struct Buffer {
    std::vector<StampedEvent> events;
  };
  Buffer& local();

  /// Distinguishes sinks so a thread's cached buffer pointer from an
  /// earlier (destroyed) sink is never reused.
  const std::uint64_t id_;
  std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Per-layer quantities folded from one traced run's events.
struct TraceFold {
  Samples visibility_us;  // SM kSend at the origin -> kActivated at a destination
  Samples dep_wait_us;    // kBuffered -> kActivated of the same SM
  Samples transit_us;     // kWireDelay -> kDeliver on (sender, receiver, channel seq)
  std::uint64_t activations = 0;
  std::uint64_t buffered_activations = 0;
  std::uint64_t merges = 0;
  std::uint64_t prunes = 0;

  void fold(const std::vector<StampedEvent>& events);
};

/// Writes the events as fixed-size binary records (the StampedEvent
/// layout) behind a one-line text header. Returns false on I/O failure.
bool write_events(const std::string& path, const std::vector<StampedEvent>& events);

}  // namespace perfbench
