// TraceSink — where trace events go.
//
// Instrumented code holds a `TraceSink*` that is null by default, so the
// disabled path is a single pointer test and tracing compiles to zero work
// when off (the micro_ops acceptance bound). `NullSink` exists for call
// sites that want a non-null sink object; `RingBufferSink` is the
// recorder: a preallocated buffer whose writers claim slots with one
// atomic fetch_add — no locks on the emit path, so the pool workers under
// ThreadTransport never serialize on the trace.
//
// The buffer intentionally drops (and counts) events past its capacity
// instead of wrapping: overwrite-oldest would let two writers race on the
// same slot, and a truncated-but-exact prefix is more useful than a torn
// ring when diagnosing a run.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "obs/trace_event.hpp"

namespace causim::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
};

/// Swallows everything (for call sites that require a sink object).
class NullSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override {}
};

class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 1u << 20);

  void emit(const TraceEvent& event) override;

  /// Events recorded so far, in emit order. Only call when no emitter is
  /// concurrently active (DES: always; threads: after quiesce()/stop()).
  std::vector<TraceEvent> events() const;

  std::size_t size() const;
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Forgets everything recorded (same single-emitter caveat as events()).
  void clear();

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace causim::obs
