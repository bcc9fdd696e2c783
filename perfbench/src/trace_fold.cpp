#include "trace_fold.hpp"

#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

using causim::obs::TraceEventType;

std::atomic<std::uint64_t> next_sink_id{1};

struct LocalCache {
  std::uint64_t sink = 0;
  void* buffer = nullptr;
};
thread_local LocalCache tls_cache;

double us_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

}  // namespace

StampSink::StampSink() : id_(next_sink_id.fetch_add(1)) {}

StampSink::Buffer& StampSink::local() {
  if (tls_cache.sink != id_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->events.reserve(1u << 16);
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::move(buffer));
    tls_cache.sink = id_;
    tls_cache.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(tls_cache.buffer);
}

void StampSink::emit(const causim::obs::TraceEvent& event) {
  const std::int64_t ns = now_ns();
  local().events.push_back(StampedEvent{event, ns});
}

std::vector<StampedEvent> StampSink::collect() const {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->events.size();
  std::vector<StampedEvent> out;
  out.reserve(total);
  for (const auto& b : buffers_) out.insert(out.end(), b->events.begin(), b->events.end());
  return out;
}

void TraceFold::fold(const std::vector<StampedEvent>& events) {
  // Keys: an SM instance at one destination is (destination, packed
  // WriteId); a packet is (sender, receiver, channel seq).
  const auto sm_key = [](causim::SiteId dest, std::uint64_t write) {
    return (static_cast<std::uint64_t>(dest) << 48) ^ write;
  };
  const auto packet_key = [](causim::SiteId from, causim::SiteId to, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(from) << 48) ^
           (static_cast<std::uint64_t>(to) << 32) ^ seq;
  };
  std::unordered_map<std::uint64_t, std::int64_t> sent;
  std::unordered_map<std::uint64_t, std::int64_t> buffered;
  std::unordered_map<std::uint64_t, std::int64_t> on_wire;
  sent.reserve(events.size() / 8);
  on_wire.reserve(events.size() / 4);

  for (const StampedEvent& s : events) {
    const auto& e = s.event;
    switch (e.type) {
      case TraceEventType::kSend:
        if (e.kind == causim::MessageKind::kSM) sent.emplace(sm_key(e.peer, e.c), s.ns);
        break;
      case TraceEventType::kBuffered:
        buffered.emplace(sm_key(e.site, e.c), s.ns);
        break;
      case TraceEventType::kWireDelay:
        on_wire.emplace(packet_key(e.site, e.peer, e.a), s.ns);
        break;
      case TraceEventType::kLogMerge:
        ++merges;
        break;
      case TraceEventType::kLogPrune:
        ++prunes;
        break;
      default:
        break;
    }
  }
  for (const StampedEvent& s : events) {
    const auto& e = s.event;
    if (e.type == TraceEventType::kActivated) {
      ++activations;
      const std::uint64_t key = sm_key(e.site, e.c);
      if (auto it = sent.find(key); it != sent.end()) {
        visibility_us.add(us_between(it->second, s.ns));
      }
      if (e.b == 1) {
        ++buffered_activations;
        if (auto it = buffered.find(key); it != buffered.end()) {
          dep_wait_us.add(us_between(it->second, s.ns));
        }
      }
    } else if (e.type == TraceEventType::kDeliver) {
      if (auto it = on_wire.find(packet_key(e.peer, e.site, e.a)); it != on_wire.end()) {
        transit_us.add(us_between(it->second, s.ns));
      }
    }
  }
}

bool write_events(const std::string& path, const std::vector<StampedEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "perfbench-events v1 record_bytes=%zu count=%zu\n", sizeof(StampedEvent),
               events.size());
  const std::size_t written =
      events.empty() ? 0 : std::fwrite(events.data(), sizeof(StampedEvent), events.size(), f);
  const bool ok = written == events.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
