// Store — the key-value front-end over an assembled DSM node stack.
//
// get/put route a session's operations to its home site's runtime through
// the KeyMap. A put is the runtime's write (multicast to the key's replica
// set, completes inline); a get is the runtime's read — inline when the
// backing variable is locally replicated, a blocking RemoteFetch
// otherwise. Every completed get is checked against the session's causal
// cut; with enforcement on, an inadmissible (stale) result is retried by
// re-issuing the read from inside the completion callback. Each retry is
// a fresh FM/RM round trip, so the wire RTT is the natural backoff, and
// the retried fetch eventually observes the required write: the write is
// destined to every replica of its variable, the channels are reliable,
// and same-writer writes apply in order. Retries terminate.
//
// The store never blocks a thread itself — completion is a callback, so
// the same code path serves the discrete-event simulator (callbacks fire
// from simulator events) and the thread substrate (callbacks fire on the
// pool worker that delivered the RM).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/value.hpp"
#include "engine/node_stack.hpp"
#include "kv/key_map.hpp"
#include "kv/session.hpp"

namespace causim::kv {

struct StoreConfig {
  KeyMap map{100};
  /// Enforce the session guarantees: retry inadmissible reads until the
  /// cut is satisfied (or the retry budget runs out). Off = measurement
  /// mode — complete every read first try and only count staleness.
  bool enforce = true;
  /// Retry budget per get before the store gives up and counts a
  /// violation instead of wedging the site (a drowned replica under an
  /// adversarial fault plan could otherwise stall the run forever).
  std::uint32_t max_retries = 64;
};

struct GetResult {
  Value value;
  WriteId write;
  /// Fetch round trips beyond the first.
  std::uint32_t retries = 0;
  /// False only when the result stayed inadmissible (enforcement off, or
  /// the retry budget ran out).
  bool fresh = true;
};

class Store {
 public:
  using PutCallback = std::function<void(WriteId)>;
  using GetCallback = std::function<void(const GetResult&)>;

  /// The stack must outlive the store.
  Store(engine::NodeStack& stack, StoreConfig config);

  const StoreConfig& config() const { return config_; }

  /// Opens a new session homed at `home`. The reference stays valid for
  /// the store's lifetime.
  Session& open_session(SiteId home);

  std::size_t session_count() const;

  /// Writes `key` through the session's home site. Completes inline —
  /// `done` (optional) runs before put returns, matching the runtime's
  /// write semantics.
  void put(Session& session, KvKey key, std::uint32_t payload_bytes, bool record,
           const PutCallback& done = nullptr);

  /// Reads `key` through the session's home site; `done` fires exactly
  /// once with the admissible (or final, see GetResult::fresh) result.
  /// The caller must respect the site's blocking-op contract: no other
  /// operation on the same site until `done` fires.
  void get(Session& session, KvKey key, bool record, GetCallback done);

  /// Sums every session's counters.
  SessionStats aggregate_stats() const;

 private:
  void issue_get(Session& session, VarId var, bool record, std::uint32_t attempt,
                 GetCallback done);

  engine::NodeStack& stack_;
  StoreConfig config_;
  mutable std::mutex mutex_;  // guards sessions_ growth
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace causim::kv
