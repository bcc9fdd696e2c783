#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>

#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "kv/key_map.hpp"
#include "kv/store.hpp"
#include "workload/schedule.hpp"

namespace perfbench {

namespace {

using causim::SiteId;
using causim::WriteId;
using causim::workload::Op;

/// Placement and the wire RNG are the deployment, not the input: they
/// stay fixed, and --seed draws only the client workload.
constexpr std::uint64_t kDeploymentSeed = 1;

const std::vector<WorkloadSpec>& table() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec sat;
    sat.name = "ot_saturate";
    sat.substrate = Substrate::kPooled;
    sat.protocol = causim::causal::ProtocolKind::kOptTrack;
    sat.sites = 8;
    sat.replication = 3;
    sat.workers = 4;
    sat.write_rate = 0.5;
    sat.payload_lo = 64;
    sat.payload_hi = 512;
    sat.keys = 1'000'000;
    sat.key_zipf = 0.99;
    sat.sessions_per_site = 4;
    sat.ops_per_site = 8000;
    sat.check_ops_per_site = 600;
    v.push_back(sat);

    WorkloadSpec persite;
    persite.name = "ft_persite";
    persite.substrate = Substrate::kPerSite;
    persite.protocol = causim::causal::ProtocolKind::kFullTrack;
    persite.sites = 4;
    persite.replication = 2;
    persite.write_rate = 0.1;
    persite.payload_lo = 64;
    persite.payload_hi = 512;
    persite.keys = 1'000'000;
    persite.key_zipf = 0.99;
    persite.sessions_per_site = 4;
    persite.ops_per_site = 40000;
    persite.check_ops_per_site = 1000;
    v.push_back(persite);

    WorkloadSpec des;
    des.name = "des_paper_n40";
    des.substrate = Substrate::kDes;
    des.protocol = causim::causal::ProtocolKind::kOptTrack;
    des.sites = 40;
    des.replication = 12;
    des.write_rate = 0.5;
    des.ops_per_site = 80;
    des.check_ops_per_site = 60;
    v.push_back(des);
    return v;
  }();
  return specs;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return causim::kv::KeyMap::mix(h ^ x) + 0x9E3779B97F4A7C15ULL;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One scheduled op. The hook thread writes the fields above the marker
/// before and right after its call into the library; the completion
/// (possibly on a receipt thread) writes the ones below. Disjoint fields,
/// and the executor orders a site's next hook call after the completion.
struct OpRecord {
  std::int64_t start_ns = 0;  // dispatch: hook entry
  std::int64_t ret_ns = 0;    // synchronous call returned
  bool is_put = false;
  bool remote = false;
  bool record = false;
  // --- completion side ---
  std::int64_t done_ns = 0;
  std::uint32_t retries = 0;
  bool fresh = true;
  bool value_ok = true;
  std::atomic<std::uint32_t> completions{0};
};

/// Per-round bookkeeping shared by the hook and the completions.
class RoundState {
 public:
  explicit RoundState(const causim::workload::Schedule& schedule)
      : round_(next_round.fetch_add(1)) {
    std::size_t total = 0;
    for (const auto& ops : schedule.per_site) {
      records_.push_back(std::make_unique<OpRecord[]>(ops.size()));
      total += ops.size();
    }
    cursor_.assign(schedule.per_site.size(), 0);
    remaining_.store(total);
  }

  /// Claims the index of the site's next op. The executor serializes a
  /// site's hook calls, so the per-site cursor needs no lock.
  std::size_t claim(SiteId s) { return cursor_[s]++; }
  OpRecord& at(SiteId s, std::size_t i) const { return records_[s][i]; }

  void begin_window() { cpu_start_us_ = process_cpu_us(); }

  /// Marks one op complete. The last completion snapshots process and
  /// per-thread CPU while every substrate thread is still alive.
  void complete(OpRecord& r) {
    r.done_ns = now_ns();
    r.completions.fetch_add(1, std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) snapshot();
  }

  /// Registers the calling thread as one that ran the hook (kHook) or
  /// fired a remote-get completion (kReceipt), once per round.
  enum Role : int { kHook = 0, kReceipt = 1 };
  void track(Role role) {
    thread_local std::uint64_t seen[2] = {0, 0};
    if (seen[role] == round_ + 1) return;
    seen[role] = round_ + 1;
    Tracked t{current_tid(), 0, 0};
    t.base_us = thread_cpu_us(t.tid);
    std::lock_guard lock(mutex_);
    threads_[role].push_back(t);
  }

  std::int64_t window_cpu_us() const { return cpu_end_us_ - cpu_start_us_; }
  std::int64_t snapshot_done_ns() const { return snapshot_done_ns_; }

  double cpu_share(Role role) const {
    std::lock_guard lock(mutex_);
    std::int64_t sum = 0;
    for (const Tracked& t : threads_[role]) sum += t.used_us;
    const std::int64_t window = window_cpu_us();
    return window > 0 ? static_cast<double>(sum) / static_cast<double>(window) : 0.0;
  }
  std::size_t thread_count(Role role) const {
    std::lock_guard lock(mutex_);
    return threads_[role].size();
  }

 private:
  struct Tracked {
    pid_t tid;
    std::int64_t base_us;
    std::int64_t used_us;
  };

  void snapshot() {
    {
      std::lock_guard lock(mutex_);
      for (auto& list : threads_) {
        for (Tracked& t : list) {
          const std::int64_t now = thread_cpu_us(t.tid);
          t.used_us = now >= 0 && t.base_us >= 0 ? now - t.base_us : 0;
        }
      }
    }
    cpu_end_us_ = process_cpu_us();
    snapshot_done_ns_ = now_ns();
  }

  static inline std::atomic<std::uint64_t> next_round{0};

  const std::uint64_t round_;
  std::vector<std::unique_ptr<OpRecord[]>> records_;
  std::vector<std::size_t> cursor_;
  std::atomic<std::size_t> remaining_{0};
  std::int64_t cpu_start_us_ = 0;
  std::int64_t cpu_end_us_ = 0;
  std::int64_t snapshot_done_ns_ = 0;
  mutable std::mutex mutex_;  // guards threads_
  std::vector<Tracked> threads_[2];
};

/// A get's result is consistent when the value was produced by the write
/// it names (Value ids carry the writer site in their high half).
bool value_matches(const causim::Value& value, const WriteId& w) {
  if (causim::is_null(w)) return causim::is_bottom(value);
  return (value.id >> 32) == static_cast<std::uint64_t>(w.writer) + 1;
}

/// Folds the per-op records into samples, expected counts and per-op
/// failures.
void fold_records(const causim::workload::Schedule& schedule, const RoundState& state,
                  const causim::dsm::Placement& placement, RoundResult& out,
                  ExpectedCounts& expected) {
  std::int64_t first_done = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_done = std::numeric_limits<std::int64_t>::min();
  std::uint64_t not_once = 0;
  std::uint64_t bad = 0;
  for (SiteId s = 0; s < schedule.sites(); ++s) {
    const auto& ops = schedule.per_site[s];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpRecord& r = state.at(s, i);
      const Op& op = ops[i];
      if (r.completions.load() != 1) {
        ++not_once;
        continue;
      }
      if (!r.fresh || !r.value_ok) ++bad;
      if (!r.is_put) {
        ++out.gets;
        if (r.remote) ++out.remote_gets;
        out.retries += r.retries;
      }
      if (!r.record) continue;
      if (i > 0) out.requeue_us.add(us(r.start_ns - state.at(s, i - 1).done_ns));
      first_done = std::min(first_done, r.done_ns);
      last_done = std::max(last_done, r.done_ns);
      const double latency = us(r.done_ns - r.start_ns);
      if (r.is_put) {
        const auto& dests = placement.replicas(op.var);
        expected.sm += dests.count() - (dests.contains(s) ? 1 : 0);
        out.put_us.add(latency);
        out.put_call_us.add(us(r.ret_ns - r.start_ns));
      } else {
        out.get_us.add(latency);
        out.get_call_us.add(us(r.ret_ns - r.start_ns));
        if (r.remote) {
          expected.fm += 1 + r.retries;
          expected.rm += 1 + r.retries;
          out.fetch_wait_us.add(us(std::max<std::int64_t>(0, r.done_ns - r.ret_ns)));
        }
      }
    }
  }
  if (not_once > 0) {
    out.failures.push_back(std::to_string(not_once) +
                           " ops did not complete exactly once");
  }
  if (bad > 0) {
    out.failures.push_back(std::to_string(bad) +
                           " gets were stale past the retry budget or returned a "
                           "value that does not match its write");
  }
  out.failed_ops += not_once + bad;
  if (last_done > first_done) {
    out.ops_per_s = static_cast<double>(out.recorded_ops) / (us(last_done - first_done) / 1e6);
  }
}

causim::engine::EngineConfig engine_config(const WorkloadSpec& spec, RoundMode mode,
                                           causim::obs::TraceSink* sink) {
  causim::engine::EngineConfig cfg;
  cfg.sites = spec.sites;
  cfg.variables = spec.variables;
  cfg.replication = spec.replication;
  cfg.protocol = spec.protocol;
  cfg.seed = kDeploymentSeed;
  cfg.record_history = mode == RoundMode::kHistory;
  cfg.trace_sink = sink;
  if (spec.substrate == Substrate::kPooled) {
    cfg.executor = causim::engine::ExecutorKind::kPooled;
    cfg.workers = spec.workers;
  }
  return cfg;
}

/// The stack folds every substrate shares, plus the round-level checks.
template <typename Cluster>
void fold_stack(Cluster& cluster, RoundMode mode, RoundResult& out,
                const ExpectedCounts& expected) {
  causim::engine::NodeStack& stack = cluster.stack();
  out.msgs = stack.aggregate_message_stats();
  out.log_entries_mean = stack.aggregate_log_entries().mean();
  out.log_bytes_mean = stack.aggregate_log_bytes().mean();
  out.packets = stack.wire().packets_sent();
  for (std::string& f : check_counts(expected, out.msgs)) out.fail_round(std::move(f));
  if (mode == RoundMode::kHistory) {
    const causim::checker::CheckResult check = cluster.check();
    if (!check.ok()) {
      std::ostringstream msg;
      msg << "causal checker: " << check.violations.size() << " violations, first: "
          << check.violations.front();
      out.fail_round(msg.str());
    }
  }
}

void finish_round(RoundState& state, std::int64_t gen0, std::int64_t gen1,
                  std::int64_t first_dispatch, std::int64_t exec_returned, RoundResult& out) {
  out.gen_s = static_cast<double>(gen1 - gen0) / 1e9;
  out.setup_s = static_cast<double>(first_dispatch - gen0) / 1e9;
  out.drain_s = static_cast<double>(exec_returned - state.snapshot_done_ns()) / 1e9;
  out.cpu_us_per_op =
      static_cast<double>(state.window_cpu_us()) / static_cast<double>(out.ops);
  out.hook_cpu_share = state.cpu_share(RoundState::kHook);
  out.receipt_cpu_share = state.cpu_share(RoundState::kReceipt);
  out.dispatch_threads = state.thread_count(RoundState::kHook);
}

std::int64_t first_dispatch_ns(const RoundState& state, const causim::workload::Schedule& s) {
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  for (SiteId site = 0; site < s.sites(); ++site) {
    if (!s.per_site[site].empty()) first = std::min(first, state.at(site, 0).start_ns);
  }
  return first;
}

/// The part of a round every substrate shares: the dispatch hook's
/// bookkeeping around `issue`, the timed execute(), and the folds and
/// checks after it. `issue(s, index, op, record, done)` makes the
/// substrate's call for the op, stamps record.ret_ns when the call
/// returns, and ends with state.complete(record) and done().
template <typename Cluster, typename Issue>
void play(Cluster& cluster, const causim::workload::Schedule& schedule, RoundMode mode,
          std::int64_t gen0, std::int64_t gen1, Issue issue, RoundResult& out) {
  const causim::dsm::Placement& placement = cluster.placement();
  RoundState state(schedule);
  cluster.driver().set_dispatch_hook([&](SiteId s, const Op& op,
                                         std::function<void()> done) {
    const std::int64_t start = now_ns();
    state.track(RoundState::kHook);
    const std::size_t index = state.claim(s);
    OpRecord& r = state.at(s, index);
    r.start_ns = start;
    r.is_put = op.kind == Op::Kind::kWrite;
    r.record = op.record;
    r.remote = !placement.replicated_at(op.var, s);
    issue(s, index, op, r, state, std::move(done));
  });

  state.begin_window();
  cluster.execute(schedule);
  const std::int64_t exec_returned = now_ns();

  ExpectedCounts expected;
  fold_records(schedule, state, placement, out, expected);
  finish_round(state, gen0, gen1, first_dispatch_ns(state, schedule), exec_returned, out);
  fold_stack(cluster, mode, out, expected);
}

/// A get's completion, on whichever thread delivered it.
void complete_get(OpRecord& r, RoundState& state, const causim::Value& value,
                  const WriteId& w, const std::function<void()>& done) {
  r.value_ok = value_matches(value, w);
  if (r.remote) state.track(RoundState::kReceipt);
  state.complete(r);
  done();
}

void play_kv(const WorkloadSpec& spec, const causim::workload::OpenLoopWorkload& inputs,
             RoundMode mode, causim::obs::TraceSink* sink, std::int64_t gen0,
             std::int64_t gen1, RoundResult& out) {
  causim::dsm::ThreadCluster::Options topt;
  topt.time_scale = 0.0;       // closed loop: no schedule gaps
  topt.max_wire_delay_us = 0;  // no injected wire sleeps
  causim::dsm::ThreadCluster cluster(engine_config(spec, mode, sink), topt);
  causim::kv::StoreConfig store_cfg;
  store_cfg.map = causim::kv::KeyMap(spec.variables);
  causim::kv::Store store(cluster.stack(), store_cfg);
  std::vector<std::vector<causim::kv::Session*>> sessions(spec.sites);
  for (SiteId s = 0; s < spec.sites; ++s) {
    for (std::uint32_t c = 0; c < spec.sessions_per_site; ++c) {
      sessions[s].push_back(&store.open_session(s));
    }
  }

  const auto issue = [&](SiteId s, std::size_t index, const Op& op, OpRecord& r,
                         RoundState& state, std::function<void()> done) {
    const causim::workload::KeyOp& ko = inputs.per_site[s][index];
    causim::kv::Session& session = *sessions[s][ko.session];
    if (r.is_put) {
      WriteId w;
      store.put(session, ko.key, op.payload_bytes, op.record, [&w](WriteId id) { w = id; });
      r.ret_ns = now_ns();
      r.value_ok = w.writer == s;
      state.complete(r);
      done();
      return;
    }
    store.get(session, ko.key, op.record,
              [&r, &state, done = std::move(done)](const causim::kv::GetResult& g) {
                r.retries = g.retries;
                r.fresh = g.fresh;
                complete_get(r, state, g.value, g.write, done);
              });
    r.ret_ns = now_ns();
  };
  play(cluster, inputs.schedule, mode, gen0, gen1, issue, out);

  // The session layer counts on its own; it must agree with what the
  // completions saw.
  const causim::kv::SessionStats ss = store.aggregate_stats();
  out.stale = ss.stale_observations;
  if (ss.violations > 0) {
    out.fail_round(std::to_string(ss.violations) + " session-guarantee violations");
  }
  if (ss.gets != out.gets || ss.retries != out.retries) {
    out.fail_round("session counters (" + std::to_string(ss.gets) + " gets, " +
                   std::to_string(ss.retries) + " retries) disagree with the " +
                   "completions (" + std::to_string(out.gets) + " gets, " +
                   std::to_string(out.retries) + " retries)");
  }
}

void play_des(const WorkloadSpec& spec, const causim::workload::Schedule& schedule,
              RoundMode mode, causim::obs::TraceSink* sink, std::int64_t gen0,
              std::int64_t gen1, RoundResult& out) {
  causim::dsm::Cluster cluster(engine_config(spec, mode, sink));
  const auto issue = [&](SiteId s, std::size_t, const Op& op, OpRecord& r,
                         RoundState& state, std::function<void()> done) {
    causim::dsm::SiteRuntime& site = cluster.site(s);
    if (r.is_put) {
      const WriteId w = site.write(op.var, op.payload_bytes, op.record);
      r.ret_ns = now_ns();
      r.value_ok = w.writer == s;
      state.complete(r);
      done();
      return;
    }
    site.read(
        op.var,
        [&r, &state, done = std::move(done)](causim::Value value, WriteId w) {
          complete_get(r, state, value, w, done);
        },
        op.record);
    r.ret_ns = now_ns();
  };
  play(cluster, schedule, mode, gen0, gen1, issue, out);
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : table()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : table()) names.push_back(spec.name);
  return names;
}

causim::workload::OpenLoopWorkload generate_inputs(const WorkloadSpec& spec,
                                                   std::uint64_t seed,
                                                   std::size_t ops_per_site) {
  if (spec.substrate == Substrate::kDes) {
    // The paper's closed schedule (§IV-C): uniform 5–2005 ms think time,
    // uniform variable choice, 15% warm-up.
    causim::workload::WorkloadParams p;
    p.variables = spec.variables;
    p.write_rate = spec.write_rate;
    p.ops_per_site = ops_per_site;
    p.payload_lo = spec.payload_lo;
    p.payload_hi = spec.payload_hi;
    p.seed = seed;
    causim::workload::OpenLoopWorkload wl;
    wl.schedule = causim::workload::generate_schedule(spec.sites, p);
    return wl;
  }
  causim::workload::OpenLoopParams p;
  p.keys = spec.keys;
  p.zipf_s = spec.key_zipf;
  p.write_rate = spec.write_rate;
  // Closed loops ignore arrival times; any positive rate will do.
  p.rate_ops_per_sec = 1000.0;
  p.ops_per_site = ops_per_site;
  p.sessions_per_site = spec.sessions_per_site;
  p.payload_lo = spec.payload_lo;
  p.payload_hi = spec.payload_hi;
  p.seed = seed;
  const causim::kv::KeyMap map(spec.variables);
  return causim::workload::generate_open_loop(
      spec.sites, p, [&map](std::uint64_t key) { return map.var_of(key); });
}

std::uint64_t fingerprint(const causim::workload::OpenLoopWorkload& inputs) {
  std::uint64_t h = 0x6A09E667F3BCC909ULL;
  for (const auto& ops : inputs.schedule.per_site) {
    h = mix(h, ops.size());
    for (const Op& op : ops) {
      h = mix(h, static_cast<std::uint64_t>(op.kind) | (std::uint64_t{op.var} << 8));
      h = mix(h, static_cast<std::uint64_t>(op.at));
      h = mix(h, op.payload_bytes | (std::uint64_t{op.record} << 32));
    }
  }
  for (const auto& keys : inputs.per_site) {
    for (const auto& k : keys) h = mix(mix(h, k.key), k.session);
  }
  return h;
}

std::vector<std::string> check_counts(const ExpectedCounts& expected,
                                      const causim::stats::MessageStats& counted) {
  std::vector<std::string> failures;
  const auto check = [&](causim::MessageKind kind, std::uint64_t want) {
    const std::uint64_t got = counted.of(kind).count;
    if (got != want) {
      failures.push_back(std::string(causim::to_string(kind)) + " count " +
                         std::to_string(got) + " != expected " + std::to_string(want));
    }
  };
  check(causim::MessageKind::kSM, expected.sm);
  check(causim::MessageKind::kFM, expected.fm);
  check(causim::MessageKind::kRM, expected.rm);
  return failures;
}

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed, RoundMode mode) {
  const HostTicks before = host_ticks();
  RoundResult out;
  const std::size_t per_site =
      mode == RoundMode::kHistory ? spec.check_ops_per_site : spec.ops_per_site;
  const std::int64_t gen0 = now_ns();
  const causim::workload::OpenLoopWorkload inputs = generate_inputs(spec, seed, per_site);
  const std::int64_t gen1 = now_ns();
  out.ops = inputs.schedule.total_ops();
  out.recorded_ops = inputs.schedule.recorded_reads() + inputs.schedule.recorded_writes();
  out.input_fingerprint = fingerprint(inputs);

  std::unique_ptr<StampSink> sink;
  if (mode == RoundMode::kTraced) sink = std::make_unique<StampSink>();
  if (spec.substrate == Substrate::kDes) {
    play_des(spec, inputs.schedule, mode, sink.get(), gen0, gen1, out);
  } else {
    play_kv(spec, inputs, mode, sink.get(), gen0, gen1, out);
  }
  if (sink != nullptr) {
    out.events = sink->collect();
    out.trace.fold(out.events);
  }
  out.steal_share = steal_share(before, host_ticks());
  return out;
}

}  // namespace perfbench
