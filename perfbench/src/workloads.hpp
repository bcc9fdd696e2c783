// The benchmark's workloads and the round that runs one of them.
//
// A round is one complete execution: generate the inputs from the seed,
// assemble a fresh cluster, open the client sessions, play the schedule
// through ScheduleDriver's dispatch hook, and check the outputs. A run
// repeats rounds for its time budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "causal/factory.hpp"
#include "common/ids.hpp"
#include "measure.hpp"
#include "stats/message_stats.hpp"
#include "trace_fold.hpp"
#include "workload/open_loop.hpp"

namespace perfbench {

/// Every substrate runs a closed loop: a site issues its next op as soon as
/// the previous one completes.
enum class Substrate : std::uint8_t {
  /// KV front-end on dsm::ThreadCluster with the pooled executor.
  kPooled,
  /// KV front-end on dsm::ThreadCluster with the per-site executor.
  kPerSite,
  /// Raw DSM reads and writes on the discrete-event dsm::Cluster.
  kDes,
};

struct WorkloadSpec {
  std::string name;
  Substrate substrate = Substrate::kDes;
  causim::causal::ProtocolKind protocol = causim::causal::ProtocolKind::kOptTrack;
  causim::SiteId sites = 0;
  causim::SiteId replication = 0;
  causim::VarId variables = 100;
  unsigned workers = 0;  // pooled executor width (kPooled only)
  double write_rate = 0.5;
  std::uint32_t payload_lo = 0;
  std::uint32_t payload_hi = 0;
  // KV client workload (thread substrates only).
  std::uint64_t keys = 0;
  double key_zipf = 0.0;
  std::uint32_t sessions_per_site = 0;
  /// Ops per site in a measured round and in the history-checked round.
  std::size_t ops_per_site = 0;
  std::size_t check_ops_per_site = 0;
};

/// The fixed workload table; null for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

enum class RoundMode : std::uint8_t {
  kUntraced,
  /// Events go to a StampSink and are folded into RoundResult::trace.
  kTraced,
  /// The untimed correctness round: history recorded, causal checker run.
  kHistory,
};

struct RoundResult {
  std::size_t ops = 0;
  std::size_t recorded_ops = 0;
  /// Hash of the generated inputs (schedule and key routing).
  std::uint64_t input_fingerprint = 0;

  double gen_s = 0.0;
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double drain_s = 0.0;

  causim::stats::MessageStats msgs;
  double log_entries_mean = 0.0;
  double log_bytes_mean = 0.0;
  std::uint64_t packets = 0;

  std::uint64_t gets = 0;         // all gets, warm-up included
  std::uint64_t remote_gets = 0;  // gets whose variable is not replicated at home
  std::uint64_t retries = 0;      // fetch round trips beyond each get's first
  std::uint64_t stale = 0;        // stale observations (KV session layer)

  /// Share of the machine's CPU time the hypervisor took from this VM's
  /// vCPUs during the round (/proc/stat steal).
  double steal_share = 0.0;

  double hook_cpu_share = 0.0;
  double receipt_cpu_share = 0.0;
  std::size_t dispatch_threads = 0;

  // Recorded ops only (the library's own warm-up rule, Op::record).
  Samples get_us;        // dispatch -> completion
  Samples put_us;
  Samples get_call_us;   // synchronous part of the get call
  Samples put_call_us;   // the put (or DES write) call
  Samples fetch_wait_us; // remote gets: call return -> completion
  Samples requeue_us;    // a site's completion -> its next dispatch

  TraceFold trace;
  std::vector<StampedEvent> events;  // kTraced only

  /// Output-check failures (empty = every check passed) and the ops they
  /// account for. A check that cannot name its ops (a count mismatch, a
  /// checker violation, a determinism break) fails every op of the round.
  std::vector<std::string> failures;
  std::uint64_t failed_ops = 0;
  bool round_failed = false;

  void fail_round(std::string what) {
    failures.push_back(std::move(what));
    round_failed = true;
  }
};

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed, RoundMode mode);

/// The generated inputs of a workload, as the round generates them.
causim::workload::OpenLoopWorkload generate_inputs(const WorkloadSpec& spec,
                                                   std::uint64_t seed,
                                                   std::size_t ops_per_site);
std::uint64_t fingerprint(const causim::workload::OpenLoopWorkload& inputs);

/// Message counts the run must have produced, derived from the executed
/// ops, the placement and the observed get retries.
struct ExpectedCounts {
  std::uint64_t sm = 0;
  std::uint64_t fm = 0;
  std::uint64_t rm = 0;
};

/// Compares the counted messages against the expectation; one failure
/// message per mismatching kind.
std::vector<std::string> check_counts(const ExpectedCounts& expected,
                                      const causim::stats::MessageStats& counted);

}  // namespace perfbench
