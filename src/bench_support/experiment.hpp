// Experiment harness shared by the bench binaries: one simulated run per
// (protocol, n, p, w_rate, seed), averaged over seeds, reproducing the
// measurement methodology of §V (600·n events, first 15 % discarded,
// multiple runs averaged).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causal/protocol.hpp"
#include "dsm/cluster.hpp"
#include "engine/config.hpp"
#include "stats/histogram.hpp"
#include "stats/message_stats.hpp"
#include "workload/schedule.hpp"

namespace causim::bench_support {

/// Protocol options approximating the paper's JDK testbed (8-byte clocks).
inline causal::ProtocolOptions jdk_like_options() {
  causal::ProtocolOptions options;
  options.clock_width = serial::ClockWidth::k8Bytes;
  return options;
}

struct ExperimentParams {
  causal::ProtocolKind protocol = causal::ProtocolKind::kOptTrack;
  SiteId sites = 5;
  double write_rate = 0.5;
  /// Replicas per variable; 0 = full replication. The paper's partial runs
  /// use p = 0.3·n (rounded up, min 1).
  SiteId replication = 0;
  VarId variables = 100;
  std::size_t ops_per_site = 600;
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::uint32_t payload_lo = 0;
  std::uint32_t payload_hi = 0;
  double zipf_s = 0.0;
  /// Operation inter-arrival gap range (µs); the defaults are the paper's
  /// 5–2005 ms think time (workload::WorkloadParams). Geo benches shrink
  /// the gap to model a loaded datacenter — under the paper's think time a
  /// cross-DC coalescing window would never see two messages.
  SimTime gap_lo = 5 * kMillisecond;
  SimTime gap_hi = 2005 * kMillisecond;
  /// Benches default to 8-byte clock entries, approximating the JDK object
  /// footprint of the paper's testbed (DESIGN.md §1); the library default
  /// elsewhere is 4 bytes.
  causal::ProtocolOptions protocol_options = jdk_like_options();
  /// Run the causal checker on every seed (tests; too slow for big benches).
  bool check = false;
  /// Causally fresh RemoteFetch (the extension; see dsm::ClusterConfig).
  bool causal_fetch = false;
  /// Observability (src/obs, both owned by the caller): a non-null sink
  /// receives every trace event of every seed's run; a non-null registry
  /// accumulates per-site metrics across seeds after each run quiesces.
  obs::TraceSink* trace_sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// LogSampler period (see ClusterConfig::log_sample_interval); only
  /// effective when trace_sink is set. Observability::log_sample_interval
  /// supplies the conventional value.
  SimTime log_sample_interval = 0;
  /// Online telemetry (obs::live, owned by the caller; see
  /// EngineConfig::live). Must match sites/variables; run_experiment calls
  /// begin_run(seed) before each seed's run. Observability::run_cell wires
  /// one per cell when --json-out / --timeseries-out ask for it.
  obs::live::LiveTelemetry* live = nullptr;
  /// Channel faults + reliability sublayer (see dsm::ClusterConfig). The
  /// default empty plan builds no fault stack, keeping every paper-facing
  /// bench byte-identical to the pre-faults harness.
  faults::FaultPlan fault_plan;
  bool reliable_channel = false;
  net::ReliableConfig reliable_config;
  /// Executor lane. kPerSite runs the discrete-event dsm::Cluster (the
  /// paper-faithful default, byte-identical to the pre-executor harness);
  /// kPooled runs dsm::ThreadCluster with engine::PooledExecutor — the
  /// real-thread throughput lane (`--executor pooled`).
  engine::ExecutorKind executor = engine::ExecutorKind::kPerSite;
  /// Worker threads for the pooled lane (0 = hardware concurrency).
  unsigned workers = 0;
  /// Per-channel message coalescing at the transport edge (`--batch N`).
  net::BatchConfig batch;
  /// Two-level datacenter topology (`--topology cells=K:wan-rtt=US`); the
  /// empty default keeps the flat cluster and byte-identical runs.
  topo::Topology topology;
  /// Cross-DC gateway mailbox coalescing (`--gateway on|off`; needs a
  /// multi-cell topology when enabled).
  net::GatewayConfig gateway;
};

/// The paper's partial-replication factor: p = 0.3·n, at least 1.
SiteId partial_replication_factor(SiteId n);

struct ExperimentResult {
  /// Sums over all recorded messages of all seeds.
  stats::MessageStats stats;
  std::size_t runs = 0;
  std::size_t recorded_writes = 0;  // across all seeds
  std::size_t recorded_reads = 0;
  stats::Summary log_entries;  // per-op samples of protocol log size
  stats::Summary log_bytes;
  stats::Summary fetch_latency_us;  // remote-read round trips, all seeds
  stats::Summary apply_delay_us;    // SM buffering delay, all seeds
  bool check_ok = true;
  std::vector<std::string> violations;

  // -- fault-stack activity (all zero without a fault plan) --
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t reliable_frames = 0;  // wire frames incl. acks/retransmits
  std::uint64_t reliable_packets = 0;  // app-level packets through the layer
  std::uint64_t rtt_samples = 0;  // adaptive-RTO estimator inputs, all channels

  // -- coalescing activity (all zero without --batch) --
  std::uint64_t wire_frames = 0;     // frames the bottom transport carried
  std::uint64_t batch_frames = 0;    // coalesced frames the batcher shipped
  std::uint64_t batch_messages = 0;  // app messages inside those frames

  // -- topology / gateway activity (all zero without a multi-cell topology) --
  std::uint64_t lan_messages = 0;  // app messages with same-cell endpoints
  std::uint64_t wan_messages = 0;  // app messages crossing cells
  std::uint64_t lan_bytes = 0;
  std::uint64_t wan_bytes = 0;
  /// Frames the gateway layer put on cross-cell channels — mailbox frames
  /// with the gateway on, direct cross-cell sends with it off. The A/B
  /// denominator of bench/ext_geo.
  std::uint64_t wan_frames = 0;
  std::uint64_t gateway_frames = 0;          // mailbox frames shipped
  std::uint64_t gateway_frame_messages = 0;  // app messages inside them
  std::uint64_t gateway_enroute = 0;         // sender -> own-gateway relays

  // -- derived, per-run means --
  double mean_total_overhead_bytes() const;  // header+meta per run
  double mean_total_meta_bytes() const;      // meta only per run
  double mean_message_count() const;
  double avg_overhead(MessageKind kind) const;  // per message of that kind
};

ExperimentResult run_experiment(const ExperimentParams& params);

/// Common CLI handling for bench binaries: `--quick` shrinks seeds/ops for
/// smoke runs, `--csv` prints tables as CSV as well, `--trace-out FILE`,
/// `--metrics-out FILE` and `--report-out FILE` enable the observability
/// exports (see bench_support/observability.hpp; all accept
/// `--flag=value` too).
struct BenchOptions {
  bool quick = false;
  bool csv = false;
  std::string trace_out;    // Chrome/Perfetto trace-event JSON
  std::string metrics_out;  // metrics JSON, or CSV when the name ends in .csv
  std::string report_out;   // analysis report JSON (causim.analysis.v1)
  std::string json_out;     // machine-readable results (causim.bench.v1)
  std::string timeseries_out;  // live sampler stream (causim.timeseries.v1)
  /// `--critpath`: enable the live critical-path decomposition and embed a
  /// `critpath` block in every --json-out cell (see obs::live). Off by
  /// default so baseline bench.v1 artifacts stay byte-identical.
  bool critpath = false;
  /// Reliability-layer ARQ knobs for fault benches (see net::ReliableConfig):
  /// `--arq gbn|sr` and `--adaptive-rto` (kArqFlags).
  net::ArqMode arq = net::ArqMode::kGoBackN;
  bool adaptive_rto = false;
  /// `--executor per-site|pooled` selects the experiment lane; `--workers N`
  /// sizes the pooled worker pool (pooled only — the parser rejects it with
  /// per-site); `--batch N` enables per-channel coalescing with an N-message
  /// flush threshold (kExecutorFlags).
  engine::ExecutorKind executor = engine::ExecutorKind::kPerSite;
  long workers = 0;
  bool workers_set = false;
  long batch = 0;
  /// `--topology cells=K:wan-rtt=US[:loss=P]` splits the sites into K
  /// contiguous cells with a fixed RTT/2 one-way WAN delay (and optional
  /// WAN loss rate) between them; `--gateway on|off` toggles cross-DC
  /// mailbox coalescing (on requires a multi-cell --topology;
  /// kTopologyFlags).
  bool topology_set = false;
  long topo_cells = 0;
  long topo_wan_rtt_us = 0;
  double topo_wan_loss = 0.0;
  bool gateway_set = false;
  bool gateway_on = false;
};

/// Copies the CLI's ARQ knobs into a reliable-channel config.
void apply_arq_options(net::ReliableConfig& config, const BenchOptions& options);

/// Copies the CLI's executor/workers/batch knobs into experiment params.
void apply_executor_options(ExperimentParams& params, const BenchOptions& options);

/// Builds the --topology/--gateway knobs into experiment params: K
/// contiguous cells over params.sites (so set sites first), default
/// intra-cell profile, a fixed wan-rtt/2 one-way inter-cell delay plus the
/// optional loss rate, and gateway coalescing per --gateway. No-op without
/// --topology.
void apply_topology_options(ExperimentParams& params, const BenchOptions& options);

/// The flag groups a bench may apply on top of the common flags (--quick,
/// --csv and the observability outputs). Each bench passes the groups it
/// applies, and the parser rejects a flag of any other group: a flag that
/// is accepted and then ignored would make a run look like something it
/// is not.
enum BenchFlagGroup : unsigned {
  kExecutorFlags = 1u << 0,  ///< --executor, --workers, --batch
  kTopologyFlags = 1u << 1,  ///< --topology, --gateway
  kArqFlags = 1u << 2,       ///< --arq, --adaptive-rto
};

/// The flag reference printed on parse errors (argv0 names the binary).
std::string bench_usage(const char* argv0);

/// Testable parser core: fills `options` and returns true, or — on an
/// unknown flag, a value-flag missing its value, or a flag of a group
/// outside `groups` — sets `error` to an actionable message and returns
/// false, leaving exit policy to the caller.
bool try_parse_bench_args(int argc, char** argv, BenchOptions& options,
                          std::string& error, unsigned groups = 0);

/// CLI entry used by the bench binaries, which pass the BenchFlagGroups
/// they apply: a malformed command line prints the error plus usage to
/// stderr and exits with status 2 — a typoed or ignored flag must not
/// silently fall through to a default run.
BenchOptions parse_bench_args(int argc, char** argv, unsigned groups = 0);

/// Applies --quick to params (1 seed, 300 ops/site).
void apply_quick(ExperimentParams& params, const BenchOptions& options);

}  // namespace causim::bench_support
