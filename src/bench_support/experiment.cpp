#include "bench_support/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/panic.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/live/live_telemetry.hpp"

namespace causim::bench_support {

SiteId partial_replication_factor(SiteId n) {
  const auto p = static_cast<SiteId>(std::lround(0.3 * n));
  return p == 0 ? SiteId{1} : p;
}

double ExperimentResult::mean_total_overhead_bytes() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(stats.total().overhead_bytes()) /
                         static_cast<double>(runs);
}

double ExperimentResult::mean_total_meta_bytes() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(stats.total().meta_bytes) /
                         static_cast<double>(runs);
}

double ExperimentResult::mean_message_count() const {
  return runs == 0 ? 0.0
                   : static_cast<double>(stats.total().count) / static_cast<double>(runs);
}

double ExperimentResult::avg_overhead(MessageKind kind) const {
  return stats.of(kind).avg_overhead();
}

ExperimentResult run_experiment(const ExperimentParams& params) {
  ExperimentResult result;
  for (const std::uint64_t seed : params.seeds) {
    dsm::ClusterConfig config;
    config.sites = params.sites;
    config.variables = params.variables;
    config.replication = params.replication;
    config.protocol = params.protocol;
    config.protocol_options = params.protocol_options;
    config.seed = seed;
    config.record_history = params.check;
    config.causal_fetch = params.causal_fetch;
    config.trace_sink = params.trace_sink;
    config.log_sample_interval = params.log_sample_interval;
    config.fault_plan = params.fault_plan;
    config.reliable_channel = params.reliable_channel;
    config.reliable_config = params.reliable_config;
    config.executor = params.executor;
    config.workers = params.workers;
    config.batch = params.batch;
    config.topology = params.topology;
    config.gateway = params.gateway;
    config.live = params.live;
    if (params.live != nullptr) params.live->begin_run(seed);

    workload::WorkloadParams wl;
    wl.variables = params.variables;
    wl.write_rate = params.write_rate;
    wl.ops_per_site = params.ops_per_site;
    wl.payload_lo = params.payload_lo;
    wl.payload_hi = params.payload_hi;
    wl.zipf_s = params.zipf_s;
    wl.gap_lo = params.gap_lo;
    wl.gap_hi = params.gap_hi;
    wl.seed = seed;

    const workload::Schedule schedule = workload::generate_schedule(params.sites, wl);

    // Both cluster flavours expose the same stack/accessor surface, so one
    // collector serves the DES lane and the pooled thread lane.
    const auto collect = [&](auto& cluster) {
      cluster.execute(schedule);
      engine::NodeStack& stack = cluster.stack();
      result.stats += stack.aggregate_message_stats();
      result.log_entries += stack.aggregate_log_entries();
      result.log_bytes += stack.aggregate_log_bytes();
      result.fetch_latency_us += stack.aggregate_fetch_latency();
      result.apply_delay_us += stack.aggregate_apply_delay();
      if (cluster.injector() != nullptr) result.drops += cluster.injector()->drops();
      if (cluster.reliable() != nullptr) {
        result.retransmits += cluster.reliable()->retransmits();
        result.dup_suppressed += cluster.reliable()->dup_suppressed();
        result.reliable_frames += cluster.reliable()->frames_sent();
        result.reliable_packets += cluster.reliable()->packets_sent();
        result.rtt_samples += cluster.reliable()->rtt_samples();
      }
      result.wire_frames += stack.wire().packets_sent();
      if (stack.batching() != nullptr) {
        result.batch_frames += stack.batching()->frames_sent();
        result.batch_messages += stack.batching()->messages_batched();
      }
      if (stack.gateway() != nullptr) {
        const net::GatewayMailbox& gw = *stack.gateway();
        result.lan_messages += gw.lan_messages();
        result.wan_messages += gw.wan_messages();
        result.lan_bytes += gw.lan_bytes();
        result.wan_bytes += gw.wan_bytes();
        result.wan_frames += gw.wan_frames();
        result.gateway_frames += gw.mailbox_frames();
        result.gateway_frame_messages += gw.mailbox_messages();
        result.gateway_enroute += gw.enroute_messages();
      }
      if (params.metrics != nullptr) cluster.export_metrics(*params.metrics);

      if (params.check) {
        const checker::CheckResult check = cluster.check();
        if (!check.ok()) {
          result.check_ok = false;
          result.violations.insert(result.violations.end(),
                                   check.violations.begin(),
                                   check.violations.end());
        }
      }
    };

    if (params.executor == engine::ExecutorKind::kPooled) {
      // Throughput lane: real threads at full speed, no artificial wire
      // jitter — the numbers measure the executor and the wire path, not
      // injected sleeps.
      dsm::ThreadCluster::Options topt;
      topt.time_scale = 0.0;
      topt.max_wire_delay_us = 0;
      dsm::ThreadCluster cluster(config, topt);
      collect(cluster);
    } else {
      dsm::Cluster cluster(config);
      collect(cluster);
    }
    result.recorded_writes += schedule.recorded_writes();
    result.recorded_reads += schedule.recorded_reads();
    ++result.runs;
  }
  return result;
}

namespace {
/// Matches `--name=value` or `--name value`; advances `i` past a detached
/// value. Returns nullptr when `arg` is not this flag.
const char* flag_value(const char* arg, const char* name, int argc, char** argv,
                       int& i) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && i + 1 < argc) return argv[++i];
  return nullptr;
}

/// Parses `--topology cells=K:wan-rtt=US[:loss=P]` into the options,
/// rejecting unknown keys, malformed numbers and missing mandatory keys
/// with one actionable message each.
bool parse_topology_spec(const char* spec, BenchOptions& options,
                         std::string& error) {
  bool have_cells = false;
  bool have_rtt = false;
  const char* p = spec;
  while (*p != '\0') {
    const char* colon = std::strchr(p, ':');
    const std::size_t part_len = colon != nullptr
                                     ? static_cast<std::size_t>(colon - p)
                                     : std::strlen(p);
    const std::string part(p, part_len);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      error = "--topology parts must be key=value (cells=K, wan-rtt=US, "
              "loss=P), got: " + (part.empty() ? std::string("<empty>") : part);
      return false;
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    char* end = nullptr;
    if (key == "cells") {
      options.topo_cells = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || options.topo_cells < 1) {
        error = "--topology cells expects an integer >= 1, got: " + value;
        return false;
      }
      have_cells = true;
    } else if (key == "wan-rtt") {
      options.topo_wan_rtt_us = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || options.topo_wan_rtt_us < 2) {
        error = "--topology wan-rtt expects a round-trip time >= 2 "
                "microseconds (the one-way delay is rtt/2), got: " + value;
        return false;
      }
      have_rtt = true;
    } else if (key == "loss") {
      options.topo_wan_loss = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options.topo_wan_loss < 0.0 ||
          options.topo_wan_loss >= 1.0) {
        error = "--topology loss expects a drop rate in [0, 1), got: " + value;
        return false;
      }
    } else {
      error = "--topology has no key '" + key +
              "' (known: cells, wan-rtt, loss)";
      return false;
    }
    p += part_len;
    if (*p == ':') ++p;
  }
  if (!have_cells || !have_rtt) {
    error = "--topology needs both cells=K and wan-rtt=US (loss=P is "
            "optional), got: ";
    error += spec;
    return false;
  }
  options.topology_set = true;
  return true;
}
/// Sets `error` and returns false when `flag` belongs to a group outside
/// `groups`.
bool bench_applies(unsigned groups, BenchFlagGroup group, const char* flag,
                   std::string& error) {
  if ((groups & group) != 0) return true;
  const char* members = group == kExecutorFlags   ? "--executor/--workers/--batch"
                        : group == kTopologyFlags ? "--topology/--gateway"
                                                  : "--arq/--adaptive-rto";
  error = std::string(flag) + " is ignored by this bench (it does not apply " +
          members + "); drop the flag";
  return false;
}
}  // namespace

std::string bench_usage(const char* argv0) {
  std::string usage = "usage: ";
  usage += argv0;
  usage +=
      " [--quick] [--csv] [--trace-out FILE] [--metrics-out FILE]"
      " [--report-out FILE] [--json-out FILE] [--timeseries-out FILE]"
      " [--critpath] [--arq gbn|sr] [--adaptive-rto]"
      " [--executor per-site|pooled] [--workers N] [--batch N]"
      " [--topology cells=K:wan-rtt=US[:loss=P]] [--gateway on|off]\n"
      "  --quick            shrink seeds/ops for a smoke run\n"
      "  --csv              also print tables as CSV\n"
      "  --trace-out FILE   write a Chrome/Perfetto trace-event JSON\n"
      "  --metrics-out FILE write metrics JSON (CSV when FILE ends in .csv)\n"
      "  --report-out FILE  write an analysis report JSON\n"
      "  --json-out FILE    write machine-readable results (causim.bench.v1:\n"
      "                     per-cell config, message totals, visibility-latency\n"
      "                     quantiles; gate with tools/check_bench.py)\n"
      "  --timeseries-out FILE  write the live sampler's causim.timeseries.v1\n"
      "                     stream for the first cell (summarize/diff with\n"
      "                     `causim-trace timeseries`)\n"
      "  --critpath         fold the live critical-path decomposition (wire /\n"
      "                     arq / dep_wait segment quantiles, top blocked-on\n"
      "                     writes) into each --json-out cell as a `critpath`\n"
      "                     block; off by default so baseline bench.v1 bytes\n"
      "                     are unchanged\n"
      "  --arq gbn|sr       reliability-layer ARQ mode (go-back-N | selective\n"
      "                     repeat); only fault benches accept it\n"
      "  --adaptive-rto     Jacobson/Karels adaptive RTO instead of the fixed\n"
      "                     initial timeout\n"
      "  --executor KIND    per-site (default: the discrete-event lane, one\n"
      "                     logical thread per site) or pooled (real threads,\n"
      "                     N sites multiplexed over a fixed worker pool —\n"
      "                     the throughput lane; only benches with a pooled\n"
      "                     section accept it, with --workers and --batch)\n"
      "  --workers N        worker threads for --executor pooled (default:\n"
      "                     hardware concurrency); rejected with per-site\n"
      "  --batch N          coalesce each channel's messages into batch\n"
      "                     frames, flushing every N messages (also on byte\n"
      "                     and delay thresholds); N >= 1\n"
      "  --topology SPEC    two-level datacenter topology: SPEC is\n"
      "                     cells=K:wan-rtt=US[:loss=P] — K contiguous cells\n"
      "                     over the sites, a fixed US/2 one-way WAN delay\n"
      "                     between cells (intra-cell links keep the LAN\n"
      "                     default), optional WAN drop rate P in [0, 1);\n"
      "                     only benches with a geo lane accept it and --gateway\n"
      "  --gateway on|off   cross-DC gateway mailboxes: on coalesces\n"
      "                     cross-cell messages through per-cell gateways,\n"
      "                     off keeps direct WAN sends (the A/B baseline);\n"
      "                     on requires a --topology with cells >= 2\n"
      "  (value flags also accept --flag=VALUE)\n";
  return usage;
}

bool try_parse_bench_args(int argc, char** argv, BenchOptions& options,
                          std::string& error, unsigned groups) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      options.csv = true;
    } else if (const char* v = flag_value(argv[i], "--trace-out", argc, argv, i)) {
      options.trace_out = v;
    } else if (const char* m = flag_value(argv[i], "--metrics-out", argc, argv, i)) {
      options.metrics_out = m;
    } else if (const char* r = flag_value(argv[i], "--report-out", argc, argv, i)) {
      options.report_out = r;
    } else if (const char* j = flag_value(argv[i], "--json-out", argc, argv, i)) {
      options.json_out = j;
    } else if (const char* t = flag_value(argv[i], "--timeseries-out", argc, argv, i)) {
      options.timeseries_out = t;
    } else if (const char* a = flag_value(argv[i], "--arq", argc, argv, i)) {
      if (!bench_applies(groups, kArqFlags, "--arq", error)) return false;
      if (std::strcmp(a, "gbn") == 0) {
        options.arq = net::ArqMode::kGoBackN;
      } else if (std::strcmp(a, "sr") == 0) {
        options.arq = net::ArqMode::kSelectiveRepeat;
      } else {
        error = "--arq expects gbn or sr, got: ";
        error += a;
        return false;
      }
    } else if (std::strcmp(argv[i], "--critpath") == 0) {
      options.critpath = true;
    } else if (std::strcmp(argv[i], "--adaptive-rto") == 0) {
      if (!bench_applies(groups, kArqFlags, "--adaptive-rto", error)) return false;
      options.adaptive_rto = true;
    } else if (const char* e = flag_value(argv[i], "--executor", argc, argv, i)) {
      if (!bench_applies(groups, kExecutorFlags, "--executor", error)) return false;
      if (std::strcmp(e, "per-site") == 0) {
        options.executor = engine::ExecutorKind::kPerSite;
      } else if (std::strcmp(e, "pooled") == 0) {
        options.executor = engine::ExecutorKind::kPooled;
      } else {
        error = "--executor expects per-site or pooled, got: ";
        error += e;
        return false;
      }
    } else if (const char* w = flag_value(argv[i], "--workers", argc, argv, i)) {
      if (!bench_applies(groups, kExecutorFlags, "--workers", error)) return false;
      char* end = nullptr;
      options.workers = std::strtol(w, &end, 10);
      if (end == w || *end != '\0') {
        error = "--workers expects an integer, got: ";
        error += w;
        return false;
      }
      options.workers_set = true;
    } else if (const char* tp = flag_value(argv[i], "--topology", argc, argv, i)) {
      if (!bench_applies(groups, kTopologyFlags, "--topology", error)) return false;
      if (!parse_topology_spec(tp, options, error)) return false;
    } else if (const char* g = flag_value(argv[i], "--gateway", argc, argv, i)) {
      if (!bench_applies(groups, kTopologyFlags, "--gateway", error)) return false;
      if (std::strcmp(g, "on") == 0) {
        options.gateway_on = true;
      } else if (std::strcmp(g, "off") == 0) {
        options.gateway_on = false;
      } else {
        error = "--gateway expects on or off, got: ";
        error += g;
        return false;
      }
      options.gateway_set = true;
    } else if (const char* b = flag_value(argv[i], "--batch", argc, argv, i)) {
      if (!bench_applies(groups, kExecutorFlags, "--batch", error)) return false;
      char* end = nullptr;
      options.batch = std::strtol(b, &end, 10);
      if (end == b || *end != '\0' || options.batch < 1) {
        error = "--batch expects a flush threshold >= 1 messages, got: ";
        error += b;
        return false;
      }
    } else {
      error = "unknown or malformed flag: ";
      error += argv[i];
      return false;
    }
  }
  // Flag order must not matter, so cross-flag rules run after the loop.
  if (options.workers_set && options.workers < 1) {
    error = "--workers must be >= 1 (got " + std::to_string(options.workers) +
            "); omit it to use one worker per hardware thread";
    return false;
  }
  if (options.workers_set &&
      options.executor != engine::ExecutorKind::kPooled) {
    error =
        "--workers only applies to the pooled executor (the per-site default "
        "always runs one thread per site); add --executor pooled";
    return false;
  }
  if (options.gateway_set && options.gateway_on &&
      (!options.topology_set || options.topo_cells < 2)) {
    error =
        "--gateway on needs a multi-cell topology to route through (cross-DC "
        "mailboxes sit between cells); add --topology cells=K:wan-rtt=US "
        "with K >= 2";
    return false;
  }
  return true;
}

BenchOptions parse_bench_args(int argc, char** argv, unsigned groups) {
  BenchOptions options;
  std::string error;
  if (!try_parse_bench_args(argc, argv, options, error, groups)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(),
                 bench_usage(argc > 0 ? argv[0] : "bench").c_str());
    std::exit(2);
  }
  return options;
}

void apply_arq_options(net::ReliableConfig& config, const BenchOptions& options) {
  config.arq = options.arq;
  config.adaptive_rto = options.adaptive_rto;
}

void apply_executor_options(ExperimentParams& params, const BenchOptions& options) {
  params.executor = options.executor;
  params.workers = options.workers_set ? static_cast<unsigned>(options.workers) : 0;
  if (options.batch > 0) {
    params.batch.enabled = true;
    params.batch.max_messages = static_cast<std::uint32_t>(options.batch);
  }
}

void apply_topology_options(ExperimentParams& params, const BenchOptions& options) {
  if (!options.topology_set) return;
  topo::LinkProfile intra;  // the LAN default (1–5 ms)
  topo::LinkProfile inter;
  // A fixed one-way WAN delay of rtt/2: deterministic geo latency the
  // paper-style uniform LAN jitter rides inside each cell.
  inter.latency_lo = options.topo_wan_rtt_us / 2;
  inter.latency_hi = options.topo_wan_rtt_us / 2;
  inter.faults.drop_rate = options.topo_wan_loss;
  params.topology = topo::Topology::blocks(
      params.sites, static_cast<std::size_t>(options.topo_cells), intra, inter);
  params.gateway.enabled = options.gateway_set && options.gateway_on;
}

void apply_quick(ExperimentParams& params, const BenchOptions& options) {
  if (!options.quick) return;
  params.seeds = {1};
  params.ops_per_site = std::min<std::size_t>(params.ops_per_site, 300);
}

}  // namespace causim::bench_support
