// Extension — open-loop KV service throughput and tail latency.
//
// The paper drives each protocol with a closed, pre-planned schedule;
// this bench drives the causim::kv front-end the way a store is actually
// measured (PaRiS/Okapi methodology): Poisson arrivals at a target
// per-site rate over a million-key Zipfian keyspace, client sessions
// enforcing the four session guarantees on top of the protocol's causal
// ordering. Reported per protocol: sustained ops/sec and the client
// observed get-latency quantiles (p50/p99/p999), under steady Zipfian
// popularity and under a flash crowd that moves the hot set mid-run. The
// grid runs on the deterministic DES substrate by default;
// `--executor pooled [--workers N]` switches to the pooled-thread
// saturation lane, and `--topology`/`--gateway` stack the service on the
// two-level datacenter topology.
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options = bench_support::parse_bench_args(
      argc, argv, bench_support::kExecutorFlags | bench_support::kTopologyFlags);
  bench_support::Observability observability(options, "ext_service");
  if (!observability.ok()) return 1;

  const SiteId sites = 5;
  // Reuse the CLI topology and coalescing builders via the standard
  // params struct, then lift the result into the service's engine config.
  bench_support::ExperimentParams cli_view;
  cli_view.sites = sites;
  bench_support::apply_topology_options(cli_view, options);
  bench_support::apply_executor_options(cli_view, options);

  stats::Table table(
      "Extension — open-loop KV service (n = 5, p = 2, 4 sessions/site, "
      "Zipf(0.99) keys, 10 ops/s/site)");
  table.set_columns({"protocol", "popularity", "ops/s", "get p50 ms", "get p99 ms",
                     "get p999 ms", "retries", "stale", "violations"});

  const std::vector<causal::ProtocolKind> protocols = {
      causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptP,
      causal::ProtocolKind::kOptTrack, causal::ProtocolKind::kOptTrackCrp};
  for (const causal::ProtocolKind protocol : protocols) {
    for (const bool flash : {false, true}) {
      kv::ServiceParams params;
      params.engine.sites = sites;
      params.engine.variables = 100;
      params.engine.replication = causal::requires_full_replication(protocol)
                                      ? 0
                                      : bench_support::partial_replication_factor(sites);
      params.engine.protocol = protocol;
      params.engine.protocol_options = bench_support::jdk_like_options();
      params.engine.topology = cli_view.topology;
      params.engine.gateway = cli_view.gateway;
      params.engine.batch = cli_view.batch;
      params.substrate = options.executor == engine::ExecutorKind::kPooled
                             ? kv::Substrate::kPooled
                             : kv::Substrate::kSim;
      params.workers = static_cast<unsigned>(options.workers);
      params.store.map = kv::KeyMap(params.engine.variables);
      params.workload.keys = options.quick ? 200'000 : 1'000'000;
      params.workload.zipf_s = 0.99;
      params.workload.write_rate = 0.5;
      params.workload.rate_ops_per_sec = 10.0;
      params.workload.ops_per_site = options.quick ? 400 : 2000;
      params.workload.sessions_per_site = 4;
      params.workload.payload_lo = 64;
      params.workload.payload_hi = 512;
      params.workload.flash = flash;
      params.workload.seed = 1;

      const std::string label = std::string(causal::to_string(protocol)) +
                                (flash ? " flash" : " zipfian") + " n=5 rate=10";
      const kv::ServiceResult r = observability.run_service_cell(label, params);
      if (r.sessions.violations != 0) {
        std::cerr << "error: " << label << ": " << r.sessions.violations
                  << " session-guarantee violations (retry budget exhausted)\n";
        return 1;
      }
      const kv::LatencyDigest get = kv::digest(r.get_latency_us);
      table.add_row({causal::to_string(protocol), flash ? "flash" : "zipfian",
                     stats::Table::num(r.sustained_ops_per_sec, 1),
                     stats::Table::num(get.p50_us / 1000.0, 2),
                     stats::Table::num(get.p99_us / 1000.0, 2),
                     stats::Table::num(get.p999_us / 1000.0, 2),
                     stats::Table::num(static_cast<double>(r.sessions.retries), 0),
                     stats::Table::num(static_cast<double>(r.sessions.stale_observations), 0),
                     stats::Table::num(static_cast<double>(r.sessions.violations), 0)});
    }
  }
  std::cout << table;
  if (options.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return observability.finish() ? 0 : 1;
}
