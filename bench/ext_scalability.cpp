// Extension — scalability beyond the paper's testbed limit.
//
// The paper stops at n = 40 ("on an Intel Core 2 Duo … we can simulate up
// to 40 processes"). The discrete-event substrate has no such limit, so
// this bench extends both comparisons to larger n and shows the asymptotic
// separation keeps widening: Full-Track/optP grow as O(n²)/O(n) per
// message while Opt-Track/Opt-Track-CRP stay amortized O(n)/O(d).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options =
      bench_support::parse_bench_args(argc, argv, bench_support::kExecutorFlags);
  bench_support::Observability observability(options, "ext_scalability");
  if (!observability.ok()) return 1;

  if (options.batch > 0 && options.executor != engine::ExecutorKind::kPooled) {
    std::fprintf(stderr,
                 "--batch applies to the pooled throughput lane only; add "
                 "--executor pooled\n");
    return 2;
  }
  if (options.executor == engine::ExecutorKind::kPooled) {
    // Throughput lane (--executor pooled): real threads over the worker
    // pool instead of the discrete-event clock, so the numbers below are
    // wall-clock messages per second, not simulated time. Each n runs
    // twice — raw and with per-channel coalescing — and the bench fails
    // if coalescing does not cut wire frames at least 2x under this
    // batch-friendly load (write-only fan-out, no blocking reads).
    stats::Table table(
        "Extension — pooled executor throughput (Opt-Track, write-only, "
        "p = 0.3n)");
    table.set_columns({"n", "workers", "raw msgs/s", "raw frames",
                       "coalesced msgs/s", "coalesced frames", "frame ratio"});
    bool coalesce_ok = true;
    for (const SiteId n : {8, 32}) {
      bench_support::ExperimentParams params;
      params.protocol = causal::ProtocolKind::kOptTrack;
      params.sites = n;
      params.write_rate = 1.0;
      params.replication = bench_support::partial_replication_factor(n);
      params.ops_per_site = options.quick ? 150 : 400;
      params.seeds = {1};
      bench_support::apply_executor_options(params, options);

      const auto run_lane = [&](const char* lane, bool coalesce) {
        params.batch.enabled = coalesce;
        if (options.batch > 0) {
          params.batch.max_messages = static_cast<std::uint32_t>(options.batch);
        }
        const std::string label =
            "Opt-Track pooled n=" + std::to_string(n) + " " + lane;
        const auto t0 = std::chrono::steady_clock::now();
        const auto result = observability.run_cell(label, params);
        const double wall_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
        const double rate =
            wall_s > 0.0
                ? static_cast<double>(result.stats.total().count) / wall_s
                : 0.0;
        return std::make_pair(result, rate);
      };
      const auto [raw, raw_rate] = run_lane("raw", false);
      const auto [coalesced, co_rate] = run_lane("coalesced", true);

      const double ratio =
          coalesced.wire_frames > 0
              ? static_cast<double>(raw.wire_frames) /
                    static_cast<double>(coalesced.wire_frames)
              : 0.0;
      if (ratio < 2.0) {
        std::cerr << "error: coalescing cut wire frames only "
                  << stats::Table::num(ratio, 2) << "x at n=" << n
                  << " (want >= 2x): raw=" << raw.wire_frames
                  << " coalesced=" << coalesced.wire_frames << "\n";
        coalesce_ok = false;
      }
      table.add_row({std::to_string(n),
                     params.workers == 0 ? "hw" : std::to_string(params.workers),
                     stats::Table::num(raw_rate, 0),
                     std::to_string(raw.wire_frames),
                     stats::Table::num(co_rate, 0),
                     std::to_string(coalesced.wire_frames),
                     stats::Table::num(ratio, 2)});
    }
    std::cout << table;
    if (options.csv) std::cout << "\nCSV:\n" << table.to_csv();
    return observability.finish() && coalesce_ok ? 0 : 1;
  }

  {
    stats::Table table(
        "Extension — partial replication at larger n (w_rate = 0.5, p = 0.3n, "
        "200 ops/site)");
    table.set_columns({"n", "OptTrack avg SM B", "FullTrack avg SM B", "ratio",
                       "OptTrack log entries"});
    for (const SiteId n : {20, 40, 60, 80}) {
      bench_support::ExperimentParams params;
      params.sites = n;
      params.write_rate = 0.5;
      params.replication = bench_support::partial_replication_factor(n);
      params.ops_per_site = options.quick ? 100 : 200;
      params.seeds = {1};

      const std::string cell = " partial n=" + std::to_string(n);
      params.protocol = causal::ProtocolKind::kOptTrack;
      const auto opt = observability.run_cell("Opt-Track" + cell, params);
      params.protocol = causal::ProtocolKind::kFullTrack;
      const auto full = observability.run_cell("Full-Track" + cell, params);
      table.add_row({std::to_string(n),
                     stats::Table::num(opt.avg_overhead(MessageKind::kSM), 1),
                     stats::Table::num(full.avg_overhead(MessageKind::kSM), 1),
                     stats::Table::num(opt.avg_overhead(MessageKind::kSM) /
                                           full.avg_overhead(MessageKind::kSM),
                                       3),
                     stats::Table::num(opt.log_entries.mean(), 1)});
    }
    std::cout << table << "\n";
    if (options.csv) std::cout << "CSV:\n" << table.to_csv() << "\n";
  }

  {
    stats::Table table(
        "Extension — full replication at larger n (w_rate = 0.5, 100 ops/site)");
    table.set_columns({"n", "CRP avg SM B", "optP avg SM B", "ratio", "CRP log d"});
    for (const SiteId n : {40, 60, 100, 140}) {
      bench_support::ExperimentParams params;
      params.sites = n;
      params.write_rate = 0.5;
      params.replication = 0;
      params.ops_per_site = options.quick ? 60 : 100;
      params.seeds = {1};

      const std::string cell = " full n=" + std::to_string(n);
      params.protocol = causal::ProtocolKind::kOptTrackCrp;
      const auto crp = observability.run_cell("Opt-Track-CRP" + cell, params);
      params.protocol = causal::ProtocolKind::kOptP;
      const auto optp = observability.run_cell("optP" + cell, params);
      table.add_row({std::to_string(n),
                     stats::Table::num(crp.avg_overhead(MessageKind::kSM), 1),
                     stats::Table::num(optp.avg_overhead(MessageKind::kSM), 1),
                     stats::Table::num(crp.avg_overhead(MessageKind::kSM) /
                                           optp.avg_overhead(MessageKind::kSM),
                                       3),
                     stats::Table::num(crp.log_entries.mean(), 2)});
    }
    std::cout << table;
    if (options.csv) std::cout << "\nCSV:\n" << table.to_csv();
  }
  return observability.finish() ? 0 : 1;
}
