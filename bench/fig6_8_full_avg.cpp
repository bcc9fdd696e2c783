// Figs. 6–8 and Table III — Average SM meta-data space overhead under full
// replication for Opt-Track-CRP vs optP, at w_rate = 0.2 / 0.5 / 0.8.
//
// Paper shape: optP's SM size is an exact linear function of n (the O(n)
// Write vector) and independent of the write rate; Opt-Track-CRP's is O(d)
// — nearly flat in n — and decreases slightly as the write rate grows
// (each write resets the local log, each read may add one entry).
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options =
      bench_support::parse_bench_args(argc, argv, bench_support::kTopologyFlags);
  bench_support::Observability observability(options, "fig6_8_full_avg");
  if (!observability.ok()) return 1;
  const SiteId ns[] = {5, 10, 20, 30, 35, 40};
  const double write_rates[] = {0.2, 0.5, 0.8};

  std::map<std::pair<int, SiteId>, double> crp_avg;  // (wrate idx, n) -> bytes
  std::map<SiteId, double> optp_avg;                 // optP is w_rate independent
  std::map<std::pair<int, SiteId>, double> crp_log_d;

  for (int wi = 0; wi < 3; ++wi) {
    for (const SiteId n : ns) {
      bench_support::ExperimentParams params;
      params.sites = n;
      params.write_rate = write_rates[wi];
      params.replication = 0;
      bench_support::apply_quick(params, options);
      bench_support::apply_topology_options(params, options);

      const std::string cell = " n=" + std::to_string(n) +
                               " w=" + stats::Table::num(write_rates[wi], 1);
      params.protocol = causal::ProtocolKind::kOptTrackCrp;
      const auto crp = observability.run_cell("Opt-Track-CRP" + cell, params);
      crp_avg[{wi, n}] = crp.avg_overhead(MessageKind::kSM);
      crp_log_d[{wi, n}] = crp.log_entries.mean();

      params.protocol = causal::ProtocolKind::kOptP;
      const auto optp = observability.run_cell("optP" + cell, params);
      // Report the mid write-rate run for optP's column (all three match).
      if (wi == 1) optp_avg[n] = optp.avg_overhead(MessageKind::kSM);
    }
  }

  for (int wi = 0; wi < 3; ++wi) {
    stats::Table fig("Fig. " + std::to_string(6 + wi) + " (w_rate = " +
                     stats::Table::num(write_rates[wi], 1) +
                     ") — average SM meta-data overhead, bytes (full replication)");
    fig.set_columns({"n", "Opt-Track-CRP", "CRP log entries d", "optP"});
    for (const SiteId n : ns) {
      fig.add_row({std::to_string(n), stats::Table::num(crp_avg[{wi, n}], 1),
                   stats::Table::num(crp_log_d[{wi, n}], 2),
                   stats::Table::num(optp_avg[n], 1)});
    }
    std::cout << fig << "\n";
    if (options.csv) std::cout << "CSV:\n" << fig.to_csv() << "\n";
  }

  stats::Table t3("Table III — average SM space overhead for Opt-Track-CRP (bytes)");
  t3.set_columns({"n", "w_rate=.2", "w_rate=.5", "w_rate=.8", "optP"});
  for (const SiteId n : ns) {
    t3.add_row({std::to_string(n), stats::Table::num(crp_avg[{0, n}], 1),
                stats::Table::num(crp_avg[{1, n}], 1),
                stats::Table::num(crp_avg[{2, n}], 1),
                stats::Table::num(optp_avg[n], 1)});
  }
  std::cout << t3;
  if (options.csv) std::cout << "\nCSV:\n" << t3.to_csv();
  return observability.finish() ? 0 : 1;
}
