// Fig. 5 — Total SM meta-data space overhead of Opt-Track-CRP relative to
// optP, as a function of n and w_rate, under full replication.
//
// Paper shape: the ratio is slightly above 1 at n = 5 (CRP's 2-tuple
// entries cost a little more than a 5-entry vector), crosses below 1 around
// n = 10, and falls to ~0.50–0.55 at n = 40; higher write rates shrink it.
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options =
      bench_support::parse_bench_args(argc, argv, bench_support::kTopologyFlags);
  bench_support::Observability observability(options, "fig5_full_ratio");
  if (!observability.ok()) return 1;
  const SiteId ns[] = {5, 10, 20, 30, 40};
  const double write_rates[] = {0.2, 0.5, 0.8};

  stats::Table table(
      "Fig. 5 — total SM meta-data overhead ratio, Opt-Track-CRP / optP "
      "(full replication)");
  table.set_columns({"n", "w_rate=0.2", "w_rate=0.5", "w_rate=0.8"});

  for (const SiteId n : ns) {
    std::vector<std::string> row{std::to_string(n)};
    for (const double w : write_rates) {
      bench_support::ExperimentParams params;
      params.sites = n;
      params.write_rate = w;
      params.replication = 0;  // full replication
      bench_support::apply_quick(params, options);
      bench_support::apply_topology_options(params, options);

      const std::string cell =
          " n=" + std::to_string(n) + " w=" + stats::Table::num(w, 1);
      params.protocol = causal::ProtocolKind::kOptTrackCrp;
      const auto crp = observability.run_cell("Opt-Track-CRP" + cell, params);
      params.protocol = causal::ProtocolKind::kOptP;
      const auto optp = observability.run_cell("optP" + cell, params);

      row.push_back(stats::Table::num(
          crp.mean_total_overhead_bytes() / optp.mean_total_overhead_bytes(), 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << table;
  if (options.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return observability.finish() ? 0 : 1;
}
