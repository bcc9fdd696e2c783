// Table IV — Total message count: partial replication (Opt-Track,
// p = 0.3·n) vs full replication (Opt-Track-CRP), same operation
// schedules, plus the closed-form counts of §V-A/§V-B.
//
// Paper shape: full replication's count grows as (n-1)·w while partial
// stays near ((p-1) + (n-p)/n)·w + 2r·(n-p)/n; partial replication wins
// everywhere except the smallest, most read-heavy cell (n = 5,
// w_rate = 0.2), in line with the crossover condition w_rate > 2/(n+1).
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
  bench_support::Observability observability(options, "table4_message_count");
  if (!observability.ok()) return 1;
  const SiteId ns[] = {5, 10, 20, 30, 40};
  const double write_rates[] = {0.2, 0.5, 0.8};

  stats::Table table(
      "Table IV — total message count, full replication (Opt-Track-CRP) vs "
      "partial replication (Opt-Track, p = 0.3n)");
  table.set_columns({"n", "full (0.2)", "full (0.5)", "full (0.8)", "partial (0.2)",
                     "partial (0.5)", "partial (0.8)"});

  for (const SiteId n : ns) {
    std::vector<std::string> row{std::to_string(n)};
    for (int mode = 0; mode < 2; ++mode) {
      for (const double w : write_rates) {
        bench_support::ExperimentParams params;
        params.sites = n;
        params.write_rate = w;
        if (mode == 0) {
          params.protocol = causal::ProtocolKind::kOptTrackCrp;
          params.replication = 0;
        } else {
          params.protocol = causal::ProtocolKind::kOptTrack;
          params.replication = bench_support::partial_replication_factor(n);
        }
        bench_support::apply_quick(params, options);
        bench_support::apply_topology_options(params, options);
        const std::string label = std::string(to_string(params.protocol)) +
                                  (mode == 0 ? " full" : " partial") +
                                  " n=" + std::to_string(n) +
                                  " w=" + stats::Table::num(w, 1);
        const auto r = observability.run_cell(label, params);
        row.push_back(stats::Table::integer(
            static_cast<std::uint64_t>(r.mean_message_count() + 0.5)));
      }
    }
    table.add_row(std::move(row));
  }
  std::cout << table;

  stats::Table closed(
      "Closed forms (per recorded op counts w, r): full = (n-1)w; partial = "
      "((p-1) + (n-p)/n)w + 2r(n-p)/n");
  closed.set_columns({"n", "p", "w_rate", "w", "r", "full", "partial"});
  for (const SiteId n : ns) {
    const SiteId p = bench_support::partial_replication_factor(n);
    for (const double wr : write_rates) {
      // The paper's 600 ops/site with 15 % warm-up leaves 510 recorded.
      const double ops = 510.0 * n;
      const double w = ops * wr;
      const double r = ops - w;
      const double full = (n - 1) * w;
      const double partial =
          ((p - 1) + static_cast<double>(n - p) / n) * w + 2 * r * (n - p) / n;
      closed.add_row({std::to_string(n), std::to_string(p), stats::Table::num(wr, 1),
                      stats::Table::integer(static_cast<std::uint64_t>(w)),
                      stats::Table::integer(static_cast<std::uint64_t>(r)),
                      stats::Table::integer(static_cast<std::uint64_t>(full)),
                      stats::Table::integer(static_cast<std::uint64_t>(partial))});
    }
  }
  std::cout << "\n" << closed;
  if (options.csv) std::cout << "\nCSV:\n" << table.to_csv();
  return observability.finish() ? 0 : 1;
}
