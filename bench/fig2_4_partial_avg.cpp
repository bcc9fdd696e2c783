// Figs. 2–4 and Table II — Average per-message meta-data space overhead of
// SM / RM / FM messages under partial replication (p = 0.3·n), for
// w_rate = 0.2 (Fig. 2), 0.5 (Fig. 3) and 0.8 (Fig. 4).
//
// Paper shape: Full-Track's SM and RM grow quadratically in n (the n×n
// Write matrix) and are essentially write-rate independent (±1–3 %);
// Opt-Track's grow roughly linearly and *decrease* as the write rate rises
// (more PURGE, fewer MERGE). FM is a small constant, identical for both.
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options =
      bench_support::parse_bench_args(argc, argv, bench_support::kTopologyFlags);
  bench_support::Observability observability(options, "fig2_4_partial_avg");
  if (!observability.ok()) return 1;
  const SiteId ns[] = {5, 10, 20, 30, 40};
  const double write_rates[] = {0.2, 0.5, 0.8};
  const char* fig_name[] = {"Fig. 2 (w_rate = 0.2)", "Fig. 3 (w_rate = 0.5)",
                            "Fig. 4 (w_rate = 0.8)"};

  // Collected for Table II: [protocol][kind][wrate][n] in KB.
  std::vector<stats::Table> figures;

  struct Cell {
    double sm = 0, rm = 0;
  };
  std::map<std::tuple<int, int, SiteId>, Cell> table2;  // (proto, wrate idx, n)

  for (int wi = 0; wi < 3; ++wi) {
    stats::Table fig(std::string(fig_name[wi]) +
                     " — average per-message meta-data overhead, bytes "
                     "(partial replication, p = 0.3n)");
    fig.set_columns({"n", "OptTrack SM", "OptTrack RM", "OptTrack FM", "FullTrack SM",
                     "FullTrack RM", "FullTrack FM"});
    for (const SiteId n : ns) {
      std::vector<std::string> row{std::to_string(n)};
      for (int proto = 0; proto < 2; ++proto) {
        bench_support::ExperimentParams params;
        params.protocol = proto == 0 ? causal::ProtocolKind::kOptTrack
                                     : causal::ProtocolKind::kFullTrack;
        params.sites = n;
        params.write_rate = write_rates[wi];
        params.replication = bench_support::partial_replication_factor(n);
        bench_support::apply_quick(params, options);
        bench_support::apply_topology_options(params, options);
        const std::string label = std::string(to_string(params.protocol)) + " n=" +
                                  std::to_string(n) +
                                  " w=" + stats::Table::num(write_rates[wi], 1);
        const auto r = observability.run_cell(label, params);
        row.push_back(stats::Table::num(r.avg_overhead(MessageKind::kSM), 1));
        row.push_back(stats::Table::num(r.avg_overhead(MessageKind::kRM), 1));
        row.push_back(stats::Table::num(r.avg_overhead(MessageKind::kFM), 1));
        table2[{proto, wi, n}] = {r.avg_overhead(MessageKind::kSM),
                                  r.avg_overhead(MessageKind::kRM)};
      }
      fig.add_row(std::move(row));
    }
    figures.push_back(std::move(fig));
  }

  for (const auto& fig : figures) {
    std::cout << fig << "\n";
    if (options.csv) std::cout << "CSV:\n" << fig.to_csv() << "\n";
  }

  stats::Table t2("Table II — average SM and RM space overhead (KB)");
  t2.set_columns({"protocol", "msg", "w_rate", "n=5", "n=10", "n=20", "n=30", "n=40"});
  for (int proto = 0; proto < 2; ++proto) {
    const char* pname = proto == 0 ? "Opt-Track" : "Full-Track";
    for (const char* kind : {"SM", "RM"}) {
      for (int wi = 0; wi < 3; ++wi) {
        std::vector<std::string> row{pname, kind, stats::Table::num(write_rates[wi], 1)};
        for (const SiteId n : ns) {
          const Cell& c = table2[{proto, wi, n}];
          const double kb = (kind[0] == 'S' ? c.sm : c.rm) / 1024.0;
          row.push_back(stats::Table::num(kb, 3));
        }
        t2.add_row(std::move(row));
      }
    }
  }
  std::cout << t2;
  if (options.csv) std::cout << "\nCSV:\n" << t2.to_csv();
  return observability.finish() ? 0 : 1;
}
