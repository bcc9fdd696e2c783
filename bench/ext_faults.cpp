// Extension — protocol behaviour over an unreliable wire (causim::faults).
//
// The paper assumes reliable FIFO channels (§II-B) and never measures what
// packet loss costs a causal-consistency protocol. With the fault stack
// (FaultInjector + ReliableTransport) between the sites and the wire we
// can: drops trigger retransmission timeouts, so a lost SM stalls every
// causally dependent update until the go-back-N resend lands — activation
// latency and fetch round trips inflate with the drop rate while the
// *protocol-level* message counts stay exactly where the fault-free run
// put them (the reliability layer hides the loss; the conformance suite
// asserts count equality). Per-message meta bytes drift a little — what a
// site piggybacks depends on what it has seen, and faults reorder
// arrivals — but only through the protocol's own rules, never because the
// fault stack's frames leak into the accounting.
//
//   1. Drop-rate sweep: Opt-Track under partial replication, drop rates
//      0–50 %, reporting fault activity, wire amplification and the
//      latency inflation.
//   2. Protocol matrix at a fixed drop rate: all four protocols stay
//      causally consistent and quiesce; their relative meta-data ordering
//      is unchanged by loss.
//   3. ARQ A/B — go-back-N vs selective repeat, both with the adaptive
//      Jacobson/Karels RTO. This table *enforces* the layer's two headline
//      claims (exit 1 on regression): zero spurious retransmits at drop
//      rate 0, and selective-repeat wire amplification strictly below
//      go-back-N once the drop rate reaches 30 %.
//
// `--arq gbn|sr` and `--adaptive-rto` select the reliability-layer policy
// for tables 1–2 (table 3 always runs both modes). Fault activity lands in
// faults.* / net.reliable.* metrics and the report's "faults" section —
// never in the paper's msg.* numbers.
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace causim;
  const auto options =
      bench_support::parse_bench_args(argc, argv, bench_support::kArqFlags);
  bench_support::Observability observability(options, "ext_faults");
  if (!observability.ok()) return 1;

  const double drop_rates[] = {0.0, 0.05, 0.10, 0.20, 0.30, 0.50};

  stats::Table sweep(
      "1. Drop-rate sweep — Opt-Track, n = 10, p = 3, w_rate = 0.5: the "
      "reliability layer absorbs loss; latency pays for it");
  sweep.set_columns({"drop %", "drops", "retransmits", "wire frames", "amplif",
                     "apply delay ms", "fetch ms", "meta B/msg"});
  for (const double rate : drop_rates) {
    bench_support::ExperimentParams params;
    params.protocol = causal::ProtocolKind::kOptTrack;
    params.sites = 10;
    params.replication = bench_support::partial_replication_factor(10);
    params.write_rate = 0.5;
    params.ops_per_site = 300;
    bench_support::apply_quick(params, options);
    params.fault_plan = faults::FaultPlan::uniform_drop(rate);
    params.reliable_channel = true;  // rate 0 measures the layer's floor
    bench_support::apply_arq_options(params.reliable_config, options);
    const std::string label = "sweep " + std::string(to_string(params.protocol)) +
                              " drop=" + stats::Table::num(rate, 2);
    const auto r = observability.run_cell(label, params);
    const double amplif =
        r.reliable_packets == 0
            ? 0.0
            : static_cast<double>(r.reliable_frames) /
                  static_cast<double>(r.reliable_packets);
    const double meta_per_msg =
        r.stats.total().count == 0
            ? 0.0
            : static_cast<double>(r.stats.total().meta_bytes) /
                  static_cast<double>(r.stats.total().count);
    sweep.add_row({stats::Table::num(rate * 100.0, 0),
                   stats::Table::integer(r.drops),
                   stats::Table::integer(r.retransmits),
                   stats::Table::integer(r.reliable_frames),
                   stats::Table::num(amplif, 2),
                   stats::Table::num(r.apply_delay_us.mean() / 1000.0, 1),
                   stats::Table::num(r.fetch_latency_us.mean() / 1000.0, 1),
                   stats::Table::num(meta_per_msg, 1)});
  }
  std::cout << sweep << "\n";
  if (options.csv) std::cout << "CSV:\n" << sweep.to_csv() << "\n";

  stats::Table matrix(
      "2. Protocol matrix at 20 % drop — every protocol stays causally "
      "consistent; relative meta ordering survives loss");
  matrix.set_columns({"protocol", "p", "causal", "drops", "retransmits",
                      "msgs", "meta B/msg"});
  const causal::ProtocolKind protocols[] = {
      causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP};
  for (const causal::ProtocolKind protocol : protocols) {
    bench_support::ExperimentParams params;
    params.protocol = protocol;
    params.sites = 8;
    params.replication = causal::requires_full_replication(protocol)
                             ? 0
                             : bench_support::partial_replication_factor(8);
    params.write_rate = 0.5;
    params.ops_per_site = options.quick ? 100 : 200;
    params.seeds = options.quick ? std::vector<std::uint64_t>{1}
                                 : std::vector<std::uint64_t>{1, 2, 3};
    params.fault_plan = faults::FaultPlan::uniform_drop(0.2);
    bench_support::apply_arq_options(params.reliable_config, options);
    params.check = true;
    const std::string label =
        "matrix " + std::string(to_string(protocol)) + " drop=0.2";
    const auto r = observability.run_cell(label, params);
    const double meta_per_msg =
        r.stats.total().count == 0
            ? 0.0
            : static_cast<double>(r.stats.total().meta_bytes) /
                  static_cast<double>(r.stats.total().count);
    matrix.add_row({to_string(protocol),
                    std::to_string(params.replication == 0
                                       ? params.sites
                                       : params.replication),
                    r.check_ok ? "ok" : "VIOLATION",
                    stats::Table::integer(r.drops),
                    stats::Table::integer(r.retransmits),
                    stats::Table::integer(r.stats.total().count),
                    stats::Table::num(meta_per_msg, 1)});
    if (!r.check_ok) {
      std::cerr << "causal violation under " << to_string(protocol) << ": "
                << r.violations.front() << "\n";
      return 1;
    }
  }
  std::cout << matrix << "\n";
  if (options.csv) std::cout << "CSV:\n" << matrix.to_csv() << "\n";

  stats::Table ab(
      "3. ARQ A/B with adaptive RTO — Opt-Track, n = 10, p = 3: selective "
      "repeat resends only what is missing; adaptation kills the drop-0 "
      "spurious-retransmit floor");
  ab.set_columns({"drop %", "arq", "drops", "retransmits", "wire frames",
                  "amplif", "apply delay ms", "rtt samples"});
  bool ab_ok = true;
  const double ab_rates[] = {0.0, 0.30, 0.50};
  for (const double rate : ab_rates) {
    std::uint64_t frames_by_mode[2] = {0, 0};
    for (const net::ArqMode mode :
         {net::ArqMode::kGoBackN, net::ArqMode::kSelectiveRepeat}) {
      bench_support::ExperimentParams params;
      params.protocol = causal::ProtocolKind::kOptTrack;
      params.sites = 10;
      params.replication = bench_support::partial_replication_factor(10);
      params.write_rate = 0.5;
      params.ops_per_site = 300;
      bench_support::apply_quick(params, options);
      params.fault_plan = faults::FaultPlan::uniform_drop(rate);
      params.reliable_channel = true;
      params.reliable_config.arq = mode;
      params.reliable_config.adaptive_rto = true;
      const std::string label = "ab " + std::string(to_string(mode)) +
                                " drop=" + stats::Table::num(rate, 2);
      const auto r = observability.run_cell(label, params);
      frames_by_mode[mode == net::ArqMode::kSelectiveRepeat ? 1 : 0] =
          r.reliable_frames;
      const double amplif =
          r.reliable_packets == 0
              ? 0.0
              : static_cast<double>(r.reliable_frames) /
                    static_cast<double>(r.reliable_packets);
      ab.add_row({stats::Table::num(rate * 100.0, 0), to_string(mode),
                  stats::Table::integer(r.drops),
                  stats::Table::integer(r.retransmits),
                  stats::Table::integer(r.reliable_frames),
                  stats::Table::num(amplif, 2),
                  stats::Table::num(r.apply_delay_us.mean() / 1000.0, 1),
                  stats::Table::integer(r.rtt_samples)});
      if (rate == 0.0 && r.retransmits != 0) {
        std::cerr << "FAIL: " << r.retransmits << " spurious retransmits at "
                  << "drop rate 0 under " << to_string(mode)
                  << " with adaptive RTO (expected 0)\n";
        ab_ok = false;
      }
    }
    if (rate >= 0.30 && frames_by_mode[1] >= frames_by_mode[0]) {
      std::cerr << "FAIL: selective-repeat wire frames (" << frames_by_mode[1]
                << ") not strictly below go-back-N (" << frames_by_mode[0]
                << ") at drop rate " << rate << "\n";
      ab_ok = false;
    }
  }
  std::cout << ab << "\n";
  if (options.csv) std::cout << "CSV:\n" << ab.to_csv() << "\n";
  if (!ab_ok) return 1;

  return observability.finish() ? 0 : 1;
}
