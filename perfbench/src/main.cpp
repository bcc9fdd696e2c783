// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 repeats untraced rounds of the workload for S seconds and
// prints the end-to-end metrics. --trace 1 spends half the budget on
// untraced rounds and half on traced rounds, and prints the per-layer
// metrics. Either way one more, smaller round records the execution
// history for the causal checker, every round's outputs are checked, the
// metrics come from the rounds the host disturbed least (aggregate_quiet),
// and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "kv/key_map.hpp"
#include "measure.hpp"
#include "selftest.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Hard stop well inside the 180 s a run may take: a wedged round (an op
/// that never completes) must fail the run, not hang it.
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;
};

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      const long v = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || v < 1 || v > 120) return false;
      a.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// What the selected rounds of one phase (untraced or traced) add up to.
struct Aggregate {
  std::size_t rounds_run = 0;
  std::size_t rounds_used = 0;
  double steal_share = 0.0;  // median over every round of the phase
  std::vector<double> setup_s, gen_s, ops_per_s, cpu_us_per_op, drain_s;
  std::vector<double> hook_share, receipt_share, log_entries, log_bytes;
  // Exact per-round quantiles; the run reports their median over rounds.
  std::vector<double> get_p50, get_p99, put_p50, put_p99;
  std::size_t min_gets = 0, min_puts = 0;  // fewest samples behind one of them
  std::size_t dispatch_threads = 0;
  Samples get_call_us, put_call_us, fetch_wait_us, requeue_us;
  Samples visibility_us, dep_wait_us, transit_us;
  std::uint64_t ops = 0, recorded_ops = 0, packets = 0;
  std::uint64_t msgs = 0, meta_bytes = 0, sm = 0, sm_meta_bytes = 0;
  std::uint64_t gets = 0, remote_gets = 0, retries = 0, stale = 0;
  std::uint64_t activations = 0, buffered_activations = 0, merges = 0, prunes = 0;

  void absorb(const RoundResult& r) {
    setup_s.push_back(r.setup_s);
    gen_s.push_back(r.gen_s);
    ops_per_s.push_back(r.ops_per_s);
    cpu_us_per_op.push_back(r.cpu_us_per_op);
    drain_s.push_back(r.drain_s);
    hook_share.push_back(r.hook_cpu_share);
    receipt_share.push_back(r.receipt_cpu_share);
    log_entries.push_back(r.log_entries_mean);
    log_bytes.push_back(r.log_bytes_mean);
    dispatch_threads = std::max(dispatch_threads, r.dispatch_threads);
    get_p50.push_back(r.get_us.quantile(0.50));
    get_p99.push_back(r.get_us.quantile(0.99));
    put_p50.push_back(r.put_us.quantile(0.50));
    put_p99.push_back(r.put_us.quantile(0.99));
    min_gets = get_p50.size() == 1 ? r.get_us.count() : std::min(min_gets, r.get_us.count());
    min_puts = put_p50.size() == 1 ? r.put_us.count() : std::min(min_puts, r.put_us.count());
    get_call_us.append(r.get_call_us);
    put_call_us.append(r.put_call_us);
    fetch_wait_us.append(r.fetch_wait_us);
    requeue_us.append(r.requeue_us);
    visibility_us.append(r.trace.visibility_us);
    dep_wait_us.append(r.trace.dep_wait_us);
    transit_us.append(r.trace.transit_us);
    ops += r.ops;
    recorded_ops += r.recorded_ops;
    packets += r.packets;
    const causim::stats::SizeBreakdown total = r.msgs.total();
    msgs += total.count;
    meta_bytes += total.meta_bytes;
    sm += r.msgs.of(causim::MessageKind::kSM).count;
    sm_meta_bytes += r.msgs.of(causim::MessageKind::kSM).meta_bytes;
    gets += r.gets;
    remote_gets += r.remote_gets;
    retries += r.retries;
    stale += r.stale;
    activations += r.trace.activations;
    buffered_activations += r.trace.buffered_activations;
    merges += r.trace.merges;
    prunes += r.trace.prunes;
  }
};

/// Host interference comes in episodes: while the hypervisor steals vCPU
/// time, wake-ups arrive milliseconds late and throughput drops by up to
/// half, on any code. A round's steal share is read from /proc/stat, which
/// the benchmarked code does not influence. The metrics come from the
/// rounds with at most kQuietSteal steal, or from the quietest third of the
/// rounds (at least one) when fewer rounds were that quiet. Every round is
/// still checked.
constexpr double kQuietSteal = 0.002;

Aggregate aggregate_quiet(const std::vector<RoundResult>& rounds) {
  std::vector<const RoundResult*> order;
  std::vector<double> steal;
  std::size_t quiet = 0;
  for (const RoundResult& r : rounds) {
    order.push_back(&r);
    steal.push_back(r.steal_share);
    if (r.steal_share <= kQuietSteal) ++quiet;
  }
  std::stable_sort(order.begin(), order.end(), [](const RoundResult* a, const RoundResult* b) {
    return a->steal_share < b->steal_share;
  });
  Aggregate agg;
  agg.rounds_run = rounds.size();
  agg.rounds_used = std::max({quiet, (rounds.size() + 2) / 3, std::size_t{1}});
  agg.steal_share = median(steal);
  for (std::size_t i = 0; i < agg.rounds_used && i < order.size(); ++i) agg.absorb(*order[i]);
  return agg;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and supported percentile, for the table
};

std::string sample_note(const Samples& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%zu, supports up to p%.4g", s.count(),
                s.highest_supported_percentile());
  return buf;
}

std::string rounds_note(const std::vector<double>& v) {
  return "median of " + std::to_string(v.size()) + " rounds";
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}

  /// Repeats rounds until `seconds` have elapsed and at least
  /// `min_rounds` ran. Returns the process's peak RSS (MiB) as of the end
  /// of the first round: every round does the same amount of work, and
  /// later readings would also count the samples kept from earlier rounds.
  double measure(RoundMode mode, double seconds, int min_rounds,
                 std::vector<RoundResult>& rounds) {
    const std::int64_t start = now_ns();
    double first_round_rss = 0.0;
    for (int n = 0;; ++n) {
      if (n >= min_rounds && static_cast<double>(now_ns() - start) / 1e9 >= seconds) break;
      const std::size_t index = rounds_started_++;
      RoundResult r = run_round(spec_, round_seed(index), mode);
      if (n == 0) first_round_rss = peak_rss_mb();
      std::fprintf(stderr,
                   "perfbench: %s round %d: %.6g ops/s, get p50 %.4g p99 %.4g us, "
                   "put p99 %.4g us, %.4g us CPU/op, steal %.4f\n",
                   mode == RoundMode::kTraced ? "traced" : "untraced", n, r.ops_per_s,
                   r.get_us.quantile(0.5), r.get_us.quantile(0.99), r.put_us.quantile(0.99),
                   r.cpu_us_per_op, r.steal_share);
      check_repeat(index, r);
      account(r);
      // Only the last traced round's events are written out.
      if (!rounds.empty()) rounds.back().events = {};
      rounds.push_back(std::move(r));
    }
    return first_round_rss;
  }

  void history_round() { account(run_round(spec_, seed_, RoundMode::kHistory)); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  /// Rounds 0 and 1 use the run's seed; later rounds draw fresh inputs
  /// from seeds derived from it, so one run covers many workload draws.
  std::uint64_t round_seed(std::size_t index) const {
    if (index < 2) return seed_;
    return causim::kv::KeyMap::mix(causim::kv::KeyMap::mix(seed_) + index);
  }

  /// Round 1 repeats round 0's seed: it must generate identical inputs,
  /// and on the DES identical per-kind counts and bytes.
  void check_repeat(std::size_t index, RoundResult& r) {
    if (index == 0) {
      first_fingerprint_ = r.input_fingerprint;
      first_msgs_ = r.msgs;
      return;
    }
    if (index != 1) return;
    if (r.input_fingerprint != first_fingerprint_) {
      r.fail_round("the same seed generated different inputs");
    }
    if (spec_.substrate != Substrate::kDes) return;
    for (const causim::MessageKind k : causim::kAllMessageKinds) {
      const auto& a = first_msgs_.of(k);
      const auto& b = r.msgs.of(k);
      if (a.count != b.count || a.meta_bytes != b.meta_bytes ||
          a.header_bytes != b.header_bytes || a.payload_bytes != b.payload_bytes) {
        r.fail_round(std::string("DES not deterministic: same-seed rounds differ in ") +
                     causim::to_string(k) + " counts or bytes");
      }
    }
  }

  void account(const RoundResult& r) {
    attempted_ += r.ops;
    failed_ += r.round_failed ? r.ops : std::min<std::uint64_t>(r.failed_ops, r.ops);
    failures_.insert(failures_.end(), r.failures.begin(), r.failures.end());
  }

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  std::size_t rounds_started_ = 0;
  std::uint64_t first_fingerprint_ = 0;
  causim::stats::MessageStats first_msgs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

std::vector<Metric> end_to_end(const Aggregate& p, double rss_mb, std::uint64_t attempted,
                               std::uint64_t failed) {
  const double ops = static_cast<double>(p.recorded_ops);
  const auto latency = [&p](const char* name, const std::vector<double>& per_round,
                            std::size_t min_samples) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "median over %zu rounds of the exact per-round quantile; >= %zu samples "
                  "per round, supporting up to p%.4g",
                  per_round.size(), min_samples,
                  min_samples > 10 ? 100.0 * static_cast<double>(min_samples - 10) /
                                         static_cast<double>(min_samples)
                                   : 0.0);
    return Metric{name, median(per_round), "us", note};
  };
  return {
      {"setup_s", median(p.setup_s), "s", rounds_note(p.setup_s)},
      {"ops_per_s", median(p.ops_per_s), "1/s", rounds_note(p.ops_per_s)},
      latency("get_p50_us", p.get_p50, p.min_gets),
      latency("get_p99_us", p.get_p99, p.min_gets),
      latency("put_p50_us", p.put_p50, p.min_puts),
      latency("put_p99_us", p.put_p99, p.min_puts),
      {"cpu_us_per_op", median(p.cpu_us_per_op), "us", rounds_note(p.cpu_us_per_op)},
      {"peak_rss_mb", rss_mb, "MiB", "process peak through the first round"},
      {"msgs_per_op", ratio(static_cast<double>(p.msgs), ops), "count",
       "n=" + std::to_string(p.recorded_ops) + " recorded ops"},
      {"meta_bytes_per_op", ratio(static_cast<double>(p.meta_bytes), ops), "bytes",
       "n=" + std::to_string(p.recorded_ops) + " recorded ops"},
      {"ok_op_ratio",
       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio",
       "n=" + std::to_string(attempted) + " attempted ops"},
  };
}

std::vector<Metric> per_layer(const Aggregate& u, const Aggregate& t, bool des) {
  const double ops = static_cast<double>(u.ops);
  const double traced_ops = static_cast<double>(t.ops);
  const auto q = [](const Samples& s, double p, const char* name, const char* unit) {
    return Metric{name, s.quantile(p), unit, sample_note(s)};
  };
  // Metrics a workload does not exercise read 0: there is no kv layer on
  // the DES, and SiteRuntime::write is timed on its own only there.
  const bool kv = !des;
  const Samples none;
  const Samples& put_call = kv ? u.put_call_us : none;
  const Samples& get_call = kv ? u.get_call_us : none;
  return {
      {"workload.gen_s", median(u.gen_s), "s", rounds_note(u.gen_s)},
      q(u.requeue_us, 0.50, "engine.requeue_wait_us.p50", "us"),
      q(u.requeue_us, 0.99, "engine.requeue_wait_us.p99", "us"),
      {"engine.cpu_share", median(u.hook_share), "ratio", rounds_note(u.hook_share)},
      {"engine.drain_s", median(u.drain_s), "s", rounds_note(u.drain_s)},
      {"engine.dispatch_threads", static_cast<double>(u.dispatch_threads), "count",
       "max over rounds"},
      q(put_call, 0.50, "kv.put_call_us.p50", "us"),
      q(put_call, 0.99, "kv.put_call_us.p99", "us"),
      q(get_call, 0.50, "kv.get_call_us.p50", "us"),
      {"kv.retries_per_get", kv ? ratio(u.retries, u.gets) : 0.0, "ratio",
       "n=" + std::to_string(u.gets) + " gets"},
      {"kv.stale_per_get", kv ? ratio(u.stale, u.gets) : 0.0, "ratio",
       "n=" + std::to_string(u.gets) + " gets"},
      q(u.fetch_wait_us, 0.50, "dsm.fetch_wait_us.p50", "us"),
      q(u.fetch_wait_us, 0.99, "dsm.fetch_wait_us.p99", "us"),
      {"dsm.remote_get_share", ratio(u.remote_gets, u.gets), "ratio",
       "n=" + std::to_string(u.gets) + " gets"},
      {"dsm.write_call_us.mean", des ? u.put_call_us.mean() : 0.0, "us",
       sample_note(des ? u.put_call_us : none)},
      {"dsm.buffered_share", ratio(t.buffered_activations, t.activations), "ratio",
       "traced, n=" + std::to_string(t.activations) + " activations"},
      q(t.dep_wait_us, 0.99, "dsm.dep_wait_us.p99", "us"),
      q(t.visibility_us, 0.50, "dsm.visibility_us.p50", "us"),
      q(t.visibility_us, 0.99, "dsm.visibility_us.p99", "us"),
      {"causal.log_entries.mean", median(u.log_entries), "count",
       rounds_note(u.log_entries)},
      {"causal.log_bytes.mean", median(u.log_bytes), "bytes", rounds_note(u.log_bytes)},
      {"causal.meta_bytes_per_sm", ratio(u.sm_meta_bytes, u.sm), "bytes",
       "n=" + std::to_string(u.sm) + " SMs"},
      {"causal.merges_per_op", ratio(t.merges, traced_ops), "count",
       "traced, n=" + std::to_string(t.ops) + " ops"},
      {"causal.prunes_per_op", ratio(t.prunes, traced_ops), "count",
       "traced, n=" + std::to_string(t.ops) + " ops"},
      q(t.transit_us, 0.50, "net.transit_us.p50", "us"),
      q(t.transit_us, 0.99, "net.transit_us.p99", "us"),
      {"net.packets_per_op", ratio(u.packets, ops), "count",
       "n=" + std::to_string(u.ops) + " ops"},
      {"net.receipt_cpu_share", median(u.receipt_share), "ratio",
       rounds_note(u.receipt_share)},
      {"bench.trace_overhead", ratio(median(t.ops_per_s), median(u.ops_per_s)), "ratio",
       "traced / untraced ops_per_s"},
      {"bench.host_steal_share", u.steal_share, "ratio",
       "median over all " + std::to_string(u.rounds_run) + " untraced rounds"},
  };
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string selection_note(const Aggregate& a) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%zu of %zu rounds used (median host steal %.4f)",
                a.rounds_used, a.rounds_run, a.steal_share);
  return buf;
}

void print_result(const std::string& heading, const std::vector<Metric>& metrics,
                  bool correct, std::uint64_t attempted, std::uint64_t failed) {
  std::printf("perfbench %s\n", heading.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    usage();
    return 2;
  }
  alarm(kWatchdogSeconds);  // default SIGALRM action terminates the process

  Runner runner(*spec, args.seed);
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::vector<Metric> metrics;
  std::string heading = spec->name + ": ";
  if (args.trace == 0) {
    const double rss = runner.measure(RoundMode::kUntraced, args.seconds, 3, untraced);
    runner.history_round();
    const Aggregate u = aggregate_quiet(untraced);
    heading += selection_note(u);
    metrics = end_to_end(u, rss, runner.attempted(), runner.failed());
  } else {
    runner.measure(RoundMode::kUntraced, args.seconds / 2.0, 2, untraced);
    runner.measure(RoundMode::kTraced, args.seconds / 2.0, 2, traced);
    runner.history_round();
    const Aggregate u = aggregate_quiet(untraced);
    const Aggregate t = aggregate_quiet(traced);
    heading += "untraced " + selection_note(u) + "; traced " + selection_note(t);
    metrics = per_layer(u, t, spec->substrate == Substrate::kDes);
    if (!args.trace_out.empty() && !write_events(args.trace_out, traced.back().events)) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
      return 1;
    }
  }
  for (const std::string& f : runner.failures()) {
    std::cerr << "perfbench: output check failed: " << f << "\n";
  }
  const bool correct = runner.failures().empty();
  print_result(heading, metrics, correct, runner.attempted(), runner.failed());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    perfbench::usage();
    return 2;
  }
  const std::vector<std::string> problems = perfbench::run_selftest();
  for (const std::string& p : problems) std::cerr << "perfbench: self-test failed: " << p << "\n";
  if (!problems.empty()) return 1;
  return perfbench::run(args);
}
