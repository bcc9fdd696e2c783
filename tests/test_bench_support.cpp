// Unit tests for the experiment harness shared by the bench binaries and
// the CLI flag parser.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/args.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"

namespace causim::bench_support {
namespace {

constexpr unsigned kAllBenchFlags = kExecutorFlags | kTopologyFlags | kArqFlags;

/// The parser core with every flag group applied; the per-bench group
/// gate has its own tests.
bool parse_all(int argc, const char** argv, BenchOptions& options, std::string& error) {
  return try_parse_bench_args(argc, const_cast<char**>(argv), options, error,
                              kAllBenchFlags);
}

TEST(BenchSupport, PartialReplicationFactorMatchesPaper) {
  // p = 0.3·n for the paper's sweep points; never below 1.
  EXPECT_EQ(partial_replication_factor(5), 2);   // 1.5 → 2
  EXPECT_EQ(partial_replication_factor(10), 3);
  EXPECT_EQ(partial_replication_factor(20), 6);
  EXPECT_EQ(partial_replication_factor(30), 9);
  EXPECT_EQ(partial_replication_factor(40), 12);
  EXPECT_EQ(partial_replication_factor(1), 1);
  EXPECT_EQ(partial_replication_factor(2), 1);
}

TEST(BenchSupport, ParseArgs) {
  const char* argv1[] = {"bench", "--quick"};
  auto o = parse_bench_args(2, const_cast<char**>(argv1));
  EXPECT_TRUE(o.quick);
  EXPECT_FALSE(o.csv);

  const char* argv2[] = {"bench", "--csv", "--quick"};
  o = parse_bench_args(3, const_cast<char**>(argv2));
  EXPECT_TRUE(o.quick);
  EXPECT_TRUE(o.csv);

  o = parse_bench_args(1, const_cast<char**>(argv1));
  EXPECT_FALSE(o.quick);
}

TEST(BenchSupport, ParseArgsAcceptsValueFlagsInBothStyles) {
  const char* argv[] = {"bench", "--trace-out=t.json", "--metrics-out", "m.csv",
                        "--report-out=r.json"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(5, argv, o, error)) << error;
  EXPECT_EQ(o.trace_out, "t.json");
  EXPECT_EQ(o.metrics_out, "m.csv");
  EXPECT_EQ(o.report_out, "r.json");
}

TEST(BenchSupport, ParseArgsRejectsUnknownFlag) {
  // A typoed flag must surface, not silently fall through to a default
  // full-length run.
  const char* argv[] = {"bench", "--qucik"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("--qucik"), std::string::npos);
}

TEST(BenchSupport, ParseArgsAcceptsArqFlagsInBothStyles) {
  const char* argv[] = {"bench", "--arq=sr", "--adaptive-rto"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(3, argv, o, error)) << error;
  EXPECT_EQ(o.arq, net::ArqMode::kSelectiveRepeat);
  EXPECT_TRUE(o.adaptive_rto);

  const char* detached[] = {"bench", "--arq", "gbn"};
  BenchOptions d;
  ASSERT_TRUE(parse_all(3, detached, d, error)) << error;
  EXPECT_EQ(d.arq, net::ArqMode::kGoBackN);
  EXPECT_FALSE(d.adaptive_rto);  // defaults stay byte-identical to go-back-N

  net::ReliableConfig rc;
  apply_arq_options(rc, o);
  EXPECT_EQ(rc.arq, net::ArqMode::kSelectiveRepeat);
  EXPECT_TRUE(rc.adaptive_rto);
}

TEST(BenchSupport, ParseArgsRejectsBadArqMode) {
  const char* argv[] = {"bench", "--arq=tcp"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("tcp"), std::string::npos);
  EXPECT_NE(error.find("gbn"), std::string::npos) << "error should name the choices";
}

TEST(BenchSupport, ParseArgsAcceptsPooledExecutorFlags) {
  const char* argv[] = {"bench", "--executor", "pooled", "--workers=4",
                        "--batch", "8"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(6, argv, o, error)) << error;
  EXPECT_EQ(o.executor, engine::ExecutorKind::kPooled);
  EXPECT_EQ(o.workers, 4);
  EXPECT_TRUE(o.workers_set);
  EXPECT_EQ(o.batch, 8);

  ExperimentParams params;
  apply_executor_options(params, o);
  EXPECT_EQ(params.executor, engine::ExecutorKind::kPooled);
  EXPECT_EQ(params.workers, 4u);
  EXPECT_TRUE(params.batch.enabled);
  EXPECT_EQ(params.batch.max_messages, 8u);
}

TEST(BenchSupport, ParseArgsPooledWithoutWorkersUsesHardwareCount) {
  const char* argv[] = {"bench", "--executor=pooled"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(2, argv, o, error)) << error;
  EXPECT_EQ(o.executor, engine::ExecutorKind::kPooled);
  EXPECT_FALSE(o.workers_set);

  ExperimentParams params;
  apply_executor_options(params, o);
  EXPECT_EQ(params.workers, 0u);  // 0 = one worker per hardware thread
  EXPECT_FALSE(params.batch.enabled);  // coalescing stays opt-in
}

TEST(BenchSupport, ParseArgsRejectsBogusExecutor) {
  const char* argv[] = {"bench", "--executor=fibers"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("fibers"), std::string::npos);
  EXPECT_NE(error.find("pooled"), std::string::npos)
      << "error should name the choices";
}

TEST(BenchSupport, ParseArgsRejectsDegenerateWorkerCounts) {
  for (const char* bad : {"--workers=0", "--workers=-1"}) {
    const char* argv[] = {"bench", "--executor=pooled", bad};
    BenchOptions o;
    std::string error;
    EXPECT_FALSE(parse_all(3, argv, o, error))
        << bad;
    EXPECT_NE(error.find(">= 1"), std::string::npos) << error;
  }
  const char* argv[] = {"bench", "--executor=pooled", "--workers=nope"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(3, argv, o, error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(BenchSupport, ParseArgsRejectsFlagsOfGroupsTheBenchDoesNotApply) {
  // A bench that does not apply a flag group refuses its flags: a flag
  // that is accepted and then ignored makes a run look like another.
  struct Case {
    std::vector<const char*> args;
    BenchFlagGroup group;
  };
  const std::vector<Case> cases = {
      {{"--executor", "pooled"}, kExecutorFlags},
      {{"--workers=2"}, kExecutorFlags},
      {{"--batch", "8"}, kExecutorFlags},
      {{"--topology", "cells=2:wan-rtt=50000"}, kTopologyFlags},
      {{"--gateway=off"}, kTopologyFlags},
      {{"--arq", "sr"}, kArqFlags},
      {{"--adaptive-rto"}, kArqFlags}};
  for (const Case& c : cases) {
    std::vector<const char*> argv = {"bench", "--quick"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    BenchOptions o;
    std::string error;
    EXPECT_FALSE(try_parse_bench_args(static_cast<int>(argv.size()),
                                      const_cast<char**>(argv.data()), o, error,
                                      kAllBenchFlags & ~c.group))
        << c.args.front();
    const std::string flag(c.args.front(), std::strcspn(c.args.front(), "="));
    EXPECT_NE(error.find(flag + " is ignored by this bench"), std::string::npos)
        << error;
    EXPECT_NE(error.find("drop the flag"), std::string::npos) << error;
  }
  // With no group applied, as for most benches, only the common flags parse.
  const char* pooled[] = {"bench", "--quick", "--executor", "pooled"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(try_parse_bench_args(4, const_cast<char**>(pooled), o, error));
}

TEST(BenchSupport, ParseArgsAcceptsEachGroupOnItsOwn) {
  const std::vector<std::pair<BenchFlagGroup, std::vector<const char*>>> lines = {
      {kExecutorFlags, {"--executor", "pooled", "--workers", "2", "--batch=8"}},
      {kTopologyFlags, {"--topology", "cells=2:wan-rtt=50000", "--gateway", "on"}},
      {kArqFlags, {"--arq=sr", "--adaptive-rto"}}};
  for (const auto& [group, args] : lines) {
    std::vector<const char*> argv = {"bench"};
    argv.insert(argv.end(), args.begin(), args.end());
    BenchOptions o;
    std::string error;
    EXPECT_TRUE(try_parse_bench_args(static_cast<int>(argv.size()),
                                     const_cast<char**>(argv.data()), o, error, group))
        << error;
  }
}

TEST(BenchSupport, ParseArgsRejectsWorkersWithPerSiteExecutor) {
  // --workers silently ignored would be worse than an error: the user asked
  // for a pool they are not getting. Flag order must not matter.
  const char* implicit[] = {"bench", "--workers", "4"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(3, implicit, o, error));
  EXPECT_NE(error.find("--executor pooled"), std::string::npos)
      << "error must say how to fix it: " << error;

  const char* explicit_per_site[] = {"bench", "--workers=4",
                                     "--executor=per-site"};
  BenchOptions o2;
  EXPECT_FALSE(
      parse_all(3, explicit_per_site, o2, error));
  EXPECT_NE(error.find("--executor pooled"), std::string::npos) << error;

  // And the reversed order: --executor pooled after --workers is fine.
  const char* ok[] = {"bench", "--workers", "4", "--executor", "pooled"};
  BenchOptions o3;
  EXPECT_TRUE(parse_all(5, ok, o3, error)) << error;
}

TEST(BenchSupport, ParseArgsRejectsDegenerateBatchThreshold) {
  const char* argv[] = {"bench", "--batch=0"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("--batch"), std::string::npos);
}

TEST(BenchSupport, ParseArgsAcceptsTopologyAndGatewayFlags) {
  const char* argv[] = {"bench", "--topology=cells=3:wan-rtt=80000:loss=0.05",
                        "--gateway", "on"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(4, argv, o, error)) << error;
  EXPECT_TRUE(o.topology_set);
  EXPECT_EQ(o.topo_cells, 3);
  EXPECT_EQ(o.topo_wan_rtt_us, 80000);
  EXPECT_DOUBLE_EQ(o.topo_wan_loss, 0.05);
  EXPECT_TRUE(o.gateway_set);
  EXPECT_TRUE(o.gateway_on);

  // loss is optional and key order inside the spec must not matter.
  const char* reordered[] = {"bench", "--topology", "wan-rtt=40000:cells=2"};
  BenchOptions o2;
  ASSERT_TRUE(parse_all(3, reordered, o2, error))
      << error;
  EXPECT_EQ(o2.topo_cells, 2);
  EXPECT_EQ(o2.topo_wan_rtt_us, 40000);
  EXPECT_DOUBLE_EQ(o2.topo_wan_loss, 0.0);
  EXPECT_FALSE(o2.gateway_set);
}

TEST(BenchSupport, ParseArgsRejectsMalformedTopologySpecs) {
  const struct {
    const char* spec;
    const char* needle;
  } cases[] = {
      {"--topology=cells=2", "needs both cells=K and wan-rtt=US"},
      {"--topology=wan-rtt=80000", "needs both cells=K and wan-rtt=US"},
      {"--topology=cells=0:wan-rtt=80000", "cells expects an integer >= 1"},
      {"--topology=cells=x:wan-rtt=80000", "cells expects an integer >= 1"},
      {"--topology=cells=2:wan-rtt=1", "round-trip time >= 2"},
      {"--topology=cells=2:wan-rtt=80000:loss=1.0", "drop rate in [0, 1)"},
      {"--topology=cells=2:wan-rtt=80000:hops=3", "has no key 'hops'"},
      {"--topology=cells", "key=value"},
  };
  for (const auto& c : cases) {
    const char* argv[] = {"bench", c.spec};
    BenchOptions o;
    std::string error;
    EXPECT_FALSE(parse_all(2, argv, o, error))
        << c.spec;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.spec << " -> " << error;
  }
}

TEST(BenchSupport, ParseArgsRejectsBogusGatewayValue) {
  const char* argv[] = {"bench", "--gateway=maybe"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("on or off"), std::string::npos);
}

TEST(BenchSupport, ParseArgsRejectsGatewayOnWithoutMultiCellTopology) {
  // Flag order must not matter: the cross-flag rule fires whether
  // --gateway comes before or after --topology, and a one-cell topology
  // is as useless to the gateway as no topology at all.
  const char* no_topo[] = {"bench", "--gateway=on"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, no_topo, o, error));
  EXPECT_NE(error.find("--topology cells=K:wan-rtt=US"), std::string::npos);

  const char* one_cell[] = {"bench", "--gateway=on",
                            "--topology=cells=1:wan-rtt=80000"};
  BenchOptions o2;
  EXPECT_FALSE(parse_all(3, one_cell, o2, error));
  EXPECT_NE(error.find("K >= 2"), std::string::npos);

  // --gateway off never needs a topology.
  const char* off[] = {"bench", "--gateway=off"};
  BenchOptions o3;
  EXPECT_TRUE(parse_all(2, off, o3, error))
      << error;
}

TEST(BenchSupport, ApplyTopologyOptionsBuildsBlocksAndWanProfile) {
  const char* argv[] = {"bench", "--topology=cells=2:wan-rtt=80000:loss=0.1",
                        "--gateway=on"};
  BenchOptions o;
  std::string error;
  ASSERT_TRUE(parse_all(3, argv, o, error)) << error;

  ExperimentParams params;
  params.sites = 8;
  apply_topology_options(params, o);
  ASSERT_TRUE(params.topology.enabled());
  EXPECT_EQ(params.topology.cell_count(), 2u);
  // Fixed one-way WAN delay of rtt/2 with the requested loss.
  EXPECT_EQ(params.topology.inter.latency_lo, 40000);
  EXPECT_EQ(params.topology.inter.latency_hi, 40000);
  EXPECT_DOUBLE_EQ(params.topology.inter.faults.drop_rate, 0.1);
  EXPECT_TRUE(params.gateway.enabled);

  // Without --topology the params stay flat (byte-identical default).
  ExperimentParams untouched;
  apply_topology_options(untouched, BenchOptions{});
  EXPECT_FALSE(untouched.topology.enabled());
  EXPECT_FALSE(untouched.gateway.enabled);
}

TEST(BenchSupport, ParseArgsRejectsPositionalArguments) {
  const char* argv[] = {"bench", "quick"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
}

TEST(BenchSupport, ParseArgsRejectsValueFlagMissingItsValue) {
  const char* argv[] = {"bench", "--trace-out"};
  BenchOptions o;
  std::string error;
  EXPECT_FALSE(parse_all(2, argv, o, error));
  EXPECT_NE(error.find("--trace-out"), std::string::npos);
}

TEST(BenchSupport, BenchUsageNamesEveryFlag) {
  const std::string usage = bench_usage("bench");
  for (const char* flag : {"--quick", "--csv", "--trace-out", "--metrics-out",
                           "--report-out", "--arq", "--adaptive-rto",
                           "--executor", "--workers", "--batch", "--topology",
                           "--gateway"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(BenchSupport, ApplyQuickShrinksRuns) {
  ExperimentParams params;
  params.seeds = {1, 2, 3};
  params.ops_per_site = 600;
  BenchOptions options;
  apply_quick(params, options);  // not quick: unchanged
  EXPECT_EQ(params.seeds.size(), 3u);
  options.quick = true;
  apply_quick(params, options);
  EXPECT_EQ(params.seeds.size(), 1u);
  EXPECT_EQ(params.ops_per_site, 300u);
}

TEST(BenchSupport, JdkLikeOptionsUseWideClocks) {
  EXPECT_EQ(jdk_like_options().clock_width, serial::ClockWidth::k8Bytes);
  // And that is the bench default.
  EXPECT_EQ(ExperimentParams{}.protocol_options.clock_width, serial::ClockWidth::k8Bytes);
}

TEST(BenchSupport, RunExperimentAggregatesSeeds) {
  ExperimentParams params;
  params.protocol = causal::ProtocolKind::kOptTrackCrp;
  params.sites = 4;
  params.write_rate = 0.5;
  params.variables = 10;
  params.ops_per_site = 60;
  params.seeds = {1, 2};
  const auto r = run_experiment(params);
  EXPECT_EQ(r.runs, 2u);
  EXPECT_GT(r.recorded_writes, 0u);
  EXPECT_GT(r.recorded_reads, 0u);
  // Full replication: per-run message count = (n-1)·w exactly, so the mean
  // equals (n-1)·(total recorded writes / runs).
  EXPECT_DOUBLE_EQ(r.mean_message_count(),
                   3.0 * static_cast<double>(r.recorded_writes) / 2.0);
  EXPECT_GT(r.mean_total_overhead_bytes(), 0.0);
  EXPECT_GT(r.log_entries.count(), 0u);
}

TEST(BenchSupport, CheckFlagRunsChecker) {
  ExperimentParams params;
  params.protocol = causal::ProtocolKind::kOptTrack;
  params.sites = 5;
  params.replication = 2;
  params.variables = 10;
  params.ops_per_site = 50;
  params.seeds = {3};
  params.check = true;
  const auto r = run_experiment(params);
  EXPECT_TRUE(r.check_ok) << (r.violations.empty() ? "" : r.violations.front());
}

TEST(Observability, RejectsUnwritableOutputPathUpFront) {
  // Regression: --trace-out into a nonexistent directory used to run the
  // whole grid and only fail (or silently lose the trace) at finish().
  // Every output flag must fail fast at construction with ok() == false.
  for (const char* flag : {"--trace-out", "--metrics-out", "--report-out",
                           "--json-out", "--timeseries-out"}) {
    const std::string arg =
        std::string(flag) + "=/nonexistent-causim-dir/out.json";
    const char* argv[] = {"bench", arg.c_str()};
    BenchOptions options;
    std::string error;
    ASSERT_TRUE(parse_all(2, argv, options, error))
        << error;
    testing::internal::CaptureStderr();
    Observability observability(options, "test");
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(observability.ok()) << flag;
    EXPECT_FALSE(observability.finish()) << flag;
    // The error is actionable: it names the flag, the path and the OS
    // reason.
    EXPECT_NE(log.find(flag), std::string::npos) << log;
    EXPECT_NE(log.find("/nonexistent-causim-dir/out.json"), std::string::npos)
        << log;
  }
}

TEST(Observability, AcceptsWritablePathsAndWritesBenchV1) {
  const std::string json_path = ::testing::TempDir() + "causim_bench_v1.json";
  BenchOptions options;
  options.json_out = json_path;
  Observability observability(options, "unit_bench");
  ASSERT_TRUE(observability.ok());

  ExperimentParams params;
  params.protocol = causal::ProtocolKind::kOptTrack;
  params.sites = 4;
  params.replication = 2;
  params.variables = 10;
  params.ops_per_site = 40;
  params.seeds = {1};
  const auto r = observability.run_cell("Opt-Track n=4", params);
  EXPECT_EQ(r.runs, 1u);
  ASSERT_TRUE(observability.finish());

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_NE(doc.find("\"schema\":\"causim.bench.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\":\"Opt-Track n=4\""), std::string::npos);
  EXPECT_NE(doc.find("\"protocol\":\"Opt-Track\""), std::string::npos);
  // --json-out attaches the live visibility tracker per cell.
  EXPECT_NE(doc.find("\"visibility_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"unmatched\":0"), std::string::npos);
  std::remove(json_path.c_str());
}

TEST(Args, ParsesValuesInBothStyles) {
  const char* argv[] = {"prog", "cmd", "--n", "20", "--wrate=0.5", "--check"};
  std::string error;
  const auto args = Args::parse(6, const_cast<char**>(argv), 2,
                                {"n", "wrate", "check"}, &error);
  ASSERT_TRUE(args.has_value()) << error;
  EXPECT_EQ(args->get_int("n", 0), 20);
  EXPECT_DOUBLE_EQ(args->get_double("wrate", 0.0), 0.5);
  EXPECT_TRUE(args->has("check"));
  EXPECT_FALSE(args->has("csv"));
  EXPECT_EQ(args->get("missing", "fallback"), "fallback");
}

TEST(Args, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "cmd", "--bogus", "1"};
  std::string error;
  const auto args = Args::parse(4, const_cast<char**>(argv), 2, {"n"}, &error);
  EXPECT_FALSE(args.has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(Args, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "cmd", "stray"};
  std::string error;
  const auto args = Args::parse(3, const_cast<char**>(argv), 2, {"n"}, &error);
  EXPECT_FALSE(args.has_value());
  EXPECT_NE(error.find("positional"), std::string::npos);
}

TEST(Args, IntListParsing) {
  const char* argv[] = {"prog", "cmd", "--values", "5,10,20"};
  std::string error;
  const auto args = Args::parse(4, const_cast<char**>(argv), 2, {"values"}, &error);
  ASSERT_TRUE(args.has_value()) << error;
  EXPECT_EQ(args->get_int_list("values", {}), (std::vector<long>{5, 10, 20}));
  EXPECT_EQ(args->get_int_list("absent", {1, 2}), (std::vector<long>{1, 2}));
}

TEST(Args, BooleanFlagBeforeAnotherFlag) {
  const char* argv[] = {"prog", "cmd", "--check", "--n", "7"};
  std::string error;
  const auto args = Args::parse(5, const_cast<char**>(argv), 2, {"check", "n"}, &error);
  ASSERT_TRUE(args.has_value()) << error;
  EXPECT_TRUE(args->has("check"));
  EXPECT_EQ(args->get_int("n", 0), 7);
}

}  // namespace
}  // namespace causim::bench_support
