// Integration tests for the real-thread transport path: the same schedules
// must drain, verify causally, and produce the message counts the DES run
// produces (counts are schedule+placement determined; interleavings only
// affect meta-data contents).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "workload/schedule.hpp"

namespace causim::dsm {
namespace {

ClusterConfig config_for(causal::ProtocolKind kind, SiteId n, std::uint64_t seed) {
  ClusterConfig c;
  c.sites = n;
  c.variables = 12;
  c.replication = causal::requires_full_replication(kind)
                      ? 0
                      : bench_support::partial_replication_factor(n);
  c.protocol = kind;
  c.seed = seed;
  return c;
}

workload::Schedule schedule_for(SiteId n, std::uint64_t seed) {
  workload::WorkloadParams params;
  params.variables = 12;
  params.write_rate = 0.5;
  params.ops_per_site = 60;
  params.seed = seed;
  return workload::generate_schedule(n, params);
}

class ThreadClusterAllProtocols
    : public ::testing::TestWithParam<causal::ProtocolKind> {};

TEST_P(ThreadClusterAllProtocols, DrainsAndVerifies) {
  const auto kind = GetParam();
  const SiteId n = 5;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 300;  // force real reordering
  ThreadCluster cluster(config_for(kind, n, 21), options);
  cluster.execute(schedule_for(n, 21));
  const auto result = cluster.check();
  EXPECT_TRUE(result.ok()) << to_string(kind) << ": "
                           << (result.violations.empty() ? ""
                                                         : result.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ThreadClusterAllProtocols,
    ::testing::Values(causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ThreadCluster, MessageCountsMatchDiscreteEventRun) {
  const SiteId n = 6;
  const auto schedule = schedule_for(n, 33);

  Cluster des(config_for(causal::ProtocolKind::kOptTrack, n, 33));
  des.execute(schedule);

  ThreadCluster threads(config_for(causal::ProtocolKind::kOptTrack, n, 33));
  threads.execute(schedule);

  const auto a = des.aggregate_message_stats();
  const auto b = threads.aggregate_message_stats();
  EXPECT_EQ(a.of(MessageKind::kSM).count, b.of(MessageKind::kSM).count);
  EXPECT_EQ(a.of(MessageKind::kFM).count, b.of(MessageKind::kFM).count);
  EXPECT_EQ(a.of(MessageKind::kRM).count, b.of(MessageKind::kRM).count);
  // Payload bytes are schedule-determined too.
  EXPECT_EQ(a.total().payload_bytes, b.total().payload_bytes);
}

TEST(ThreadCluster, ScaledGapsStillComplete) {
  // Each site sleeps its scaled schedule gaps before every op, so a run
  // can finish no sooner than the longest per-site sum of those sleeps —
  // on one worker per site and on a single worker serving every site.
  const SiteId n = 3;
  constexpr double kScale = 1e-3;  // ~1 s mean gap → ~1 ms sleep per op
  const auto schedule = schedule_for(n, 8);
  std::int64_t floor_us = 0;
  for (const auto& ops : schedule.per_site) {
    SimTime prev = 0;
    std::int64_t sum_us = 0;
    for (const workload::Op& op : ops) {
      sum_us += static_cast<std::int64_t>(static_cast<double>(op.at - prev) * kScale);
      prev = op.at;
    }
    floor_us = std::max(floor_us, sum_us);
  }
  ASSERT_GT(floor_us, 10'000);  // far above an unpaced run of this schedule

  for (const auto executor : {engine::ExecutorKind::kPerSite, engine::ExecutorKind::kPooled}) {
    ClusterConfig config = config_for(causal::ProtocolKind::kOptTrackCrp, n, 8);
    config.executor = executor;
    if (executor == engine::ExecutorKind::kPooled) config.workers = 1;
    ThreadCluster::Options options;
    options.time_scale = kScale;
    ThreadCluster cluster(config, options);
    const auto start = std::chrono::steady_clock::now();
    cluster.execute(schedule);
    const auto took_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    EXPECT_GE(took_us, floor_us) << engine::to_string(executor);
    EXPECT_TRUE(cluster.check().ok()) << engine::to_string(executor);
  }
}

TEST(ThreadCluster, FixedSizeMetaMatchesAcrossTransportsExactly) {
  // Full-Track's piggyback is always the n×n matrix and optP's always the
  // n-vector — interleaving-independent — so DES and thread runs must
  // agree on meta BYTES to the byte, not just on counts.
  for (const auto kind :
       {causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptP}) {
    const SiteId n = 5;
    const auto schedule = schedule_for(n, 55);
    Cluster des(config_for(kind, n, 55));
    des.execute(schedule);
    ThreadCluster threads(config_for(kind, n, 55));
    threads.execute(schedule);
    EXPECT_EQ(des.aggregate_message_stats().total().meta_bytes,
              threads.aggregate_message_stats().total().meta_bytes)
        << to_string(kind);
    EXPECT_EQ(des.aggregate_message_stats().total().header_bytes,
              threads.aggregate_message_stats().total().header_bytes)
        << to_string(kind);
  }
}

TEST(ThreadCluster, GuardedFetchStaysFreshUnderRealConcurrency) {
  const SiteId n = 5;
  ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, 44);
  config.causal_fetch = true;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 400;
  ThreadCluster cluster(config, options);
  cluster.execute(schedule_for(n, 44));
  checker::CheckOptions strict;
  strict.strict_read_freshness = true;
  const auto result = cluster.check(strict);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? ""
                                                         : result.violations.front());
  EXPECT_EQ(result.stale_reads, 0u);
}

TEST(ThreadCluster, LogInstrumentationAggregates) {
  const SiteId n = 4;
  ThreadCluster cluster(config_for(causal::ProtocolKind::kOptTrack, n, 45));
  cluster.execute(schedule_for(n, 45));
  EXPECT_GT(cluster.aggregate_log_entries().count(), 0u);
  EXPECT_GT(cluster.aggregate_log_bytes().mean(), 0.0);
}

TEST(ThreadCluster, RepeatedRunsAllVerify) {
  // Thread interleavings differ run to run; causal consistency must hold
  // in every one of them.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    ThreadCluster cluster(config_for(causal::ProtocolKind::kOptTrack, 4, seed));
    cluster.execute(schedule_for(4, seed));
    const auto result = cluster.check();
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << (result.violations.empty() ? ""
                                                           : result.violations.front());
  }
}

}  // namespace
}  // namespace causim::dsm
