// Micro-benchmarks (google-benchmark) for the hot operations behind the
// simulation: clock merges, KS-log MERGE/PURGE, envelope round-trips, and
// discrete-event throughput. These are the per-message costs that bound
// how large an n the harness can sweep.
#include <benchmark/benchmark.h>

#include <memory>

#include "causal/clocks.hpp"
#include "causal/ks_log.hpp"
#include "dsm/cluster.hpp"
#include "dsm/envelope.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "serial/buffer_pool.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace causim;

void BM_VectorClockMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::VectorClock a(n), b(n);
  for (SiteId i = 0; i < n; ++i) b[i] = i * 7 + 1;
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(5)->Arg(40)->Arg(200);

void BM_MatrixClockMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::MatrixClock a(n), b(n);
  for (SiteId j = 0; j < n; ++j) {
    for (SiteId k = 0; k < n; ++k) b.at(j, k) = j + k;
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_MatrixClockMerge)->Arg(5)->Arg(40)->Arg(200);

void BM_MatrixClockSerialize(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::MatrixClock m(n);
  for (auto _ : state) {
    serial::ByteWriter w;
    m.serialize(w);
    benchmark::DoNotOptimize(w.bytes());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(causal::MatrixClock::wire_bytes(n, serial::ClockWidth::k4Bytes)));
}
BENCHMARK(BM_MatrixClockSerialize)->Arg(5)->Arg(40);

causal::KsLog make_log(SiteId n, std::size_t entries, std::uint64_t seed) {
  sim::Pcg32 rng(seed);
  causal::KsLog log(n);
  for (std::size_t e = 0; e < entries; ++e) {
    const auto writer = static_cast<SiteId>(rng.uniform_int(0, n - 1));
    const auto clock = static_cast<WriteClock>(rng.uniform_int(1, 50));
    DestSet d(n);
    const auto count = static_cast<SiteId>(rng.uniform_int(0, n / 3));
    for (SiteId k = 0; k < count; ++k) {
      d.insert(static_cast<SiteId>(rng.uniform_int(0, n - 1)));
    }
    log.add({writer, clock}, d);
  }
  return log;
}

void BM_KsLogMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  const causal::KsLog incoming = make_log(n, 2 * n, 99);
  for (auto _ : state) {
    causal::KsLog local = make_log(n, 2 * n, 7);
    local.merge(incoming);
    benchmark::DoNotOptimize(local);
  }
}
BENCHMARK(BM_KsLogMerge)->Arg(5)->Arg(40);

void BM_KsLogPurgeAndPrune(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  for (auto _ : state) {
    causal::KsLog log = make_log(n, 2 * n, 13);
    log.prune_by_program_order();
    log.purge();
    benchmark::DoNotOptimize(log);
  }
}
BENCHMARK(BM_KsLogPurgeAndPrune)->Arg(5)->Arg(40);

void BM_KsLogSerializeRoundTrip(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  const causal::KsLog log = make_log(n, 2 * n, 21);
  for (auto _ : state) {
    serial::ByteWriter w;
    log.serialize(w);
    serial::ByteReader r(w.bytes());
    const causal::KsLog back = causal::KsLog::deserialize(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_KsLogSerializeRoundTrip)->Arg(5)->Arg(40);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value = Value{0xabcdef, 128};
  env.write = WriteId{3, 42};
  env.meta.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    dsm::Envelope::Sizes sizes;
    const serial::Bytes bytes = env.encode(serial::ClockWidth::k4Bytes, &sizes);
    const dsm::Envelope back = dsm::Envelope::decode(bytes, serial::ClockWidth::k4Bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_EnvelopeRoundTrip)->Arg(64)->Arg(6400);

// The pooled encode path used by SiteRuntime/ReliableTransport: frames are
// acquired from a serial::BufferPool and recycled after the send, so the
// steady state re-encodes into already-sized capacity instead of growing a
// fresh vector per message (test_buffer_pool pins the zero-allocation bound;
// this measures the cycle cost).
void BM_EnvelopePooledEncode(benchmark::State& state) {
  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value = Value{0xabcdef, 128};
  env.write = WriteId{3, 42};
  env.meta.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  serial::BufferPool pool;
  for (auto _ : state) {
    serial::ByteWriter w(serial::ClockWidth::k4Bytes, pool.acquire());
    env.encode_into(w);
    pool.release(w.take());
    benchmark::DoNotOptimize(pool);
  }
}
BENCHMARK(BM_EnvelopePooledEncode)->Arg(64)->Arg(6400);

// Whole-cluster DES run: 0 = tracing off, 1 = trace sink attached,
// 2 = trace sink + LogSampler (100 ms period), 3 = trace sink + the live
// telemetry layer (visibility tracker + 100 ms time-series sampler) in
// place of the LogSampler. With no sink every instrumentation point is a
// null-pointer test and no sampler events are scheduled, so Arg(0) must
// land within noise of the pre-observability baseline — this is the
// guard behind "tracing is free when disabled" (docs/OBSERVABILITY.md).
// Arg(3) vs Arg(2) is the telemetry-on/off pair for the live layer: both
// run one 100 ms sampler taking the same per-site log snapshot, so the
// delta isolates the streaming path — an O(1) ring push/pop plus a
// histogram increment per SM — and Arg(3) must not exceed Arg(2) by more
// than 5 % on this config. Arg(4) = Arg(3) plus the critical-path
// decomposition (LiveConfig::critpath): per-segment histogram folds and
// the bounded blocked-on table on top of the same tracker. Its delta over
// Arg(3) is the cost of provenance-on, pinned to <= 5 % on this config —
// the "explain every operation" lane must stay cheap enough to leave on
// in instrumented runs.
void BM_ClusterExecute(benchmark::State& state) {
  dsm::ClusterConfig config;
  config.sites = 5;
  config.variables = 40;
  config.replication = 2;
  config.record_history = false;
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 100;
  const workload::Schedule schedule = workload::generate_schedule(config.sites, wl);
  obs::RingBufferSink sink;
  obs::live::LiveConfig live_config;
  live_config.sites = config.sites;
  live_config.variables = config.variables;
  live_config.sample_interval = 100 * kMillisecond;
  live_config.max_samples = 1 << 20;  // never truncate inside the loop
  obs::live::LiveTelemetry live(live_config);  // built once, outside timing
  obs::live::LiveConfig critpath_config = live_config;
  critpath_config.critpath = true;
  obs::live::LiveTelemetry live_critpath(critpath_config);
  std::size_t ops = 0;
  for (auto _ : state) {
    sink.clear();
    config.trace_sink = state.range(0) == 0 ? nullptr : &sink;
    config.log_sample_interval = state.range(0) == 2 ? 100 * kMillisecond : 0;
    config.live = state.range(0) == 3   ? &live
                  : state.range(0) == 4 ? &live_critpath
                                        : nullptr;
    dsm::Cluster cluster(config);
    cluster.execute(schedule);
    ops += schedule.total_ops();
    benchmark::DoNotOptimize(cluster.aggregate_message_stats());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ClusterExecute)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Pooled-executor scaling curve: the same whole-cluster run over real
// threads with n sites multiplexed on W workers (0 = hardware
// concurrency). Sweeping sites x workers shows where the workers' run
// queues saturate and how the per-site serialization gates cap speed-up;
// items processed are schedule ops, so ops/s is directly comparable
// across the curve. All the work runs off the benchmark thread, so rates
// are taken over wall time, not the main thread's CPU time. Only
// execute() is timed (pool start-up, the run, drain and teardown of the
// threads); assembling and destroying the cluster is not.
void BM_ClusterExecutePooled(benchmark::State& state) {
  dsm::ClusterConfig config;
  config.sites = static_cast<SiteId>(state.range(0));
  config.variables = 40;
  config.replication = 2;
  config.record_history = false;
  config.executor = engine::ExecutorKind::kPooled;
  config.workers = static_cast<unsigned>(state.range(1));
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 40;
  const workload::Schedule schedule = workload::generate_schedule(config.sites, wl);
  dsm::ThreadCluster::Options options;
  options.time_scale = 0.0;
  options.max_wire_delay_us = 0;
  std::size_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<dsm::ThreadCluster>(config, options);
    state.ResumeTiming();
    cluster->execute(schedule);
    state.PauseTiming();
    ops += schedule.total_ops();
    benchmark::DoNotOptimize(cluster->aggregate_message_stats());
    cluster.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ClusterExecutePooled)
    ->ArgsProduct({{8, 32, 128}, {1, 4, 0 /* 0 = hardware concurrency */}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_at(i, [&fired] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorThroughput);

}  // namespace

BENCHMARK_MAIN();
