#include "kv/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "common/panic.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/live/live_telemetry.hpp"
#include "sim/simulator.hpp"

namespace causim::kv {

namespace {

/// JSON-safe number rendering, matching obs::analysis / bench_support:
/// integral values print without a fraction, everything else with
/// round-trip precision.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Per-site measurement state. Sites are serialized on every substrate
/// (the blocking-op contract), but completions fire on whichever thread
/// delivered the RM, so the histogram updates take a mutex.
struct SiteLane {
  std::mutex mutex;
  std::size_t cursor = 0;
  stats::Histogram get_h = stats::Histogram::log_scale(1.0, 1e8, 16);
  stats::Histogram put_h = stats::Histogram::log_scale(1.0, 1e8, 16);
  double first_done_us = std::numeric_limits<double>::infinity();
  double last_done_us = -std::numeric_limits<double>::infinity();
  bool any_recorded = false;
};

}  // namespace

const char* to_string(Substrate substrate) {
  switch (substrate) {
    case Substrate::kSim: return "sim";
    case Substrate::kThread: return "thread";
    case Substrate::kPooled: return "pooled";
  }
  return "??";
}

LatencyDigest digest(const stats::Histogram& h) {
  LatencyDigest d;
  d.count = h.count();
  d.mean_us = h.mean();
  d.max_us = h.max();
  d.p50_us = h.p50();
  d.p90_us = h.p90();
  d.p99_us = h.p99();
  d.p999_us = h.p999();
  return d;
}

ServiceResult run_service(const ServiceParams& params) {
  CAUSIM_CHECK(params.engine.variables == params.store.map.variables(),
               "KeyMap spans " << params.store.map.variables()
                               << " variables, engine config has "
                               << params.engine.variables);

  const KeyMap& map = params.store.map;
  const workload::OpenLoopWorkload wl = workload::generate_open_loop(
      params.engine.sites, params.workload,
      [&map](std::uint64_t key) { return map.var_of(key); });

  engine::EngineConfig config = params.engine;
  config.seed = params.workload.seed;
  config.record_history = params.check;
  config.executor = params.substrate == Substrate::kPooled
                        ? engine::ExecutorKind::kPooled
                        : engine::ExecutorKind::kPerSite;
  config.workers = params.substrate == Substrate::kPooled ? params.workers : 0;
  if (config.live != nullptr) config.live->begin_run(config.seed);

  ServiceResult result;
  result.ops = wl.total_ops();
  result.recorded_writes = wl.schedule.recorded_writes();
  result.recorded_reads = wl.schedule.recorded_reads();
  result.recorded_ops = result.recorded_writes + result.recorded_reads;

  std::vector<std::unique_ptr<SiteLane>> lanes;
  lanes.reserve(params.engine.sites);
  for (SiteId s = 0; s < params.engine.sites; ++s) {
    lanes.push_back(std::make_unique<SiteLane>());
  }

  // One runner serves all three substrates; `done_now_us` supplies the
  // completion clock (simulated on kSim, steady wall otherwise) and
  // `sim_arrivals` selects the latency origin (the schedule's arrival
  // time on kSim — true open-loop latency including queueing — or the
  // dispatch instant on the thread lanes, where arrivals are not paced).
  const auto run = [&](auto& cluster, std::function<double()> done_now_us,
                       bool sim_arrivals) {
    Store store(cluster.stack(), params.store);
    std::vector<std::vector<Session*>> sessions(params.engine.sites);
    for (SiteId s = 0; s < params.engine.sites; ++s) {
      for (std::uint32_t c = 0; c < params.workload.sessions_per_site; ++c) {
        sessions[s].push_back(&store.open_session(s));
      }
    }

    cluster.driver().set_dispatch_hook([&, done_now_us, sim_arrivals](
                                           SiteId s, const workload::Op& op,
                                           std::function<void()> done) {
      SiteLane& lane = *lanes[s];
      std::size_t idx;
      {
        std::lock_guard lock(lane.mutex);
        idx = lane.cursor++;
      }
      const workload::KeyOp& ko = wl.per_site[s][idx];
      Session& session = *sessions[s][ko.session];
      const bool is_put = op.kind == workload::Op::Kind::kWrite;
      const double start_us =
          sim_arrivals ? static_cast<double>(op.at) : done_now_us();
      auto complete = [&lane, done_now_us, record = op.record, is_put, start_us,
                       done = std::move(done)]() {
        if (record) {
          const double now_us = done_now_us();
          const double latency = std::max(0.0, now_us - start_us);
          std::lock_guard lock(lane.mutex);
          (is_put ? lane.put_h : lane.get_h).record(latency);
          lane.first_done_us = std::min(lane.first_done_us, now_us);
          lane.last_done_us = std::max(lane.last_done_us, now_us);
          lane.any_recorded = true;
        }
        done();
      };
      if (is_put) {
        store.put(session, ko.key, op.payload_bytes, op.record,
                  [&complete](WriteId) { complete(); });
      } else {
        store.get(session, ko.key, op.record,
                  [complete = std::move(complete)](const GetResult&) { complete(); });
      }
    });

    cluster.execute(wl.schedule);

    engine::NodeStack& stack = cluster.stack();
    result.stats += stack.aggregate_message_stats();
    result.log_entries += stack.aggregate_log_entries();
    result.log_bytes += stack.aggregate_log_bytes();
    result.fetch_latency_us += stack.aggregate_fetch_latency();
    result.apply_delay_us += stack.aggregate_apply_delay();
    if (cluster.injector() != nullptr) result.drops += cluster.injector()->drops();
    if (cluster.reliable() != nullptr) {
      result.retransmits += cluster.reliable()->retransmits();
      result.dup_suppressed += cluster.reliable()->dup_suppressed();
      result.reliable_frames += cluster.reliable()->frames_sent();
      result.reliable_packets += cluster.reliable()->packets_sent();
      result.rtt_samples += cluster.reliable()->rtt_samples();
    }
    result.wire_frames += stack.wire().packets_sent();
    if (stack.batching() != nullptr) {
      result.batch_frames += stack.batching()->frames_sent();
      result.batch_messages += stack.batching()->messages_batched();
    }
    if (stack.gateway() != nullptr) {
      const net::GatewayMailbox& gw = *stack.gateway();
      result.lan_messages += gw.lan_messages();
      result.wan_messages += gw.wan_messages();
      result.lan_bytes += gw.lan_bytes();
      result.wan_bytes += gw.wan_bytes();
      result.wan_frames += gw.wan_frames();
      result.gateway_frames += gw.mailbox_frames();
      result.gateway_frame_messages += gw.mailbox_messages();
      result.gateway_enroute += gw.enroute_messages();
    }
    result.sessions = store.aggregate_stats();
    result.session_count = store.session_count();
    if (params.metrics != nullptr) cluster.export_metrics(*params.metrics);

    if (params.check) {
      const checker::CheckResult check = cluster.check();
      if (!check.ok()) {
        result.check_ok = false;
        result.violations.insert(result.violations.end(), check.violations.begin(),
                                 check.violations.end());
      }
    }
  };

  if (params.substrate == Substrate::kSim) {
    dsm::Cluster cluster(config);
    sim::Simulator& simulator = cluster.simulator();
    run(cluster, [&simulator] { return static_cast<double>(simulator.now()); },
        /*sim_arrivals=*/true);
  } else {
    // Full speed, no artificial wire jitter: the thread lanes measure the
    // executor and the wire path, not injected sleeps (the pooled
    // run_experiment lane's convention).
    dsm::ThreadCluster::Options topt;
    topt.time_scale = 0.0;
    topt.max_wire_delay_us = 0;
    dsm::ThreadCluster cluster(config, topt);
    const auto t0 = std::chrono::steady_clock::now();
    run(cluster,
        [t0] {
          return std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
              .count();
        },
        /*sim_arrivals=*/false);
  }

  double first = std::numeric_limits<double>::infinity();
  double last = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& lane : lanes) {
    result.get_latency_us += lane->get_h;
    result.put_latency_us += lane->put_h;
    if (lane->any_recorded) {
      first = std::min(first, lane->first_done_us);
      last = std::max(last, lane->last_done_us);
      any = true;
    }
  }
  if (any && last > first) {
    result.duration_s = (last - first) / 1e6;
    result.sustained_ops_per_sec =
        static_cast<double>(result.recorded_ops) / result.duration_s;
  }
  return result;
}

std::string service_block_json(const ServiceParams& params,
                               const ServiceResult& result) {
  std::ostringstream out;
  const auto latency = [&out](const char* name, const LatencyDigest& d) {
    out << ",\"" << name << "\":{\"count\":" << d.count << ",\"mean\":" << num(d.mean_us)
        << ",\"max\":" << num(d.max_us) << ",\"p50\":" << num(d.p50_us)
        << ",\"p90\":" << num(d.p90_us) << ",\"p99\":" << num(d.p99_us)
        << ",\"p999\":" << num(d.p999_us) << "}";
  };
  out << "{\"substrate\":\"" << to_string(params.substrate) << "\"";
  out << ",\"rate_per_site\":" << num(params.workload.rate_ops_per_sec);
  out << ",\"keys\":" << params.workload.keys;
  out << ",\"key_zipf_s\":" << num(params.workload.zipf_s);
  out << ",\"sessions\":" << result.session_count;
  out << ",\"flash\":" << (params.workload.flash ? "true" : "false");
  out << ",\"enforce\":" << (params.store.enforce ? "true" : "false");
  out << ",\"ops\":" << result.ops;
  out << ",\"recorded_ops\":" << result.recorded_ops;
  out << ",\"puts\":" << result.sessions.puts;
  out << ",\"gets\":" << result.sessions.gets;
  out << ",\"retries\":" << result.sessions.retries;
  out << ",\"stale\":" << result.sessions.stale_observations;
  out << ",\"violations\":" << result.sessions.violations;
  out << ",\"duration_s\":" << num(result.duration_s);
  out << ",\"sustained_ops_per_sec\":" << num(result.sustained_ops_per_sec);
  latency("get_latency_us", digest(result.get_latency_us));
  latency("put_latency_us", digest(result.put_latency_us));
  out << "}";
  return out.str();
}

}  // namespace causim::kv
