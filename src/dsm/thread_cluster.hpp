// ThreadCluster — the same n-site causal DSM run over real threads,
// standing in for the paper's one-JVM-process-per-site TCP testbed.
//
// The cluster supplies the substrate-specific edges (ThreadTransport and
// its ThreadTimerDriver) and delegates assembly to engine::NodeStack and
// schedule execution to engine::ScheduleDriver plus an
// engine::PooledExecutor whose width the config selects: one worker per
// site (ExecutorKind::kPerSite, the default — a site issues no op while
// its RemoteFetch is outstanding, exactly as §II-B prescribes, and its
// worker keeps serving its mailbox) or `workers` workers
// (ExecutorKind::kPooled — N sites multiplexed over a fixed pool, the
// throughput lane). Each site's packets and ops run on the worker that
// owns it; no thread is per site. Message counts and sizes are schedule-determined
// and must match the discrete-event run bit for bit where contents are
// interleaving-independent (counts, Full-Track/optP clock sizes); the
// test suite asserts the cross-transport equivalences that hold.
#pragma once

#include <memory>

#include "checker/causal_checker.hpp"
#include "dsm/cluster.hpp"
#include "dsm/placement.hpp"
#include "dsm/site_runtime.hpp"
#include "engine/node_stack.hpp"
#include "engine/schedule_driver.hpp"
#include "net/thread_transport.hpp"
#include "workload/schedule.hpp"

namespace causim::dsm {

class ThreadCluster {
 public:
  struct Options {
    /// Sleep schedule gaps scaled by this factor (0 = run at full speed;
    /// 1e-6 turns a millisecond of schedule time into a microsecond).
    double time_scale = 0.0;
    /// Maximum artificial wire delay in real microseconds.
    std::int64_t max_wire_delay_us = 500;
  };

  explicit ThreadCluster(const ClusterConfig& config);
  ThreadCluster(const ClusterConfig& config, Options options);
  ~ThreadCluster();

  SiteId sites() const { return config_.sites; }
  const Placement& placement() const { return stack_->placement(); }
  SiteRuntime& site(SiteId i) { return stack_->site(i); }
  /// The assembled per-site stack (fault layers, runtimes, frame pool).
  engine::NodeStack& stack() { return *stack_; }
  /// Non-null while the fault stack is wired in (see ClusterConfig).
  const faults::FaultInjector* injector() const { return stack_->injector(); }
  const net::ReliableTransport* reliable() const { return stack_->reliable(); }

  /// The schedule-execution driver (hook installation point for layers
  /// above the raw DSM ops — see ScheduleDriver::set_dispatch_hook).
  engine::ScheduleDriver& driver() { return *driver_; }

  /// Plays the schedule on the executor's workers, waits for network
  /// quiescence, and verifies every update was applied.
  void execute(const workload::Schedule& schedule);

  stats::MessageStats aggregate_message_stats() const;
  stats::Summary aggregate_log_entries() const;
  stats::Summary aggregate_log_bytes() const;
  checker::CheckResult check(checker::CheckOptions options = {}) const;

  /// Folds every site's observability instruments into `registry`. Call
  /// after execute() returns (the network is quiescent by then).
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  ClusterConfig config_;
  Options options_;
  std::unique_ptr<net::ThreadTransport> transport_;
  std::unique_ptr<engine::NodeStack> stack_;
  /// A PooledExecutor, W = n or W = workers per ClusterConfig::executor.
  std::unique_ptr<engine::Executor> executor_;
  std::unique_ptr<engine::ScheduleDriver> driver_;
};

}  // namespace causim::dsm
