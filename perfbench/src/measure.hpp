// Measurement primitives of the benchmark: a steady wall clock, raw
// sample buffers with exact nearest-rank quantiles, and process/thread
// CPU and memory readings.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nanoseconds on std::chrono::steady_clock. Every duration and rate the
/// benchmark reports is a difference of two of these readings.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw samples. Quantiles are exact nearest-rank values over every
/// sample, never bucket edges.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t count() const { return values_.size(); }

  /// Nearest-rank quantile: the smallest sample with at least ceil(p * n)
  /// samples at or below it, for p in (0, 1]. 0 when empty.
  double quantile(double p) const;
  double mean() const;

  /// The highest percentile (in percent) that still has at least ten
  /// samples above its nearest rank; 0 with ten samples or fewer.
  double highest_supported_percentile() const;

 private:
  // Sorted lazily by the first quantile() call after an add.
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Median of a set of per-round values (nearest-rank lower median for an
/// even count). 0 when empty.
double median(std::vector<double> values);

/// User + system CPU time of the whole process, in microseconds
/// (getrusage).
std::int64_t process_cpu_us();

/// Peak resident set size of the process so far, in MiB (getrusage).
double peak_rss_mb();

/// Cumulative CPU time of the whole machine as seen from /proc/stat, in
/// clock ticks: all states, and the share the hypervisor ran something
/// else while a vCPU wanted to run (steal).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();

/// Steal ticks over all ticks between two readings; 0 when none passed.
double steal_share(const HostTicks& from, const HostTicks& to);

/// The calling thread's kernel thread id.
pid_t current_tid();

/// User + system CPU time of one live thread of this process, in
/// microseconds, read from /proc/self/task/<tid>/stat (clock-tick
/// resolution). -1 when the thread is gone or the file is unreadable.
std::int64_t thread_cpu_us(pid_t tid);

}  // namespace perfbench
