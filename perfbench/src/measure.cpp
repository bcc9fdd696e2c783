#include "measure.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = values_.size() <= 1;
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  // The epsilon keeps p * n that is integral up to rounding (0.99 * 100)
  // from stepping to the next rank.
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::highest_supported_percentile() const {
  const std::size_t n = values_.size();
  if (n <= 10) return 0.0;
  // Rank n - 10 leaves exactly ten samples above it.
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

std::int64_t process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  HostTicks t;
  std::uint64_t v = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user/nice.
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) / static_cast<double>(total);
}

pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

std::int64_t thread_cpu_us(pid_t tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/stat", static_cast<int>(tid));
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return -1;
  // The command name (field 2) is parenthesized and may hold spaces; the
  // fields after the last ')' start at field 3 (state).
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  long long utime = -1;
  long long stime = -1;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  if (utime < 0 || stime < 0) return -1;
  static const long ticks_per_s = sysconf(_SC_CLK_TCK);
  return (utime + stime) * 1'000'000 / ticks_per_s;
}

}  // namespace perfbench
