#include "selftest.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

void expect(std::vector<std::string>& failures, bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void quantiles(std::vector<std::string>& f) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);
  std::shuffle(values.begin(), values.end(), std::mt19937(42));
  Samples s;
  for (double v : values) s.add(v);
  expect(f, s.quantile(0.5) == 50.0, "p50 of 1..100 is 50");
  expect(f, s.quantile(0.99) == 99.0, "p99 of 1..100 is 99");
  expect(f, s.quantile(0.01) == 1.0, "p1 of 1..100 is 1");
  expect(f, s.quantile(1.0) == 100.0, "p100 of 1..100 is 100");
  expect(f, s.quantile(0.505) == 51.0, "p50.5 of 1..100 is 51");
  expect(f, s.highest_supported_percentile() == 90.0,
         "100 samples support up to p90");

  Samples one;
  one.add(7.5);
  expect(f, one.quantile(0.5) == 7.5 && one.quantile(0.99) == 7.5,
         "every quantile of one sample is that sample");
  expect(f, one.highest_supported_percentile() == 0.0, "one sample supports no percentile");
  Samples none;
  expect(f, none.quantile(0.5) == 0.0 && none.count() == 0, "empty samples read 0");

  Samples big;
  for (int i = 1000; i >= 1; --i) big.add(i);
  expect(f, big.quantile(0.999) == 999.0, "p99.9 of 1..1000 is 999");
  expect(f, big.highest_supported_percentile() == 99.0, "1000 samples support up to p99");
  Samples merged;
  merged.add(1000.5);
  merged.append(big);
  expect(f, merged.count() == 1001 && merged.quantile(1.0) == 1000.5,
         "appended samples keep both sets");

  expect(f, median({3.0, 1.0, 2.0}) == 2.0, "median of {3,1,2} is 2");
  expect(f, median({4.0, 1.0, 3.0, 2.0}) == 2.0, "lower median of {4,1,3,2} is 2");
}

void count_check(std::vector<std::string>& f) {
  causim::stats::MessageStats counted;
  for (int i = 0; i < 5; ++i) counted.record(causim::MessageKind::kSM, 20, 8, 64);
  for (int i = 0; i < 2; ++i) {
    counted.record(causim::MessageKind::kFM, 12, 0, 0);
    counted.record(causim::MessageKind::kRM, 20, 8, 64);
  }
  const ExpectedCounts right{5, 2, 2};
  expect(f, check_counts(right, counted).empty(), "matching counts pass the count check");

  causim::stats::MessageStats tampered = counted;
  tampered.record(causim::MessageKind::kSM, 20, 8, 64);
  expect(f, check_counts(right, tampered).size() == 1,
         "one extra SM fails the count check");
  const ExpectedCounts fewer_fetches{5, 1, 2};
  expect(f, check_counts(fewer_fetches, counted).size() == 1,
         "a wrong FM expectation fails the count check");
}

void input_determinism(std::vector<std::string>& f) {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec& spec = *find_workload(name);
    const std::uint64_t a = fingerprint(generate_inputs(spec, 7, 50));
    const std::uint64_t b = fingerprint(generate_inputs(spec, 7, 50));
    const std::uint64_t c = fingerprint(generate_inputs(spec, 8, 50));
    expect(f, a == b, name + ": the same seed gives identical inputs");
    expect(f, a != c, name + ": a different seed gives different inputs");
  }
}

}  // namespace

std::vector<std::string> run_selftest() {
  std::vector<std::string> failures;
  quantiles(failures);
  count_check(failures);
  input_determinism(failures);
  return failures;
}

}  // namespace perfbench
