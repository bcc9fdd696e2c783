// Self-test of the benchmark's own code, run before every measurement.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Returns one message per failed self-check (empty = all passed).
std::vector<std::string> run_selftest();

}  // namespace perfbench
