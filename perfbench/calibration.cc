#include "perfbench/calibration.h"

#include <cstdint>
#include <map>
#include <queue>
#include <random>

#include "perfbench/spans.h"

namespace perfbench {

double RunCalibrationKernel() {
  const Clock::time_point start = Clock::now();
  std::mt19937_64 rng(1);
  std::priority_queue<std::uint64_t> heap;
  std::map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 30000; ++i) {
    heap.push(rng());
    table[rng() % 20000] += i;
  }
  std::uint64_t sink = 0;
  while (!heap.empty()) {
    sink += heap.top();
    heap.pop();
  }
  for (const auto& [key, value] : table) {
    sink += key ^ value;
  }
  // Keep the work observable so it cannot be optimised away.
  static volatile std::uint64_t observed = 0;
  observed = observed + sink;
  return MsBetween(start, Clock::now());
}

}  // namespace perfbench
