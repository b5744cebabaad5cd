// Shared helpers for the bench binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/experiments/trial.h"
#include "src/metrics/table.h"

namespace accent {

inline const std::vector<std::string>& RepresentativeNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      list.push_back(spec.name);
    }
    return list;
  }();
  return names;
}

// One cell of the paper grid (bench/run_all's in-memory run of the 77
// trials): pure-copy ignores prefetch, so any `prefetch` matches it.
inline const TrialResult& FindTrial(const std::vector<TrialResult>& grid,
                                    const std::string& workload, TransferStrategy strategy,
                                    std::uint32_t prefetch) {
  for (const TrialResult& result : grid) {
    if (result.config.workload == workload && result.config.strategy == strategy &&
        (strategy == TransferStrategy::kPureCopy || result.config.prefetch == prefetch)) {
      return result;
    }
  }
  ACCENT_CHECK(false) << " missing trial " << workload;
  static TrialResult unreachable;
  return unreachable;
}

inline void PrintHeading(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("\n");
}

}  // namespace accent

#endif  // BENCH_BENCH_UTIL_H_
