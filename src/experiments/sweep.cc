#include "src/experiments/sweep.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/base/thread_pool.h"

namespace accent {

int SweepThreadCount() {
  if (const char* env = std::getenv("ACCENT_SWEEP_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<int>(parsed);
    }
    // Malformed or non-positive values fall through to the hardware default
    // rather than aborting: CI scripts set this blindly.
  }
  return ThreadPool::HardwareThreads();
}

std::vector<TrialConfig> StrategySweepConfigs(const std::string& workload,
                                              std::uint64_t seed) {
  std::vector<TrialConfig> configs;
  TrialConfig config;
  config.workload = workload;
  config.seed = seed;

  config.strategy = TransferStrategy::kPureCopy;
  config.prefetch = 0;
  configs.push_back(config);

  for (TransferStrategy strategy :
       {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      config.strategy = strategy;
      config.prefetch = prefetch;
      configs.push_back(config);
    }
  }
  return configs;
}

std::vector<TrialConfig> PaperGridConfigs(std::uint64_t seed) {
  std::vector<TrialConfig> configs;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const std::vector<TrialConfig> workload = StrategySweepConfigs(spec.name, seed);
    configs.insert(configs.end(), workload.begin(), workload.end());
  }
  return configs;
}

std::vector<TrialResult> RunTrials(const std::vector<TrialConfig>& configs, int threads) {
  if (threads <= 0) {
    threads = SweepThreadCount();
  }
  // Results land in per-index slots, so completion order (which depends on
  // scheduling) never affects output order.
  std::vector<std::optional<TrialResult>> slots(configs.size());
  ParallelFor(threads, configs.size(),
              [&configs, &slots](std::size_t i) { slots[i] = RunTrial(configs[i]); });

  std::vector<TrialResult> results;
  results.reserve(configs.size());
  for (std::optional<TrialResult>& slot : slots) {
    ACCENT_CHECK(slot.has_value()) << " trial slot never filled";
    results.push_back(std::move(*slot));
  }
  return results;
}

std::vector<TrialResult> RunStrategySweepParallel(const std::string& workload,
                                                  std::uint64_t seed, int threads) {
  return RunTrials(StrategySweepConfigs(workload, seed), threads);
}

}  // namespace accent
