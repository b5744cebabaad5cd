// The benchmark's three workloads. Each drives the simulator only through
// its public entry points, one trial at a time on the calling thread
// (closed loop), and reports one PassRecord per pass over its trial set.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

// Host time of the trials of one pass.
struct TrialTimes {
  std::vector<double> trial_ms;  // everything done for one trial
  std::vector<double> core_ms;   // only the simulator entry point that runs it
};

// What one pass produced. Apart from the wall times, everything here is
// simulated output and repeats exactly for a given seed.
struct PassRecord {
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;  // hung trials, integrity mismatches, census failures
  // Per-pass layer counts, keyed by per-layer metric name. "sim.seconds"
  // (simulated seconds covered by the pass) is internal.
  std::map<std::string, double> layer;
  // Values that every pass must repeat, keyed by check name.
  std::map<std::string, std::string> checked;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Warm-up the harness times as set-up: touches the static tables and runs
  // a warm-up trial. A warm-up that is a full pass is appended to `passes`
  // (and counted there); other warm-up trials add to `warmup_trials`.
  virtual void Setup(std::uint64_t* warmup_trials, std::vector<PassRecord>* passes) = 0;

  // One pass. `spans` is null on untraced passes.
  virtual PassRecord RunPass(SpanRecorder* spans, TrialTimes* times) = 0;

  // Check values pinned for this seed (others must repeat the first pass).
  virtual std::map<std::string, std::string> Pins() const = 0;

  // Set-up repetitions per run; the harness reports their median.
  virtual int setup_reps() const = 0;
};

// Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
