// The canonical JSON encoding of a trial: its configuration and its
// TrialResult metrics, in a fixed key order, so Dump() of two equal results
// is byte-identical. The golden sweep digest (tests/golden_sweep_test.cc),
// the tracing-is-inert check (tests/trace_test.cc) and perfbench's grid
// digest all hash these dumps; changing a key or its format moves them.
//
// perfbench includes this header by its path, so the name stays.
#ifndef SRC_EXPERIMENTS_SWEEP_CACHE_H_
#define SRC_EXPERIMENTS_SWEEP_CACHE_H_

#include "src/base/json.h"
#include "src/experiments/trial.h"

namespace accent {

Json TrialConfigToJson(const TrialConfig& config);
Json TrialResultToJson(const TrialResult& result);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_SWEEP_CACHE_H_
