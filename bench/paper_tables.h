// The paper's evaluation tables and figures, printed from one in-memory run
// of the 77-trial grid (bench/run_all is the caller).
#ifndef BENCH_PAPER_TABLES_H_
#define BENCH_PAPER_TABLES_H_

#include <vector>

#include "src/experiments/trial.h"

namespace accent {

// Prints Tables 4-1..4-5, Figures 4-1..4-5 and the section 4.5 summary to
// stdout, in that order. `grid` is the paper grid in PaperGridConfigs order
// (7 workloads x {copy, IOU x PF, RS x PF}); ACCENT_CHECKs abort on a
// composition or resident-set mismatch against the published values.
void PrintPaperTables(const std::vector<TrialResult>& grid);

}  // namespace accent

#endif  // BENCH_PAPER_TABLES_H_
