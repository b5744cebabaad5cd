#include "bench/paper_tables.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/experiments/testbed.h"

namespace accent {
namespace {

double Total(const TrialResult& trial) { return ToSeconds(trial.TransferPlusExec()); }

// --- Table 4-1: representative address-space sizes in bytes ---------------
//
// Sizes are measured from the constructed address spaces (not echoed from
// the specs): the AMap of each staged process is interrogated exactly the
// way ExciseProcess sees it.

struct Table41Row {
  const char* name;
  ByteCount real;
  ByteCount realz;
  ByteCount total;
  double pct_realz;
};

constexpr Table41Row kTable41[] = {
    {"Minprog", 142336, 187904, 330240, 56.9},
    {"Lisp-T", 2203136, 4225926144, 4228129280, 99.9},
    {"Lisp-Del", 2200064, 4225929216, 4228129280, 99.9},
    {"PM-Start", 449024, 501760, 950784, 52.8},
    {"PM-Mid", 446464, 466432, 912896, 51.1},
    {"PM-End", 492032, 398848, 890880, 44.8},
    {"Chess", 195584, 305152, 500736, 60.9},
};

void PrintTable41() {
  PrintHeading("Table 4-1: Representative Address Space Sizes in Bytes",
               "Measured from the staged processes' AMaps; paper values in parentheses.");

  TextTable table({"Process", "Real", "RealZ", "Total", "% RealZ", "(paper % RealZ)"});
  Testbed bed;
  for (const Table41Row& row : kTable41) {
    WorkloadInstance instance = BuildWorkload(WorkloadByName(row.name), bed.host(0), 42);
    const AddressSpace& space = *instance.process->space();
    const ByteCount real = space.RealBytes();
    const ByteCount realz = space.RealZeroBytes();
    const ByteCount total = space.TotalValidatedBytes();
    const double pct = 100.0 * static_cast<double>(realz) / static_cast<double>(total);
    table.AddRow({row.name, FormatWithCommas(real), FormatWithCommas(realz),
                  FormatWithCommas(total), FormatDouble(pct, 1),
                  "(" + FormatDouble(row.pct_realz, 1) + ")"});
    ACCENT_CHECK(real == row.real && realz == row.realz && total == row.total)
        << " composition mismatch for " << row.name;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Validated memory spans a factor of %s across the representatives;\n"
              "RealMem varies only 15x (the paper's central observation).\n",
              FormatWithCommas(4228129280 / 330240).c_str());
}

// --- Table 4-2: resident sets at migration time ---------------------------
//
// The resident set is sampled from the host's PhysicalMemory the same way
// the resident-set strategy samples it — not from the spec.

struct Table42Row {
  const char* name;
  ByteCount rs_size;
  double pct_real;
  double pct_total;
};

constexpr Table42Row kTable42[] = {
    {"Minprog", 71680, 50.4, 21.7},  {"Lisp-T", 190464, 8.6, 0.005},
    {"Lisp-Del", 190464, 8.7, 0.005}, {"PM-Start", 132096, 29.4, 13.9},
    {"PM-Mid", 190976, 42.8, 20.9},  {"PM-End", 302080, 61.4, 33.9},
    {"Chess", 110080, 56.3, 22.0},
};

void PrintTable42() {
  PrintHeading("Table 4-2: Representative Resident Sets",
               "Sampled from PhysicalMemory at migration time; paper values in parentheses.");

  TextTable table(
      {"Process", "RS Size", "% of Real", "% of Total", "(paper RS)", "(paper %Real)"});
  Testbed bed;
  for (const Table42Row& row : kTable42) {
    WorkloadInstance instance = BuildWorkload(WorkloadByName(row.name), bed.host(0), 42);
    const AddressSpace& space = *instance.process->space();
    const ByteCount rs =
        bed.host(0)->memory->ResidentCount(space.id()) * kPageSize;
    const double pct_real = 100.0 * static_cast<double>(rs) / static_cast<double>(space.RealBytes());
    const double pct_total =
        100.0 * static_cast<double>(rs) / static_cast<double>(space.TotalValidatedBytes());
    table.AddRow({row.name, FormatWithCommas(rs), FormatDouble(pct_real, 1),
                  FormatDouble(pct_total, 3), "(" + FormatWithCommas(row.rs_size) + ")",
                  "(" + FormatDouble(row.pct_real, 1) + ")"});
    ACCENT_CHECK(rs == row.rs_size) << " resident set mismatch for " << row.name;
    // The staged set must be clean for the next workload on this testbed.
    bed.host(0)->memory->RemoveSpace(space.id());
  }
  std::printf("%s\n", table.ToString().c_str());
}

// --- Table 4-3: percent of address space accessed -------------------------
//
// Transferred to the new site under pure-IOU and resident-set strategies,
// no prefetch.

struct Table43Row {
  const char* name;
  double iou_real;   // % of RealMem, pure-IOU
  double iou_total;  // % of total space
  double rs_real;    // % of RealMem, resident-set
  double rs_total;
};

// Lisp-T's row is illegible in the published scan; the summary bounds it
// (3%-58% of RealMem, min taken by Lisp): we report it without a reference.
constexpr Table43Row kTable43[] = {
    {"Minprog", 8.6, 3.7, 50.4, 21.7},
    {"Lisp-T", -1, -1, -1, -1},
    {"Lisp-Del", 16.5, 0.002, 17.4, 0.009},
    {"PM-Start", 58.0, 27.4, 76.0, 35.9},
    {"PM-Mid", 51.5, 25.2, -1, -1},
    {"PM-End", 26.9, 14.8, 72.5, 40.1},
    {"Chess", 35.6, 13.9, 66.0, 25.8},
};

std::string Ref(double v) { return v < 0 ? "(n/a)" : "(" + FormatDouble(v, 1) + ")"; }

void PrintTable43(const std::vector<TrialResult>& grid) {
  PrintHeading("Table 4-3: Percent of Address Space Accessed",
               "Percent of RealMem shipped to the new site ([.] = percent of total space);\n"
               "pure-copy ships 100% of RealMem by definition. Paper values in parentheses.");

  TextTable table({"Process", "IOU %Real", "[%Total]", "(paper)", "RS %Real", "[%Total]",
                   "(paper)"});
  for (const Table43Row& row : kTable43) {
    const TrialResult& iou = FindTrial(grid, row.name, TransferStrategy::kPureIou, 0);
    const TrialResult& rs = FindTrial(grid, row.name, TransferStrategy::kResidentSet, 0);
    table.AddRow({row.name, FormatDouble(iou.FractionOfRealTransferred() * 100.0, 1),
                  "[" + FormatDouble(iou.FractionOfTotalTransferred() * 100.0, 3) + "]",
                  Ref(row.iou_real), FormatDouble(rs.FractionOfRealTransferred() * 100.0, 1),
                  "[" + FormatDouble(rs.FractionOfTotalTransferred() * 100.0, 3) + "]",
                  Ref(row.rs_real)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("The Lisp family touches the least of its (huge) space; Pasmac the most\n"
              "(sequential whole-file scans); RS always ships more than is used.\n");
}

// --- Table 4-4: process excision times ------------------------------------
//
// AMap construction, RIMAS collapse and overall, plus the insertion times
// discussed in section 4.3.1.

struct Table44Row {
  const char* name;
  double amap;
  double rimas;
  double overall;
};

constexpr Table44Row kTable44[] = {
    {"Minprog", 0.37, 0.36, 0.82}, {"Lisp-T", 2.12, 0.59, 2.79},
    {"Lisp-Del", 2.46, 0.73, 3.38}, {"PM-Start", 0.98, 0.63, 1.67},
    {"PM-Mid", 1.01, 0.68, 1.74},  {"PM-End", 1.40, 0.94, 2.45},
    {"Chess", 0.37, 0.43, 1.00},
};

void PrintTable44(const std::vector<TrialResult>& grid) {
  PrintHeading("Table 4-4: Process Excision Times in Seconds",
               "AMap construction + RIMAS collapse + packaging, measured from the\n"
               "ExciseProcess trap. Paper values in parentheses. Insert column: section\n"
               "4.3.1 reports 0.263 s (Minprog) to 0.853 s (Lisp-Del).");

  TextTable table({"Process", "AMap", "(p)", "RIMAS", "(p)", "Overall", "(p)", "Insert"});
  for (const Table44Row& row : kTable44) {
    const TrialResult& trial = FindTrial(grid, row.name, TransferStrategy::kPureCopy, 0);
    table.AddRow({row.name, FormatSeconds(trial.migration.excise_amap),
                  "(" + FormatSeconds(row.amap) + ")",
                  FormatSeconds(trial.migration.excise_rimas),
                  "(" + FormatSeconds(row.rimas) + ")",
                  FormatSeconds(trial.migration.excise_overall),
                  "(" + FormatSeconds(row.overall) + ")",
                  FormatSeconds(trial.migration.insert_time)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Excision varies only ~4x while address-space contents vary four orders\n"
              "of magnitude: AMap construction cost follows process-map complexity.\n");
}

// --- Table 4-5: address space (RIMAS) transfer times ----------------------
//
// In seconds, under pure-IOU, resident-set and pure-copy strategies.

struct Table45Row {
  const char* name;
  double iou;
  double rs;
  double copy;
};

constexpr Table45Row kTable45[] = {
    {"Minprog", 0.16, 5.0, 8.5},   {"Lisp-T", 0.16, 25.8, 157.0},
    {"Lisp-Del", 0.17, 25.8, 168.5}, {"PM-Start", 0.15, 9.0, 30.8},
    {"PM-Mid", 0.16, 13.0, 28.1},  {"PM-End", 0.19, 20.5, 31.0},
    {"Chess", 0.21, 7.7, 11.7},
};

void PrintTable45(const std::vector<TrialResult>& grid) {
  PrintHeading("Table 4-5: Address Space Transfer Times in Seconds",
               "Time from handing the RIMAS message to the IPC system until its arrival\n"
               "at the destination. Paper values in parentheses.");

  TextTable table({"Process", "Pure-IOU", "(p)", "RS", "(p)", "Copy", "(p)"});
  double worst_ratio = 0;
  const char* worst_name = "";
  for (const Table45Row& row : kTable45) {
    const TrialResult& iou = FindTrial(grid, row.name, TransferStrategy::kPureIou, 0);
    const TrialResult& rs = FindTrial(grid, row.name, TransferStrategy::kResidentSet, 0);
    const TrialResult& copy = FindTrial(grid, row.name, TransferStrategy::kPureCopy, 0);
    table.AddRow({row.name, FormatSeconds(iou.migration.RimasTransferTime()),
                  "(" + FormatSeconds(row.iou) + ")",
                  FormatSeconds(rs.migration.RimasTransferTime()),
                  "(" + FormatSeconds(row.rs, 1) + ")",
                  FormatSeconds(copy.migration.RimasTransferTime(), 1),
                  "(" + FormatSeconds(row.copy, 1) + ")"});
    const double ratio = ToSeconds(copy.migration.RimasTransferTime()) /
                         ToSeconds(iou.migration.RimasTransferTime());
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_name = row.name;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Pure-IOU transfer times are nearly constant; pure-copy grows with RealMem.\n"
              "Largest copy/IOU ratio: %s at %.0fx (paper: Lisp-Del, ~1000x).\n",
              worst_name, worst_ratio);
}

// --- Figure 4-1: remote execution times in seconds ------------------------
//
// The measurement interval starts when the relocated program is restarted
// at the new host and ends when remote execution completes. Columns PFn are
// trials with n pages prefetched per imaginary fault.

void PrintFigure41(const std::vector<TrialResult>& grid) {
  PrintHeading("Figure 4-1: Remote Execution Times in Seconds",
               "Rows: pure-copy baseline, then pure-IOU and resident-set across prefetch\n"
               "values 0/1/3/7/15. Paper anchors: Minprog ~44x slower under pure-IOU;\n"
               "Chess only ~3% longer; Pasmac halves its IOU time with large prefetch.");

  TextTable table({"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF1",
                   "PF3", "PF7", "PF15"});
  for (const std::string& name : RepresentativeNames()) {
    std::vector<std::string> row{name};
    row.push_back(
        FormatSeconds(FindTrial(grid, name, TransferStrategy::kPureCopy, 0).remote_exec));
    for (TransferStrategy strategy :
         {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
      for (std::uint32_t prefetch : kPaperPrefetchValues) {
        row.push_back(FormatSeconds(FindTrial(grid, name, strategy, prefetch).remote_exec));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  const double minprog_copy =
      ToSeconds(FindTrial(grid, "Minprog", TransferStrategy::kPureCopy, 0).remote_exec);
  const double minprog_iou =
      ToSeconds(FindTrial(grid, "Minprog", TransferStrategy::kPureIou, 0).remote_exec);
  const double chess_copy =
      ToSeconds(FindTrial(grid, "Chess", TransferStrategy::kPureCopy, 0).remote_exec);
  const double chess_iou =
      ToSeconds(FindTrial(grid, "Chess", TransferStrategy::kPureIou, 0).remote_exec);
  const double pm_iou0 =
      ToSeconds(FindTrial(grid, "PM-Start", TransferStrategy::kPureIou, 0).remote_exec);
  const double pm_iou15 =
      ToSeconds(FindTrial(grid, "PM-Start", TransferStrategy::kPureIou, 15).remote_exec);
  std::printf("Minprog pure-IOU slowdown: %.0fx (paper: 44x)\n", minprog_iou / minprog_copy);
  std::printf("Chess pure-IOU penalty: %.1f%% (paper: ~3%%)\n",
              100.0 * (chess_iou - chess_copy) / chess_copy);
  std::printf("PM-Start IOU PF0 -> PF15 improvement: %.2fx (paper: up to 2x)\n",
              pm_iou0 / pm_iou15);

  // Prefetch hit ratios (section 4.3.3 prose).
  std::printf("\nPrefetch hit ratios (hits / prefetched pages):\n");
  for (const char* name : {"Lisp-Del", "PM-Start"}) {
    std::printf("  %-8s:", name);
    for (std::uint32_t prefetch : {1u, 3u, 7u, 15u}) {
      const TrialResult& trial = FindTrial(grid, name, TransferStrategy::kPureIou, prefetch);
      const double ratio =
          trial.dest_pager.prefetched_pages == 0
              ? 0.0
              : static_cast<double>(trial.dest_pager.prefetch_hits) /
                    static_cast<double>(trial.dest_pager.prefetched_pages);
      std::printf("  PF%-2u %4.0f%%", prefetch, 100.0 * ratio);
    }
    std::printf("\n");
  }
  std::printf("(paper: Lisp drops ~40%% -> ~20%% as prefetch grows; Pasmac holds ~78%%)\n");
}

// --- Figure 4-2: overall migration speedup relative to pure-copy ----------
//
// For each representative, strategy and prefetch value, the elapsed times
// for address-space transfer and remote execution are summed and compared
// to the pure-copy result. Positive numbers are speedups.

void PrintFigure42(const std::vector<TrialResult>& grid) {
  PrintHeading("Figure 4-2: Percent Migration Speedup vs. Pure-Copy",
               "Transfer + remote execution, compared to pure-copy. Positive = faster.\n"
               "Paper anchors: processes touching < ~25% of RealMem win under pure-IOU;\n"
               "PF1 always helps; RS rarely pays its way; Chess is insensitive.");

  TextTable table({"Process", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF1", "PF3",
                   "PF7", "PF15"});
  for (const std::string& name : RepresentativeNames()) {
    const double copy_total = Total(FindTrial(grid, name, TransferStrategy::kPureCopy, 0));
    std::vector<std::string> row{name};
    for (TransferStrategy strategy :
         {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
      for (std::uint32_t prefetch : kPaperPrefetchValues) {
        const double total = Total(FindTrial(grid, name, strategy, prefetch));
        const double speedup = 100.0 * (copy_total - total) / copy_total;
        row.push_back(FormatDouble(speedup, 1));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  // The crossover claim: breakeven near one quarter of RealMem touched.
  std::printf("Touched fraction of RealMem vs. pure-IOU PF0 outcome:\n");
  for (const std::string& name : RepresentativeNames()) {
    const TrialResult& iou = FindTrial(grid, name, TransferStrategy::kPureIou, 0);
    const double copy_total = Total(FindTrial(grid, name, TransferStrategy::kPureCopy, 0));
    const double speedup = 100.0 * (copy_total - Total(iou)) / copy_total;
    std::printf("  %-8s touched %5.1f%%  -> %+7.1f%%\n", name.c_str(),
                100.0 * iou.FractionOfRealTransferred(), speedup);
  }
  std::printf("(paper: breakeven around 25%% of RealMem; Chess drowned by longevity)\n");
}

// --- Figure 4-3: bytes transferred per trial ------------------------------
//
// Between the machines, from the migration request to remote completion.

void PrintFigure43(const std::vector<TrialResult>& grid) {
  PrintHeading("Figure 4-3: Bytes Transferred per Trial",
               "All bytes exchanged between the hosts (context, fault traffic, control).\n"
               "Paper anchors: pure-IOU (PF0) moves 58.2% fewer bytes than pure-copy on\n"
               "average; prefetch adds dead-weight bytes; RS cuts into the IOU savings.");

  TextTable table({"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0",
                   "PF15"});
  double savings_sum = 0;
  for (const std::string& name : RepresentativeNames()) {
    const ByteCount copy_bytes =
        FindTrial(grid, name, TransferStrategy::kPureCopy, 0).bytes_total;
    std::vector<std::string> row{name, FormatWithCommas(copy_bytes)};
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      row.push_back(FormatWithCommas(
          FindTrial(grid, name, TransferStrategy::kPureIou, prefetch).bytes_total));
    }
    row.push_back(FormatWithCommas(
        FindTrial(grid, name, TransferStrategy::kResidentSet, 0).bytes_total));
    row.push_back(FormatWithCommas(
        FindTrial(grid, name, TransferStrategy::kResidentSet, 15).bytes_total));
    table.AddRow(row);

    const ByteCount iou_bytes =
        FindTrial(grid, name, TransferStrategy::kPureIou, 0).bytes_total;
    savings_sum += 1.0 - static_cast<double>(iou_bytes) / static_cast<double>(copy_bytes);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Average pure-IOU (PF0) byte savings vs pure-copy: %.1f%% (paper: 58.2%%)\n",
              100.0 * savings_sum / static_cast<double>(RepresentativeNames().size()));
}

// --- Figure 4-4: message-handling costs in seconds per trial --------------
//
// The elapsed CPU time both NetMsgServers spend processing the trial's IPC
// traffic ("each second spent by the NetMsgServer is stolen from all
// processes in both systems").

void PrintFigure44(const std::vector<TrialResult>& grid) {
  PrintHeading("Figure 4-4: Message Handling Costs in Seconds",
               "NetMsgServer CPU busy time summed over both nodes. Paper anchors:\n"
               "IOU (PF0) cuts handling cost 47.8% on average; PF1 dips slightly below\n"
               "PF0; larger prefetch climbs again (dead-weight pages, bigger replies).");

  TextTable table(
      {"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF15"});
  double savings_sum = 0;
  for (const std::string& name : RepresentativeNames()) {
    const double copy_cost =
        ToSeconds(FindTrial(grid, name, TransferStrategy::kPureCopy, 0).netmsg_busy);
    std::vector<std::string> row{name, FormatSeconds(copy_cost)};
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      row.push_back(FormatSeconds(
          FindTrial(grid, name, TransferStrategy::kPureIou, prefetch).netmsg_busy));
    }
    row.push_back(FormatSeconds(
        FindTrial(grid, name, TransferStrategy::kResidentSet, 0).netmsg_busy));
    row.push_back(FormatSeconds(
        FindTrial(grid, name, TransferStrategy::kResidentSet, 15).netmsg_busy));
    table.AddRow(row);

    const double iou_cost =
        ToSeconds(FindTrial(grid, name, TransferStrategy::kPureIou, 0).netmsg_busy);
    savings_sum += 1.0 - iou_cost / copy_cost;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Average pure-IOU (PF0) handling-cost savings vs pure-copy: %.1f%%"
              " (paper: 47.8%%)\n",
              100.0 * savings_sum / static_cast<double>(RepresentativeNames().size()));
  std::printf("Pure-copy wins on message *count* but loses on handling time: the\n"
              "majority of pages it ships are never used at the remote site.\n");
}

// --- Figure 4-5: byte transfer rates for Lisp-Del -------------------------
//
// The three strategies (no prefetch), from migration start to the final
// remote instruction. White areas in the paper are imaginary-fault bytes;
// black areas are everything else — here the two series are printed side
// by side with an ASCII rate chart. The grid records 0.5 s traffic buckets,
// so this figure runs its own three trials at 2.5 s buckets.

void PrintSeries(const TrialResult& trial) {
  std::printf("--- %s (bucket = %.1f s, trial ends at %.1f s) ---\n",
              StrategyName(trial.config.strategy), ToSeconds(trial.series_bucket),
              ToSeconds(trial.finished));
  ByteCount peak = 1;
  for (const auto& bucket : trial.series) {
    ByteCount total = 0;
    for (ByteCount b : bucket.bytes) {
      total += b;
    }
    peak = std::max(peak, total);
  }
  std::printf("%9s  %12s  %12s  rate\n", "t (s)", "fault B", "other B");
  // Cap the printed rows: merge trailing all-quiet stretches.
  for (const auto& bucket : trial.series) {
    const ByteCount fault = bucket.bytes[static_cast<int>(TrafficKind::kFaultData)];
    ByteCount other = 0;
    for (std::size_t k = 0; k < bucket.bytes.size(); ++k) {
      if (k != static_cast<std::size_t>(TrafficKind::kFaultData)) {
        other += bucket.bytes[k];
      }
    }
    if (fault + other == 0) {
      continue;
    }
    const int bar = static_cast<int>(60.0 * static_cast<double>(fault + other) /
                                     static_cast<double>(peak));
    const int fault_bar =
        static_cast<int>(60.0 * static_cast<double>(fault) / static_cast<double>(peak));
    std::string chart(static_cast<std::size_t>(fault_bar), 'o');   // fault bytes
    chart.append(static_cast<std::size_t>(bar - fault_bar), '#');  // bulk/control bytes
    std::printf("%9.1f  %12s  %12s  %s\n", ToSeconds(bucket.start),
                FormatWithCommas(fault).c_str(), FormatWithCommas(other).c_str(),
                chart.c_str());
  }
  std::printf("\n");
}

void PrintFigure45() {
  PrintHeading("Figure 4-5: Byte Transfer Rates for Lisp-Del",
               "'o' = bytes supporting imaginary faults (the paper's white areas),\n"
               "'#' = all other transfers (black areas). No prefetch.\n"
               "Paper anchor: the pure-IOU trial finishes shortly after the pure-copy\n"
               "trial *begins* remote execution.");

  TrialConfig config;
  config.workload = "Lisp-Del";
  config.traffic_bucket = Sec(2.5);
  config.strategy = TransferStrategy::kPureIou;
  const TrialResult iou = RunTrial(config);
  config.strategy = TransferStrategy::kResidentSet;
  const TrialResult rs = RunTrial(config);
  config.strategy = TransferStrategy::kPureCopy;
  const TrialResult copy = RunTrial(config);
  PrintSeries(iou);
  PrintSeries(rs);
  PrintSeries(copy);

  std::printf("Pure-IOU finished at %.1f s; pure-copy resumed execution at %.1f s.\n",
              ToSeconds(iou.finished), ToSeconds(copy.migration.resumed));
}

// --- Section 4.5 summary --------------------------------------------------
//
// Every headline claim of the paper, recomputed from the grid, side by side
// with the published number.

void PrintSummary45(const std::vector<TrialResult>& grid) {
  PrintHeading("Section 4.5 Summary: paper claim vs. this reproduction", "");

  // Address-space variance.
  ByteCount min_total = ~0ull, max_total = 0, min_real = ~0ull, max_real = 0;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    min_total = std::min(min_total, spec.total_bytes());
    max_total = std::max(max_total, spec.total_bytes());
    min_real = std::min(min_real, spec.real_bytes);
    max_real = std::max(max_real, spec.real_bytes);
  }

  // Excision / insertion variance.
  double min_exc = 1e9, max_exc = 0, min_ins = 1e9, max_ins = 0;
  double min_iou_xfer = 1e9, max_iou_xfer = 0, min_copy = 1e9, max_copy = 0;
  double worst_ratio = 0;
  double byte_savings = 0, msg_savings = 0;
  double min_touch_real = 1e9, max_touch_real = 0, min_touch_tot = 1e9, max_touch_tot = 0;
  const auto& names = RepresentativeNames();
  for (const std::string& name : names) {
    const TrialResult& copy = FindTrial(grid, name, TransferStrategy::kPureCopy, 0);
    const TrialResult& iou = FindTrial(grid, name, TransferStrategy::kPureIou, 0);
    min_exc = std::min(min_exc, ToSeconds(copy.migration.excise_overall));
    max_exc = std::max(max_exc, ToSeconds(copy.migration.excise_overall));
    min_ins = std::min(min_ins, ToSeconds(copy.migration.insert_time));
    max_ins = std::max(max_ins, ToSeconds(copy.migration.insert_time));
    min_iou_xfer = std::min(min_iou_xfer, ToSeconds(iou.migration.RimasTransferTime()));
    max_iou_xfer = std::max(max_iou_xfer, ToSeconds(iou.migration.RimasTransferTime()));
    min_copy = std::min(min_copy, ToSeconds(copy.migration.RimasTransferTime()));
    max_copy = std::max(max_copy, ToSeconds(copy.migration.RimasTransferTime()));
    worst_ratio = std::max(worst_ratio, ToSeconds(copy.migration.RimasTransferTime()) /
                                            ToSeconds(iou.migration.RimasTransferTime()));
    byte_savings += 1.0 - static_cast<double>(iou.bytes_total) /
                              static_cast<double>(copy.bytes_total);
    msg_savings +=
        1.0 - ToSeconds(iou.netmsg_busy) / ToSeconds(copy.netmsg_busy);
    min_touch_real = std::min(min_touch_real, 100.0 * iou.FractionOfRealTransferred());
    max_touch_real = std::max(max_touch_real, 100.0 * iou.FractionOfRealTransferred());
    min_touch_tot = std::min(min_touch_tot, 100.0 * iou.FractionOfTotalTransferred());
    max_touch_tot = std::max(max_touch_tot, 100.0 * iou.FractionOfTotalTransferred());
  }
  const double n = static_cast<double>(names.size());

  TextTable table({"Claim", "Paper", "Measured"});
  table.AddRow({"Address-space size variance", "12,803x",
                FormatWithCommas(max_total / min_total) + "x"});
  table.AddRow({"RealMem variance", "15x", FormatWithCommas(max_real / min_real) + "x"});
  table.AddRow({"Touched, % of validated space", "0.002%-27.4%",
                FormatDouble(min_touch_tot, 3) + "%-" + FormatDouble(max_touch_tot, 1) + "%"});
  table.AddRow({"Touched, % of RealMem", "3%-58%",
                FormatDouble(min_touch_real, 1) + "%-" + FormatDouble(max_touch_real, 1) + "%"});
  table.AddRow({"Excision time variance", "4x", FormatDouble(max_exc / min_exc, 1) + "x"});
  table.AddRow({"Insertion time variance", "3.3x", FormatDouble(max_ins / min_ins, 1) + "x"});
  table.AddRow({"IOU transfer times", "~1 s bound (0.15-0.21 s RIMAS)",
                FormatSeconds(min_iou_xfer) + "-" + FormatSeconds(max_iou_xfer) + " s"});
  table.AddRow({"Pure-copy transfer variance", "20x",
                FormatDouble(max_copy / min_copy, 1) + "x"});
  table.AddRow({"Worst copy vs IOU transfer", "~1000x", FormatDouble(worst_ratio, 0) + "x"});
  table.AddRow({"Avg byte savings (IOU PF0)", "58.2%",
                FormatDouble(100.0 * byte_savings / n, 1) + "%"});
  table.AddRow({"Avg message-cost savings (IOU PF0)", "47.8%",
                FormatDouble(100.0 * msg_savings / n, 1) + "%"});

  const TrialResult& chess_copy = FindTrial(grid, "Chess", TransferStrategy::kPureCopy, 0);
  const TrialResult& chess_iou = FindTrial(grid, "Chess", TransferStrategy::kPureIou, 0);
  table.AddRow({"Chess end-to-end sensitivity", "insensitive",
                FormatDouble(100.0 * (Total(chess_iou) - Total(chess_copy)) /
                                 Total(chess_copy), 1) + "%"});

  // Prefetch-1 rule: PF1 never slower than PF0 end-to-end.
  bool pf1_always_helps = true;
  for (const std::string& name : names) {
    const double pf0 = Total(FindTrial(grid, name, TransferStrategy::kPureIou, 0));
    const double pf1 = Total(FindTrial(grid, name, TransferStrategy::kPureIou, 1));
    if (pf1 > pf0 * 1.001) {
      pf1_always_helps = false;
    }
  }
  table.AddRow({"One-page prefetch always helps", "yes", pf1_always_helps ? "yes" : "NO"});

  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

void PrintPaperTables(const std::vector<TrialResult>& grid) {
  PrintTable41();
  PrintTable42();
  PrintTable43(grid);
  PrintTable44(grid);
  PrintTable45(grid);
  PrintFigure41(grid);
  PrintFigure42(grid);
  PrintFigure43(grid);
  PrintFigure44(grid);
  PrintFigure45();
  PrintSummary45(grid);
}

}  // namespace accent
