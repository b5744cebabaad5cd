// render_results: turns BENCH_*.json into docs/RESULTS.md.
//
//   render_results --sweep build/BENCH_sweep.json --out docs/RESULTS.md
//
// Reads the sweep summary emitted by `run_all` (and, when present, the
// micro_sim and failure_sweep reports) and renders the paper-shaped result
// tables — Tables 4-1 .. 4-5, the failure matrix, the event-loop micro
// bench — as Markdown, with the paper's published values alongside ours.
// The emitted file carries a template-version marker; the docs_check ctest
// compares it against --print-template-version to catch a stale RESULTS.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/metrics/table.h"

namespace accent {
namespace {

// Bump when the set of tables or their columns change, so a committed
// docs/RESULTS.md rendered by an older binary fails docs_check.
constexpr int kTemplateVersion = 8;

// -------------------------------------------------------------------------
// Paper constants (Zayas, SOSP 1987). Mirrors the kTable4x arrays in
// bench/paper_tables.cc; a value of -1 renders as "(n/a)" — the paper does not
// report that cell.

struct PaperSizes {  // Table 4-1
  const char* name;
  double real, realz, total, pct_realz;
};
constexpr PaperSizes kPaperSizes[] = {
    {"Minprog", 142336, 187904, 330240, 56.9},
    {"Lisp-T", 2203136, 4225926144, 4228129280, 99.9},
    {"Lisp-Del", 2200064, 4225929216, 4228129280, 99.9},
    {"PM-Start", 449024, 501760, 950784, 52.8},
    {"PM-Mid", 446464, 466432, 912896, 51.1},
    {"PM-End", 492032, 398848, 890880, 44.8},
    {"Chess", 195584, 305152, 500736, 60.9},
};

struct PaperResident {  // Table 4-2
  const char* name;
  double rs_size, pct_real, pct_total;
};
constexpr PaperResident kPaperResident[] = {
    {"Minprog", 71680, 50.4, 21.7},  {"Lisp-T", 190464, 8.6, 0.005},
    {"Lisp-Del", 190464, 8.7, 0.005}, {"PM-Start", 132096, 29.4, 13.9},
    {"PM-Mid", 190976, 42.8, 20.9},  {"PM-End", 302080, 61.4, 33.9},
    {"Chess", 110080, 56.3, 22.0},
};

struct PaperAccessed {  // Table 4-3 (percent of address space accessed)
  const char* name;
  double iou_real, iou_total, rs_real, rs_total;
};
constexpr PaperAccessed kPaperAccessed[] = {
    {"Minprog", 8.6, 3.7, 50.4, 21.7}, {"Lisp-T", -1, -1, -1, -1},
    {"Lisp-Del", 16.5, 0.002, 17.4, 0.009}, {"PM-Start", 58.0, 27.4, 76.0, 35.9},
    {"PM-Mid", 51.5, 25.2, -1, -1},    {"PM-End", 26.9, 14.8, 72.5, 40.1},
    {"Chess", 35.6, 13.9, 66.0, 25.8},
};

struct PaperExcision {  // Table 4-4
  const char* name;
  double amap, rimas, overall;
};
constexpr PaperExcision kPaperExcision[] = {
    {"Minprog", 0.37, 0.36, 0.82}, {"Lisp-T", 2.12, 0.59, 2.79},
    {"Lisp-Del", 2.46, 0.73, 3.38}, {"PM-Start", 0.98, 0.63, 1.67},
    {"PM-Mid", 1.01, 0.68, 1.74},  {"PM-End", 1.40, 0.94, 2.45},
    {"Chess", 0.37, 0.43, 1.00},
};

struct PaperTransfer {  // Table 4-5
  const char* name;
  double iou, rs, copy;
};
constexpr PaperTransfer kPaperTransfer[] = {
    {"Minprog", 0.16, 5.0, 8.5},   {"Lisp-T", 0.16, 25.8, 157.0},
    {"Lisp-Del", 0.17, 25.8, 168.5}, {"PM-Start", 0.15, 9.0, 30.8},
    {"PM-Mid", 0.16, 13.0, 28.1},  {"PM-End", 0.19, 20.5, 31.0},
    {"Chess", 0.21, 7.7, 11.7},
};

// -------------------------------------------------------------------------
// Markdown table builder.

class MdTable {
 public:
  explicit MdTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  std::string ToString() const {
    std::ostringstream out;
    auto emit = [&out](const std::vector<std::string>& cells) {
      out << '|';
      for (const std::string& cell : cells) {
        out << ' ' << cell << " |";
      }
      out << '\n';
    };
    emit(headers_);
    out << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out << (c == 0 ? " --- |" : " ---: |");
    }
    out << '\n';
    for (const auto& row : rows_) {
      emit(row);
    }
    return out.str();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Paper(double value, int precision = 2) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatDouble(value, precision) + ")";
}

std::string PaperBytes(double value) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatWithCommas(static_cast<std::uint64_t>(value)) + ")";
}

// `value` is already a percentage (the paper prints percentages directly).
std::string PaperPercent(double value, int precision = 1) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatDouble(value, precision) + "%)";
}

// -------------------------------------------------------------------------
// Sweep-summary access.

// Trials are keyed by (workload, strategy, prefetch); only the
// iou_caching=true rows belong to the paper grid proper.
class SweepIndex {
 public:
  explicit SweepIndex(const Json& sweep) : sweep_(sweep) {
    for (const Json& trial : sweep.Get("trials").AsArray()) {
      if (!trial.Get("iou_caching").AsBool()) {
        continue;
      }
      const std::string key = Key(trial.Get("workload").AsString(),
                                  trial.Get("strategy").AsString(),
                                  trial.Get("prefetch").AsUint64());
      trials_.emplace(key, &trial);
    }
  }

  // Aborts if the trial is missing: every table below draws from the fixed
  // 77-trial grid, so absence means BENCH_sweep.json is malformed.
  const Json& Find(const std::string& workload, const std::string& strategy,
                   std::uint64_t prefetch = 0) const {
    auto it = trials_.find(Key(workload, strategy, prefetch));
    if (it == trials_.end()) {
      std::fprintf(stderr, "render_results: sweep summary is missing trial %s/%s/pf%llu\n",
                   workload.c_str(), strategy.c_str(),
                   static_cast<unsigned long long>(prefetch));
      std::exit(1);
    }
    return *it->second;
  }

  const Json& sweep() const { return sweep_; }

 private:
  static std::string Key(const std::string& workload, const std::string& strategy,
                         std::uint64_t prefetch) {
    return workload + "|" + strategy + "|" + std::to_string(prefetch);
  }

  const Json& sweep_;
  std::map<std::string, const Json*> trials_;
};

double Seconds(const Json& trial, const char* key) {
  return trial.Get(key).AsDouble() / 1e6;
}

// -------------------------------------------------------------------------
// Sections.

void RenderTable41(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-1: Address space sizes in bytes\n\n"
      << "Real memory (touched, backed pages), real-but-zero (allocated, "
         "never-written fill-zero regions) and their sum, per representative "
         "process. Paper values in parentheses.\n\n";
  MdTable table({"Process", "Real", "(paper)", "RealZ", "(paper)", "Total", "(paper)",
                 "%RealZ", "(paper)"});
  for (const PaperSizes& row : kPaperSizes) {
    const Json& trial = index.Find(row.name, "pure-IOU");
    const std::uint64_t real = trial.Get("spec_real_bytes").AsUint64();
    const std::uint64_t zero = trial.Get("spec_zero_bytes").AsUint64();
    const std::uint64_t total = trial.Get("spec_total_bytes").AsUint64();
    table.AddRow({row.name, FormatWithCommas(real), PaperBytes(row.real),
                  FormatWithCommas(zero), PaperBytes(row.realz), FormatWithCommas(total),
                  PaperBytes(row.total),
                  FormatPercent(static_cast<double>(zero) / static_cast<double>(total)),
                  PaperPercent(row.pct_realz)});
  }
  out << table.ToString() << '\n';
}

void RenderTable42(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-2: Resident set sizes\n\n"
      << "Pages resident in physical memory at migration time. Paper values in "
         "parentheses.\n\n";
  MdTable table({"Process", "RS bytes", "(paper)", "% of Real", "(paper)", "% of Total",
                 "(paper)"});
  for (const PaperResident& row : kPaperResident) {
    const Json& trial = index.Find(row.name, "resident-set");
    const std::uint64_t rs = trial.Get("spec_resident_bytes").AsUint64();
    const double real = trial.Get("spec_real_bytes").AsDouble();
    const double total = trial.Get("spec_total_bytes").AsDouble();
    table.AddRow({row.name, FormatWithCommas(rs), PaperBytes(row.rs_size),
                  FormatPercent(rs / real), PaperPercent(row.pct_real),
                  FormatPercent(rs / total, 3), PaperPercent(row.pct_total, 3)});
  }
  out << table.ToString() << '\n';
}

void RenderTable43(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-3: Percent of address space accessed after migration\n\n"
      << "Fraction of the source address space the destination actually pulled "
         "over the wire, pure-IOU vs resident-set. Paper values in parentheses; "
         "(n/a) where the paper does not report the cell.\n\n";
  MdTable table({"Process", "IOU %Real", "(paper)", "IOU %Total", "(paper)", "RS %Real",
                 "(paper)", "RS %Total", "(paper)"});
  for (const PaperAccessed& row : kPaperAccessed) {
    const Json& iou = index.Find(row.name, "pure-IOU");
    const Json& rs = index.Find(row.name, "resident-set");
    table.AddRow({row.name, FormatPercent(iou.Get("frac_real_transferred").AsDouble()),
                  PaperPercent(row.iou_real),
                  FormatPercent(iou.Get("frac_total_transferred").AsDouble(), 3),
                  PaperPercent(row.iou_total, 3),
                  FormatPercent(rs.Get("frac_real_transferred").AsDouble()),
                  PaperPercent(row.rs_real),
                  FormatPercent(rs.Get("frac_total_transferred").AsDouble(), 3),
                  PaperPercent(row.rs_total, 3)});
  }
  out << table.ToString() << '\n';
}

void RenderTable44(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-4: Process excision times in seconds\n\n"
      << "AMap construction + RIMAS collapse + packaging, measured from the "
         "ExciseProcess trap (pure-copy, prefetch 0). Paper values in "
         "parentheses; section 4.3.1 reports insertion at 0.263 s (Minprog) to "
         "0.853 s (Lisp-Del).\n\n";
  MdTable table({"Process", "AMap", "(paper)", "RIMAS", "(paper)", "Overall", "(paper)",
                 "Insert"});
  for (const PaperExcision& row : kPaperExcision) {
    const Json& trial = index.Find(row.name, "pure-copy");
    table.AddRow({row.name, FormatSeconds(Seconds(trial, "excise_amap_us")),
                  Paper(row.amap), FormatSeconds(Seconds(trial, "excise_rimas_us")),
                  Paper(row.rimas), FormatSeconds(Seconds(trial, "excise_overall_us")),
                  Paper(row.overall), FormatSeconds(Seconds(trial, "insert_time_us"))});
  }
  out << table.ToString() << '\n';
}

void RenderTable45(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-5: Address space transfer times in seconds\n\n"
      << "Time from handing the RIMAS message to the IPC system until its "
         "arrival at the destination, per strategy (prefetch 0). Paper values "
         "in parentheses. `RS-cal` re-runs the resident-set trials with the "
         "zero-fill map-walk charge (`costs.rs_zero_scan_per_mb`) the paper's "
         "measured column carries — Lisp validates its whole 4 GB heap at "
         "birth, so partitioning its RIMAS walks ~4 GB of RealZero map.\n\n";

  // Calibrated resident-set rows (fresh trials, not the cached grid);
  // rendered as (n/a) when an older BENCH_sweep.json lacks the section.
  std::map<std::string, double> rs_cal;
  if (const Json* section = index.sweep().Find("rs_calibrated")) {
    for (const Json& row : section->AsArray()) {
      rs_cal[row.Get("workload").AsString()] =
          row.Get("rimas_transfer_us").AsDouble() / 1e6;
    }
  }

  MdTable table({"Process", "Pure-IOU", "(paper)", "RS", "RS-cal", "(paper)", "Copy",
                 "(paper)"});
  for (const PaperTransfer& row : kPaperTransfer) {
    const Json& iou = index.Find(row.name, "pure-IOU");
    const Json& rs = index.Find(row.name, "resident-set");
    const Json& copy = index.Find(row.name, "pure-copy");
    const auto cal = rs_cal.find(row.name);
    table.AddRow({row.name, FormatSeconds(Seconds(iou, "rimas_transfer_us")),
                  Paper(row.iou), FormatSeconds(Seconds(rs, "rimas_transfer_us")),
                  cal == rs_cal.end() ? "(n/a)" : FormatSeconds(cal->second, 1),
                  Paper(row.rs, 1), FormatSeconds(Seconds(copy, "rimas_transfer_us"), 1),
                  Paper(row.copy, 1)});
  }
  out << table.ToString() << '\n';
}

void RenderMetrics(const Json& sweep, std::ostream& out) {
  out << "## Sweep metrics registry\n\n"
      << "Aggregated over all " << sweep.Get("trial_count").AsUint64()
      << " grid trials (see `docs/OBSERVABILITY.md` for the schema).\n\n";
  const Json& metrics = sweep.Get("metrics");

  MdTable counters({"Counter", "Value"});
  for (const auto& [name, value] : metrics.Get("counters").AsObject()) {
    counters.AddRow({"`" + name + "`", FormatWithCommas(value.AsUint64())});
  }
  out << counters.ToString() << '\n';

  MdTable histograms({"Histogram", "Count", "Mean", "Min", "Max"});
  for (const auto& [name, h] : metrics.Get("histograms").AsObject()) {
    const std::uint64_t count = h.Get("count").AsUint64();
    const double mean = count == 0 ? 0.0 : h.Get("sum").AsDouble() / count;
    histograms.AddRow({"`" + name + "`", FormatWithCommas(count), FormatDouble(mean, 3),
                       FormatDouble(h.Get("min").AsDouble(), 3),
                       FormatDouble(h.Get("max").AsDouble(), 3)});
  }
  out << histograms.ToString() << '\n';
}

void RenderFailureMatrix(const Json& failure, std::ostream& out) {
  out << "## Failure matrix\n\n"
      << "Seven workloads x four strategies under a lossy / partitioning / "
         "crashing wire (`failure_sweep`). Invariants: nothing hangs, every "
         "completed migration has intact contents.\n\n";

  const Json* restored = failure.Find("restored");
  MdTable totals({"Trials", "Completed", "Aborted", "Terminal faults", "Restored", "Hung",
                  "Integrity failures"});
  totals.AddRow({FormatWithCommas(failure.Get("trial_count").AsUint64()),
                 FormatWithCommas(failure.Get("completed").AsUint64()),
                 FormatWithCommas(failure.Get("aborted").AsUint64()),
                 FormatWithCommas(failure.Get("terminal_faults").AsUint64()),
                 restored == nullptr ? "(n/a)" : FormatWithCommas(restored->AsUint64()),
                 FormatWithCommas(failure.Get("hung").AsUint64()),
                 FormatWithCommas(failure.Get("integrity_failures").AsUint64())});
  out << totals.ToString() << '\n';

  // Per-strategy x scenario terminal-fault cells (schema_version >= 2) — the
  // paper's section-5 residual-dependency kills, localised. Every pure-IOU
  // source_crash trial dies here with the store off; checkpoint_sweep re-runs
  // the same matrix against the durable store and must flip them all.
  if (const Json* breakdown = failure.Find("terminal_breakdown")) {
    out << "Terminal faults by strategy and fault scenario. A non-zero cell "
           "is a process that died with its source host — the residual-"
           "dependency cost of copy-on-reference the paper's section 5 "
           "predicts.\n\n";
    std::vector<std::string> scenarios;
    for (const auto& [strategy, cells] : breakdown->AsObject()) {
      for (const auto& [scenario, count] : cells.AsObject()) {
        (void)count;
        if (std::find(scenarios.begin(), scenarios.end(), scenario) == scenarios.end()) {
          scenarios.push_back(scenario);
        }
      }
      break;  // every strategy row carries the same scenario columns
    }
    std::vector<std::string> headers = {"Strategy"};
    for (const std::string& scenario : scenarios) {
      headers.push_back("`" + scenario + "`");
    }
    MdTable cells_table(std::move(headers));
    for (const auto& [strategy, cells] : breakdown->AsObject()) {
      std::vector<std::string> row = {"`" + strategy + "`"};
      for (const std::string& scenario : scenarios) {
        row.push_back(FormatWithCommas(cells.Get(scenario).AsUint64()));
      }
      cells_table.AddRow(std::move(row));
    }
    out << cells_table.ToString() << '\n';
  }

  struct ScenarioAgg {
    std::uint64_t trials = 0, completed = 0, aborted = 0;
    std::uint64_t retransmits = 0, duplicates = 0, dead_letters = 0;
  };
  std::map<std::string, ScenarioAgg> scenarios;
  for (const Json& trial : failure.Get("trials").AsArray()) {
    ScenarioAgg& agg = scenarios[trial.Get("scenario").AsString()];
    ++agg.trials;
    const std::string outcome = trial.Get("outcome").AsString();
    agg.completed += outcome == "completed" ? 1 : 0;
    agg.aborted += outcome == "aborted" ? 1 : 0;
    agg.retransmits += trial.Get("fragments_retransmitted").AsUint64();
    agg.duplicates += trial.Get("duplicates_suppressed").AsUint64();
    agg.dead_letters += trial.Get("transfers_dead_lettered").AsUint64();
  }
  MdTable table({"Scenario", "Trials", "Completed", "Aborted", "Retransmits",
                 "Dup suppressed", "Dead-lettered"});
  for (const auto& [name, agg] : scenarios) {
    table.AddRow({"`" + name + "`", FormatWithCommas(agg.trials),
                  FormatWithCommas(agg.completed), FormatWithCommas(agg.aborted),
                  FormatWithCommas(agg.retransmits), FormatWithCommas(agg.duplicates),
                  FormatWithCommas(agg.dead_letters)});
  }
  out << table.ToString() << '\n';
}

void RenderCheckpoint(const Json& ckpt, std::ostream& out) {
  out << "## Durable checkpoint store: the failure matrix, survivable\n\n"
      << "`checkpoint_sweep` re-runs the failure matrix with the persistent "
         "object store enabled (docs/INTERNALS.md §16): every migration "
         "checkpoints the excised image to a versioned store object first, so "
         "a source-host crash restores the process on a surviving host from "
         "the store instead of killing it. Compare the terminal-fault "
         "breakdown above — with the store on, every cell must read "
         "zero.\n\n";

  MdTable totals({"Trials", "Completed", "Aborted", "Terminal faults", "Restored", "Hung",
                  "Integrity failures"});
  totals.AddRow({FormatWithCommas(ckpt.Get("trial_count").AsUint64()),
                 FormatWithCommas(ckpt.Get("completed").AsUint64()),
                 FormatWithCommas(ckpt.Get("aborted").AsUint64()),
                 FormatWithCommas(ckpt.Get("terminal_faults").AsUint64()),
                 FormatWithCommas(ckpt.Get("restored").AsUint64()),
                 FormatWithCommas(ckpt.Get("hung").AsUint64()),
                 FormatWithCommas(ckpt.Get("integrity_failures").AsUint64())});
  out << totals.ToString() << '\n';

  out << "Gates: "
      << FormatWithCommas(ckpt.Get("unsurvivable_pure_iou_source_crash").AsUint64())
      << " unsurvivable pure-IOU source-crash cells (0 required); every restored "
         "incarnation's contents matched a lossless reference run; the store-off "
         "77-trial golden digest is unchanged (golden_sweep_test).\n\n";
}

void RenderPreCopy(const Json& precopy, std::ostream& out) {
  out << "## Pre-copy Pareto frontier: downtime vs bytes\n\n"
      << "`precopy_sweep` measures the fourth strategy family — live "
         "iterative pre-copy with dirty-page tracking — against the paper's "
         "three, per workload. Each pre-copy row is the best-downtime cell "
         "over the round-cap x downtime-SLO grid. Pre-copy buys its short "
         "freeze by re-shipping dirtied pages, so it always pays in page "
         "bytes (section 5's critique, quantified); copy-on-reference still "
         "dominates both axes.\n\n";

  MdTable table({"Process", "Live", "Copy down (s)", "Pre-copy down (s)", "IOU down (s)",
                 "Copy bytes", "Pre-copy bytes", "IOU bytes", "Rounds", "Win"});
  for (const Json& row : precopy.Get("pareto").AsArray()) {
    table.AddRow(
        {row.Get("workload").AsString(), row.Get("live").AsBool() ? "yes" : "staged",
         FormatDouble(row.Get("purecopy_downtime_s").AsDouble(), 2),
         FormatDouble(row.Get("precopy_downtime_s").AsDouble(), 2),
         FormatDouble(row.Get("iou_downtime_s").AsDouble(), 2),
         FormatWithCommas(row.Get("purecopy_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("precopy_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("iou_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("precopy_rounds").AsUint64()),
         row.Get("downtime_win").AsBool() ? "yes" : "no"});
  }
  out << table.ToString() << '\n';

  out << "Grid gates: " << precopy.Get("completed").AsUint64() << "/"
      << precopy.Get("trial_count").AsUint64() << " cells completed, "
      << precopy.Get("hung").AsUint64() << " hung; "
      << precopy.Get("downtime_wins").AsUint64()
      << " compute-bound downtime wins vs pure-copy; byte ordering "
         "pre-copy >= pure-copy >= IOU "
      << (precopy.Get("bytes_ordering_ok").AsBool() ? "held" : "BROKE") << "; SLO predictor "
      << (precopy.Get("slo_ok").AsBool() ? "fired on every compute-bound workload"
                                         : "FAILED to fire")
      << ".\n\n";
}

void RenderDedup(const Json& dedup, std::ostream& out) {
  out << "## Content-addressed dedup: repeated migrations of one image\n\n"
      << "`dedup_sweep` migrates the same " << dedup.Get("workload").AsString() << " image "
      << dedup.Get("repeats").AsUint64() << " times across a calibrated "
      << dedup.Get("hosts").AsUint64()
      << "-host fleet, content cache on vs off. With the cache on, a "
         "destination that already holds a page's bytes installs it on a "
         "small confirm ack instead of pulling the payload from the origin "
         "backer, and misses are served by the nearest holder before the "
         "origin — the per-round table shows the origin falling out of the "
         "fault path as the fleet warms up.\n\n";

  MdTable table({"Round", "Dest", "Faulted", "Confirm acks", "Holder pulls",
                 "Origin payload", "Wire bytes"});
  for (const Json& row : dedup.Get("cached").Get("rounds").AsArray()) {
    table.AddRow({FormatWithCommas(row.Get("round").AsUint64()),
                  "host " + std::to_string(row.Get("dest_host").AsUint64()),
                  FormatWithCommas(row.Get("faulted_pages").AsUint64()),
                  FormatWithCommas(row.Get("confirmed_pages").AsUint64()),
                  FormatWithCommas(row.Get("holder_pages").AsUint64()),
                  FormatWithCommas(row.Get("origin_payload_pages").AsUint64()),
                  FormatWithCommas(row.Get("wire_bytes").AsUint64())});
  }
  out << table.ToString() << '\n';

  out << "Gates: origin offload "
      << FormatDouble(100.0 * dedup.Get("origin_offload_ratio").AsDouble(), 1)
      << "% of faulted pages (>= 50% required); wire bytes "
      << FormatWithCommas(dedup.Get("wire_bytes_cached").AsUint64()) << " cached vs "
      << FormatWithCommas(dedup.Get("wire_bytes_baseline").AsUint64()) << " baseline ("
      << FormatWithCommas(dedup.Get("wire_bytes_saved").AsUint64()) << " saved); cache "
      << FormatWithCommas(dedup.Get("cached").Get("cache_hits").AsUint64()) << " hits / "
      << FormatWithCommas(dedup.Get("cached").Get("cache_misses").AsUint64()) << " misses / "
      << FormatWithCommas(dedup.Get("cached").Get("cache_evictions").AsUint64())
      << " evictions; " << dedup.Get("integrity_failures").AsUint64()
      << " integrity failures. The hash rider costs 16 B per real page up "
         "front, so dedup pays off only when the migrated image's touch "
         "fraction is high enough — docs/STRATEGIES.md quantifies the "
         "crossover.\n\n";
}

void RenderMicroSim(const Json& sim, std::ostream& out) {
  out << "## Event-loop micro bench\n\n"
      << "`micro_sim` drains the simulator queue through the inline-storage "
         "event path (40-byte captures, best of reps).\n\n";
  MdTable table({"Events", "Events/s", "ns/event"});
  table.AddRow({FormatWithCommas(sim.Get("events").AsUint64()),
                FormatWithCommas(
                    static_cast<std::uint64_t>(sim.Get("inline_events_per_sec").AsDouble())),
                FormatDouble(sim.Get("inline_ns_per_event").AsDouble(), 1)});
  out << table.ToString() << '\n';

  out << "## Page-payload data plane\n\n"
      << "Host-side payload work behind the simulation: page payloads are "
         "shared by refcount, so the only bytes duplicated are copy-on-write "
         "breaks. Simulated costs never read these counters. Both byte counts "
         "are gated against absolute bounds (`bench/micro_sim`, "
         "`tools/check_bench.sh`).\n\n";
  MdTable plane({"Measurement", "Bytes copied", "Payload allocs", "Payload shares",
                 "COW breaks"});
  plane.AddRow({sim.Get("copy_trial_workload").AsString() + " trial",
                FormatWithCommas(sim.Get("copy_trial_zero_copy_bytes_copied").AsUint64()),
                FormatWithCommas(sim.Get("copy_trial_zero_copy_payload_allocs").AsUint64()),
                FormatWithCommas(sim.Get("copy_trial_zero_copy_payload_shares").AsUint64()),
                FormatWithCommas(sim.Get("copy_trial_zero_copy_cow_breaks").AsUint64())});
  out << plane.ToString() << '\n';
  out << "The serial " << sim.Get("sweep_trials").AsUint64() << "-trial sweep copies "
      << FormatWithCommas(sim.Get("sweep_zero_copy_bytes_copied").AsUint64())
      << " payload bytes and takes "
      << FormatDouble(sim.Get("sweep_zero_copy_seconds").AsDouble(), 3)
      << " s of host time (best of " << sim.Get("sweep_reps").AsUint64() << ").\n\n";
}

void RenderCluster(const Json& cluster, std::ostream& out) {
  out << "## Fleet-scale cluster sweep\n\n"
      << "`cluster_sweep` runs a switched row of hosts under continuous "
         "Poisson churn with balancer-driven migrations (costs from the "
         "calibrated two-Perq formulas), once per shard count on the sharded "
         "event loop. Results are byte-identical across shard counts; the "
         "speedups are wall-clock only.\n\n";

  const Json& big = cluster.Get("big_trial");
  MdTable headline({"Hosts", "Arrived", "Migrations", "Steady thr (mig/s)",
                    "Queueing p50/p99 (s)", "Downtime p50/p99 (s)",
                    "Speedup 2sh", "Speedup 8sh"});
  auto secs = [](const Json& trial, const char* key) {
    return FormatDouble(trial.Get(key).AsDouble() / 1e6, 2);
  };
  headline.AddRow(
      {FormatWithCommas(big.Get("hosts").AsUint64()),
       FormatWithCommas(big.Get("arrived").AsUint64()),
       FormatWithCommas(big.Get("migrations_completed").AsUint64()),
       FormatDouble(big.Get("steady_migrations_per_sec").AsDouble(), 3),
       secs(big, "queueing_p50_us") + " / " + secs(big, "queueing_p99_us"),
       secs(big, "downtime_p50_us") + " / " + secs(big, "downtime_p99_us"),
       FormatDouble(cluster.Get("speedup_shards_2").AsDouble(), 2) + "x",
       FormatDouble(cluster.Get("speedup_shards_8").AsDouble(), 2) + "x"});
  out << headline.ToString() << '\n';

  out << "Policy grid (imbalance threshold x hysteresis x dispersal weight, "
         "per cluster size):\n\n";
  MdTable grid({"Hosts", "Threshold", "Hysteresis", "Dispersal", "Migrations",
                "Unfilled", "Steady thr (mig/s)", "Queueing p99 (s)",
                "Downtime p99 (s)"});
  for (const Json& row : cluster.Get("policy_sweep").AsArray()) {
    const Json& policy = row.Get("policy");
    grid.AddRow({FormatWithCommas(row.Get("hosts").AsUint64()),
                 FormatWithCommas(policy.Get("imbalance_threshold").AsUint64()),
                 FormatWithCommas(policy.Get("hysteresis").AsUint64()),
                 FormatDouble(policy.Get("dispersal_weight").AsDouble(), 1),
                 FormatWithCommas(row.Get("migrations_completed").AsUint64()),
                 FormatWithCommas(row.Get("directives_unfilled").AsUint64()),
                 FormatDouble(row.Get("steady_migrations_per_sec").AsDouble(), 3),
                 secs(row, "queueing_p99_us"), secs(row, "downtime_p99_us")});
  }
  out << grid.ToString() << '\n';
}

bool LoadJson(const std::string& path, Json* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  return Json::TryParse(text.str(), out);
}

int Main(int argc, char** argv) {
  std::string sweep_path = "BENCH_sweep.json";
  std::string sim_path;
  std::string failure_path;
  std::string cluster_path;
  std::string precopy_path;
  std::string dedup_path;
  std::string checkpoint_path;
  std::string out_path = "docs/RESULTS.md";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "render_results: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--print-template-version") == 0) {
      std::printf("%d\n", kTemplateVersion);
      return 0;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep_path = next("--sweep");
    } else if (std::strcmp(argv[i], "--sim") == 0) {
      sim_path = next("--sim");
    } else if (std::strcmp(argv[i], "--failure") == 0) {
      failure_path = next("--failure");
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster_path = next("--cluster");
    } else if (std::strcmp(argv[i], "--precopy") == 0) {
      precopy_path = next("--precopy");
    } else if (std::strcmp(argv[i], "--dedup") == 0) {
      dedup_path = next("--dedup");
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint_path = next("--checkpoint");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else {
      std::fprintf(stderr,
                   "usage: render_results [--sweep BENCH_sweep.json] [--sim BENCH_sim.json]\n"
                   "                      [--failure BENCH_failure.json]\n"
                   "                      [--cluster BENCH_cluster.json]\n"
                   "                      [--precopy BENCH_precopy.json]\n"
                   "                      [--dedup BENCH_dedup.json]\n"
                   "                      [--checkpoint BENCH_checkpoint.json]\n"
                   "                      [--out RESULTS.md] [--print-template-version]\n");
      return 2;
    }
  }

  Json sweep;
  if (!LoadJson(sweep_path, &sweep)) {
    std::fprintf(stderr, "render_results: cannot read sweep summary %s (run run_all first)\n",
                 sweep_path.c_str());
    return 1;
  }
  SweepIndex index(sweep);

  std::ostringstream out;
  out << "<!-- Generated by tools/render_results (template v" << kTemplateVersion
      << "). Do not edit by hand. -->\n"
      << "# Results\n\n"
      << "Simulated reproduction of the measurements in *Attacking the Process "
         "Migration Bottleneck* (Zayas, SOSP 1987), rendered from the machine-"
         "readable bench reports. Paper-published values appear in parentheses "
         "next to ours; `(n/a)` marks cells the paper does not report.\n\n"
      << "Regenerate with:\n\n"
      << "```sh\n"
      << "cmake --build build -j\n"
      << "(cd build && ./bench/run_all && ./bench/micro_sim && ./bench/failure_sweep \\\n"
      << "    && ./bench/cluster_sweep && ./bench/precopy_sweep && ./bench/dedup_sweep \\\n"
      << "    && ./bench/checkpoint_sweep)\n"
      << "./build/tools/render_results --sweep build/BENCH_sweep.json \\\n"
      << "    --sim build/BENCH_sim.json --failure build/BENCH_failure.json \\\n"
      << "    --cluster build/BENCH_cluster.json --precopy build/BENCH_precopy.json \\\n"
      << "    --dedup build/BENCH_dedup.json --checkpoint build/BENCH_checkpoint.json \\\n"
      << "    --out docs/RESULTS.md\n"
      << "```\n\n"
      << "Sweep grid: " << sweep.Get("trial_count").AsUint64() << " trials, seed "
      << sweep.Get("seed").AsUint64() << ".\n\n";

  RenderTable41(index, out);
  RenderTable42(index, out);
  RenderTable43(index, out);
  RenderTable44(index, out);
  RenderTable45(index, out);

  Json failure;
  if (!failure_path.empty() && LoadJson(failure_path, &failure)) {
    RenderFailureMatrix(failure, out);
  } else if (!failure_path.empty()) {
    std::fprintf(stderr, "render_results: skipping failure matrix (cannot read %s)\n",
                 failure_path.c_str());
  }

  Json checkpoint;
  if (!checkpoint_path.empty() && LoadJson(checkpoint_path, &checkpoint)) {
    RenderCheckpoint(checkpoint, out);
  } else if (!checkpoint_path.empty()) {
    std::fprintf(stderr, "render_results: skipping checkpoint sweep (cannot read %s)\n",
                 checkpoint_path.c_str());
  }

  Json precopy;
  if (!precopy_path.empty() && LoadJson(precopy_path, &precopy)) {
    RenderPreCopy(precopy, out);
  } else if (!precopy_path.empty()) {
    std::fprintf(stderr, "render_results: skipping pre-copy frontier (cannot read %s)\n",
                 precopy_path.c_str());
  }

  Json dedup;
  if (!dedup_path.empty() && LoadJson(dedup_path, &dedup)) {
    RenderDedup(dedup, out);
  } else if (!dedup_path.empty()) {
    std::fprintf(stderr, "render_results: skipping dedup sweep (cannot read %s)\n",
                 dedup_path.c_str());
  }

  Json sim;
  if (!sim_path.empty() && LoadJson(sim_path, &sim)) {
    RenderMicroSim(sim, out);
  } else if (!sim_path.empty()) {
    std::fprintf(stderr, "render_results: skipping micro bench (cannot read %s)\n",
                 sim_path.c_str());
  }

  Json cluster;
  if (!cluster_path.empty() && LoadJson(cluster_path, &cluster)) {
    RenderCluster(cluster, out);
  } else if (!cluster_path.empty()) {
    std::fprintf(stderr, "render_results: skipping cluster sweep (cannot read %s)\n",
                 cluster_path.c_str());
  }

  RenderMetrics(sweep, out);

  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "render_results: cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << out.str();
  std::printf("render_results: wrote %s (template v%d)\n", out_path.c_str(),
              kTemplateVersion);
  return 0;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
