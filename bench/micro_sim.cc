// Microbenchmark of the simulator event loop and the page-payload data
// plane, emitting machine-readable JSON (BENCH_sim.json) so the per-event
// cost and the host-side copy traffic are tracked from change to change.
//
// The event-loop section drives the production Simulator (InlineEvent
// small-buffer callable, binary heap on a reserved std::vector) through a
// self-perpetuating event storm and reports the best-of-reps rate.
//
// The data-plane section runs the copy-heaviest grid cell (PM-Mid
// pure-copy) and the full 77-trial sweep, and reads the PageRef counters:
// payload bytes the host duplicated, allocations, shares and copy-on-write
// breaks. Both byte counts must stay within absolute bounds, asserted here
// and re-checked from the JSON by tools/check_bench.sh.
//
// Usage: micro_sim [--events N] [--reps N] [--sweep-reps N] [--out PATH]
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/json.h"
#include "src/base/page_ref.h"
#include "src/experiments/sweep.h"
#include "src/sim/simulator.h"

namespace accent {
namespace {

// --- the storm ------------------------------------------------------------
//
// `width` concurrent event chains; every event re-arms itself at a pseudo-
// random future instant until the budget is spent, carrying `PayloadWords`
// machine words of capture. This mirrors the simulator's real life: many
// interleaved actors (processes, pagers, wires) each scheduling their next
// step from inside an event.
//
// PayloadWords=0 gives an 8-byte [this] capture; PayloadWords=4 reproduces
// the dominant production shape — Cpu::StartNext's [this, done =
// std::function] completion wrapper, 40 bytes — which InlineEvent stores
// without a heap allocation.

template <std::size_t PayloadWords>
struct Storm {
  Simulator sim;
  std::uint64_t remaining;
  std::uint64_t sink = 0;
  std::uint64_t rng_state = 0x9e3779b97f4a7c15ull;

  explicit Storm(std::uint64_t events) : remaining(events) {}

  SimDuration NextDelay() {
    rng_state ^= rng_state << 13;
    rng_state ^= rng_state >> 7;
    rng_state ^= rng_state << 17;
    return Us(static_cast<std::int64_t>(rng_state % 97) + 1);
  }

  void Arm() {
    if constexpr (PayloadWords == 0) {
      sim.ScheduleAfter(NextDelay(), [this] { Step(0); });
    } else {
      std::array<std::uint64_t, PayloadWords> payload;
      for (std::size_t i = 0; i < PayloadWords; ++i) {
        payload[i] = rng_state + i;
      }
      sim.ScheduleAfter(NextDelay(), [this, payload] { Step(payload[PayloadWords - 1]); });
    }
  }

  void Step(std::uint64_t carried) {
    sink += carried;
    if (remaining == 0) {
      return;
    }
    --remaining;
    Arm();
  }

  std::uint64_t Run(int width) {
    for (int i = 0; i < width; ++i) {
      Arm();
    }
    return sim.Run();
  }
};

template <std::size_t PayloadWords>
double MeasureEventsPerSec(std::uint64_t events, int reps) {
  constexpr int kWidth = 64;
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Storm<PayloadWords> storm(events);
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t executed = storm.Run(kWidth);
    const auto stop = std::chrono::steady_clock::now();
    ACCENT_CHECK_GE(executed, events);
    ACCENT_CHECK_GE(storm.sink, 0u);  // keep the payload observable
    const double seconds = std::chrono::duration<double>(stop - start).count();
    const double rate = static_cast<double>(executed) / seconds;
    if (rate > best) {
      best = rate;
    }
  }
  return best;
}

// --- the data plane -------------------------------------------------------
//
// Every simulated cost derives from sizes and counts, never from payload
// identity, so these counters are pure host-side work: what the zero-copy
// data plane still duplicates (copy-on-write breaks, explicit clones).

// Absolute ceilings on payload bytes duplicated, at today's values: 112
// COW breaks in the PM-Mid pure-copy trial, 6,072 over the 77-trial sweep.
constexpr std::uint64_t kMaxCopyTrialBytesCopied = 57344;
constexpr std::uint64_t kMaxSweepBytesCopied = 3108864;

struct DataPlaneOutcome {
  PageCounterSnapshot trial;  // PM-Mid pure-copy trial (PASMAC mid-life)
  PageCounterSnapshot sweep;  // counters for one full sweep
  std::size_t sweep_trials = 0;
  double sweep_seconds = 0;  // fastest serial 77-trial sweep
};

DataPlaneOutcome MeasureDataPlane(int sweep_reps) {
  DataPlaneOutcome outcome;

  // The paper's pure-copy PASMAC trial: every resident page crosses the wire
  // in bulk fragments, so this is the copy-heaviest cell of the grid.
  TrialConfig copy_trial;
  copy_trial.workload = "PM-Mid";
  copy_trial.strategy = TransferStrategy::kPureCopy;
  ResetPageCounters();
  RunTrial(copy_trial);
  outcome.trial = ReadPageCounters();

  // Full 77-trial sweep, serial so the wall clock is scheduling-free.
  const std::vector<TrialConfig> grid = PaperGridConfigs();
  for (int rep = 0; rep < sweep_reps; ++rep) {
    ResetPageCounters();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<TrialResult> results = RunTrials(grid, /*threads=*/1);
    const auto stop = std::chrono::steady_clock::now();
    outcome.sweep = ReadPageCounters();
    outcome.sweep_trials = results.size();
    const double seconds = std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < outcome.sweep_seconds) {
      outcome.sweep_seconds = seconds;
    }
  }
  return outcome;
}

int Main(int argc, char** argv) {
  std::uint64_t events = 500000;
  int reps = 3;
  int sweep_reps = 2;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--sweep-reps") == 0 && i + 1 < argc) {
      sweep_reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--events N] [--reps N] [--sweep-reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  ACCENT_CHECK_GT(events, 0u);
  ACCENT_CHECK_GT(reps, 0);
  ACCENT_CHECK_GT(sweep_reps, 0);

  // Headline number uses the production-shaped 40-byte capture; the 8-byte
  // small-capture storm is reported alongside.
  const double inline_rate = MeasureEventsPerSec<4>(events, reps);
  const double inline_small = MeasureEventsPerSec<0>(events, reps);

  const DataPlaneOutcome plane = MeasureDataPlane(sweep_reps);
  ACCENT_CHECK_LE(plane.trial.page_bytes_copied, kMaxCopyTrialBytesCopied)
      << " PM-Mid pure-copy trial duplicates more payload bytes than its bound";
  ACCENT_CHECK_LE(plane.sweep.page_bytes_copied, kMaxSweepBytesCopied)
      << " 77-trial sweep duplicates more payload bytes than its bound";

  Json report;
  report["bench"] = Json("micro_sim");
  report["schema_version"] = Json(3);
  report["events"] = Json(events);
  report["reps"] = Json(reps);
  report["capture_bytes"] = Json(40);
  report["inline_events_per_sec"] = Json(inline_rate);
  report["inline_ns_per_event"] = Json(1e9 / inline_rate);
  report["small_capture_inline_events_per_sec"] = Json(inline_small);

  // Data-plane section: the PM-Mid pure-copy trial is the copy-heaviest grid
  // cell; the sweep rows cover all 77 trials, run serially.
  report["copy_trial_workload"] = Json("PM-Mid pure-copy");
  report["copy_trial_zero_copy_bytes_copied"] = Json(plane.trial.page_bytes_copied);
  report["copy_trial_zero_copy_payload_allocs"] = Json(plane.trial.payload_allocs);
  report["copy_trial_zero_copy_payload_shares"] = Json(plane.trial.payload_shares);
  report["copy_trial_zero_copy_cow_breaks"] = Json(plane.trial.cow_breaks);
  report["sweep_trials"] = Json(static_cast<std::uint64_t>(plane.sweep_trials));
  report["sweep_reps"] = Json(sweep_reps);
  report["sweep_zero_copy_seconds"] = Json(plane.sweep_seconds);
  report["sweep_zero_copy_bytes_copied"] = Json(plane.sweep.page_bytes_copied);

  std::ofstream out(out_path, std::ios::trunc);
  ACCENT_CHECK(out.good()) << " cannot open " << out_path;
  out << report.Dump(2) << '\n';
  ACCENT_CHECK(out.good());

  std::printf("=== micro_sim: event-loop throughput ===\n");
  std::printf("40-byte captures: %12.0f events/sec (%.1f ns/event)\n", inline_rate,
              1e9 / inline_rate);
  std::printf(" 8-byte captures: %12.0f events/sec  -> %s\n", inline_small, out_path.c_str());
  std::printf("=== micro_sim: page-payload data plane ===\n");
  std::printf("PM-Mid pure-copy trial: %10llu bytes copied (bound %llu)\n",
              static_cast<unsigned long long>(plane.trial.page_bytes_copied),
              static_cast<unsigned long long>(kMaxCopyTrialBytesCopied));
  std::printf("77-trial sweep, serial: %10llu bytes copied (bound %llu), %.3f s\n",
              static_cast<unsigned long long>(plane.sweep.page_bytes_copied),
              static_cast<unsigned long long>(kMaxSweepBytesCopied), plane.sweep_seconds);
  return 0;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
