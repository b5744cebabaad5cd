// One migration trial: the unit of the paper's evaluation.
//
// Builds a fresh two-host testbed, stages a representative process at its
// migration point on host A, migrates it to host B under a given strategy
// and prefetch value, runs it to completion there and collects every metric
// the evaluation section reports.
#ifndef SRC_EXPERIMENTS_TRIAL_H_
#define SRC_EXPERIMENTS_TRIAL_H_

#include <string>
#include <vector>

#include "src/migration/migration_record.h"
#include "src/migration/strategy.h"
#include "src/net/traffic.h"
#include "src/vm/pager.h"
#include "src/workloads/workload.h"

namespace accent {

struct TrialConfig {
  std::string workload = "Minprog";
  TransferStrategy strategy = TransferStrategy::kPureCopy;
  std::uint32_t prefetch = 0;
  std::uint64_t seed = 42;
  bool iou_caching = true;  // ablation: NetMsgServer substitution on/off
  std::size_t frames_per_host = 4096;
  SimDuration traffic_bucket = Ms(500);  // Figure 4-5 series resolution

  // Resident-set calibration knob (costs.rs_zero_scan_per_mb): extra RIMAS
  // packaging charge per megabyte of zero-fill footprint. Zero by default
  // and deliberately NOT part of the serialised trial configuration
  // (sweep_cache.cc) — the headline sweep's golden digest must not change.
  SimDuration rs_zero_scan_per_mb{0};

  // Pre-copy knobs, consulted only when strategy == kPreCopy (the manager's
  // default PreCopyConfig is overridden with these). Serialised only for
  // pre-copy trials (sweep_cache.cc), so every older config hashes exactly
  // as before.
  int precopy_max_rounds = 3;
  PageIndex precopy_stop_threshold = 4;
  SimDuration precopy_target_downtime{0};  // 0 = round-cap termination only

  // Content-addressed page service (the dedup plane). A two-host trial has
  // no third-party holders, so this mostly exposes the rider/probe overhead
  // for ablation; the fleet-scale dedup effect lives in bench/dedup_sweep.
  // Serialised only when enabled (sweep_cache.cc), so every older config
  // hashes exactly as before.
  bool content_cache = false;
  std::int64_t content_cache_pages = 4096;

  // Durable checkpoint store (docs/INTERNALS.md §16). The put traffic and
  // the store's replies shift phase timings, so this is part of the trial's
  // identity; serialised only when enabled (sweep_cache.cc) so every older
  // config hashes exactly as before.
  bool checkpoint = false;

  // Optional observability hook (not owned, may be null). Deliberately NOT
  // part of the serialised trial configuration (sweep_cache.cc) — tracing
  // never changes results, so a traced run must serialise identically.
  Tracer* tracer = nullptr;
};

struct TrialResult {
  TrialConfig config;
  WorkloadSpec spec;
  MigrationRecord migration;

  SimTime finished{0};        // remote completion
  SimDuration remote_exec{0}; // finished - resumed

  // Byte traffic between the machines (Figure 4-3 / 4-5).
  ByteCount bytes_total = 0;
  ByteCount bytes_control = 0;
  ByteCount bytes_core = 0;
  ByteCount bytes_bulk = 0;
  ByteCount bytes_fault = 0;
  std::uint64_t messages_total = 0;
  std::vector<TrafficRecorder::Bucket> series;
  SimDuration series_bucket{0};

  // Message-handling cost (Figure 4-4): NetMsgServer busy time, both nodes.
  SimDuration netmsg_busy{0};

  // Destination-side fault behaviour.
  PagerStats dest_pager;

  // RealMem bytes that crossed the wire as page data (Table 4-3).
  ByteCount real_bytes_transferred = 0;

  // --- derived -------------------------------------------------------------
  // Figure 4-2's summed metric: address-space transfer + remote execution.
  SimDuration TransferPlusExec() const {
    return migration.RimasTransferTime() + remote_exec;
  }
  double FractionOfRealTransferred() const {
    return spec.real_bytes == 0
               ? 0.0
               : static_cast<double>(real_bytes_transferred) / static_cast<double>(spec.real_bytes);
  }
  double FractionOfTotalTransferred() const {
    return spec.total_bytes() == 0 ? 0.0
                                   : static_cast<double>(real_bytes_transferred) /
                                         static_cast<double>(spec.total_bytes());
  }
};

// Runs a complete trial. Deterministic for a given config.
TrialResult RunTrial(const TrialConfig& config);

// Sweeps the paper's full grid for one workload: strategies x prefetch.
// Pure-copy ignores prefetch, so it runs once.
std::vector<TrialResult> RunStrategySweep(const std::string& workload, std::uint64_t seed = 42);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_TRIAL_H_
