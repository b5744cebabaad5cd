#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/base/page_ref.h"
#include "src/experiments/cluster.h"
#include "src/experiments/failure_sweep.h"
#include "src/experiments/metrics_fold.h"
#include "src/experiments/sweep.h"
#include "src/experiments/sweep_cache.h"
#include "src/experiments/testbed.h"
#include "src/experiments/trial.h"
#include "src/metrics/registry.h"
#include "src/trace/trace.h"
#include "src/workloads/workload.h"

namespace perfbench {
namespace {

using accent::ReadPageCounters;

// FNV-1a, exactly as golden_sweep_test digests the grid.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double SimMs(accent::SimDuration d) { return static_cast<double>(d.count()) / 1000.0; }

// Nearest-rank percentile of simulated values (exact, repeatable).
double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// Adds the page-counter delta of one simulator call to the pass record.
class PageDelta {
 public:
  PageDelta(SpanRecorder* spans, std::uint64_t parent, std::uint64_t trial)
      : spans_(spans), parent_(parent), trial_(trial), before_(Read()) {}

  void AddTo(PassRecord* pass) const {
    const accent::PageCounterSnapshot after = Read();
    pass->layer["page.bytes_copied"] +=
        static_cast<double>(after.page_bytes_copied - before_.page_bytes_copied);
    pass->layer["page.payload_allocs"] +=
        static_cast<double>(after.payload_allocs - before_.payload_allocs);
    pass->layer["page.payload_shares"] +=
        static_cast<double>(after.payload_shares - before_.payload_shares);
    pass->layer["page.cow_breaks"] += static_cast<double>(after.cow_breaks - before_.cow_breaks);
  }

 private:
  accent::PageCounterSnapshot Read() const {
    ScopedSpan span(spans_, "ReadPageCounters", parent_, trial_);
    return ReadPageCounters();
  }

  SpanRecorder* spans_;
  std::uint64_t parent_;
  std::uint64_t trial_;
  accent::PageCounterSnapshot before_;
};

// Times BuildWorkload alone on a fresh two-host testbed (the configuration
// every trial here uses), which RunTrial and the failure sweep do not
// expose separately.
void ProbeBuild(SpanRecorder* spans, std::uint64_t parent, std::uint64_t trial,
                const std::string& workload, std::uint64_t seed, const std::string& label) {
  accent::Testbed bed(accent::TestbedConfig{});
  accent::WorkloadInstance instance;
  ScopedSpan span(spans, "BuildWorkload", parent, trial, label);
  instance = accent::BuildWorkload(accent::WorkloadByName(workload), bed.host(0), seed);
}

// ---------------------------------------------------------------------------
// paper_grid: the paper's 7 workloads x 11 configs, two hosts per trial.
class PaperGrid : public Workload {
 public:
  explicit PaperGrid(std::uint64_t seed) : seed_(seed) {}

  void Setup(std::uint64_t* warmup_trials, std::vector<PassRecord>*) override {
    // One warm-up trial per workload: its first grid config (pure-copy).
    for (const accent::WorkloadSpec& spec : accent::RepresentativeWorkloads()) {
      const accent::TrialResult result =
          accent::RunTrial(accent::StrategySweepConfigs(spec.name, seed_).front());
      accent::TrialResultToJson(result).Dump();
      ++*warmup_trials;
    }
  }

  PassRecord RunPass(SpanRecorder* spans, TrialTimes* times) override {
    PassRecord pass;
    accent::MetricsRegistry registry;
    std::uint64_t digest = kFnvBasis;
    std::vector<double> downtimes;
    for (const accent::WorkloadSpec& spec : accent::RepresentativeWorkloads()) {
      for (accent::TrialConfig config : accent::StrategySweepConfigs(spec.name, seed_)) {
        const std::uint64_t trial = ++trial_id_;
        char label[96];
        std::snprintf(label, sizeof(label), "%s/%s/p%u", config.workload.c_str(),
                      accent::StrategyName(config.strategy), config.prefetch);
        accent::Tracer tracer;
        if (spans != nullptr) {
          ProbeBuild(spans, 0, trial, config.workload, config.seed, label);
          tracer.set_verbose(true);
          config.tracer = &tracer;
        }

        accent::TrialResult result;
        std::string text;
        Clock::time_point core_start;
        Clock::time_point core_end;
        const Clock::time_point start = Clock::now();
        {
          ScopedSpan root(spans, "trial", 0, trial, label);
          const PageDelta pages(spans, root.id(), trial);
          core_start = Clock::now();
          {
            ScopedSpan span(spans, "RunTrial", root.id(), trial);
            result = accent::RunTrial(config);
          }
          core_end = Clock::now();
          pages.AddTo(&pass);
          accent::Json json;
          {
            ScopedSpan span(spans, "TrialResultToJson", root.id(), trial);
            json = accent::TrialResultToJson(result);
          }
          {
            ScopedSpan span(spans, "Dump", root.id(), trial);
            text = json.Dump();
          }
          {
            ScopedSpan span(spans, "FoldTrialMetrics", root.id(), trial);
            accent::FoldTrialMetrics(result, &registry);
          }
          digest = Fnv1a(Fnv1a(digest, text), "\n");
        }
        const Clock::time_point end = Clock::now();
        times->trial_ms.push_back(MsBetween(start, end));
        times->core_ms.push_back(MsBetween(core_start, core_end));

        ++pass.trials;
        auto& layer = pass.layer;
        layer["sim.seconds"] += accent::ToSeconds(result.finished);
        layer["json.bytes"] += static_cast<double>(text.size());
        layer["vm.imag_faults"] += static_cast<double>(result.dest_pager.imag_faults);
        layer["vm.pages_fetched"] += static_cast<double>(result.dest_pager.imag_pages_fetched);
        layer["vm.disk_faults"] += static_cast<double>(result.dest_pager.disk_faults);
        layer["netmsg.sim_busy_ms"] += SimMs(result.netmsg_busy);
        layer["net.messages"] += static_cast<double>(result.messages_total);
        layer["net.bytes"] += static_cast<double>(result.bytes_total);
        layer["migration.completed"] += 1;
        downtimes.push_back(SimMs(result.migration.Downtime()));
        if (spans != nullptr) {
          CountLanes(tracer, &layer);
        }
      }
    }
    pass.layer["migration.sim_downtime_ms_p50"] = NearestRank(downtimes, 0.50);
    pass.layer["migration.sim_downtime_ms_p99"] = NearestRank(downtimes, 0.99);
    pass.checked["grid_digest"] = Hex(digest);
    return pass;
  }

  std::map<std::string, std::string> Pins() const override {
    if (seed_ == 42) {
      return {{"grid_digest", "0x5798e77cf186ffd8"}};
    }
    return {};
  }

  int setup_reps() const override { return 9; }

 private:
  static void CountLanes(const accent::Tracer& tracer, std::map<std::string, double>* layer) {
    for (const accent::TraceEvent& event : tracer.events()) {
      switch (event.lane) {
        case accent::TraceLane::kSim:
          (*layer)["sim.events"] += event.name == "sim:dispatch" ? 1 : 0;
          break;
        case accent::TraceLane::kPager:
          (*layer)["vm.trace_events"] += 1;
          break;
        case accent::TraceLane::kNetMsg:
          (*layer)["netmsg.trace_events"] += 1;
          break;
        case accent::TraceLane::kWire:
          (*layer)["net.trace_events"] += 1;
          break;
        case accent::TraceLane::kMigration:
          (*layer)["migration.trace_events"] += 1;
          break;
      }
    }
  }

  std::uint64_t seed_;
  std::uint64_t trial_id_ = 0;
};

// ---------------------------------------------------------------------------
// fleet_churn: the 480-host churn trial cluster_sweep calls "big".
class FleetChurn : public Workload {
 public:
  explicit FleetChurn(std::uint64_t seed) {
    config_.host_count = 480;
    config_.initial_processes_per_host = 30;
    config_.duration = accent::Sec(75.0);
    config_.arrivals_per_host_per_sec = 1.0;
    config_.mean_service_sec = 60.0;
    config_.policy.sample_period = accent::Sec(2.0);
    config_.seed = seed;
  }

  // The warm-up trial is a full trial; its result is checked like the rest.
  void Setup(std::uint64_t*, std::vector<PassRecord>* passes) override {
    TrialTimes discard;
    passes->push_back(RunPass(nullptr, &discard));
  }

  PassRecord RunPass(SpanRecorder* spans, TrialTimes* times) override {
    PassRecord pass;
    const std::uint64_t trial = ++trial_id_;
    accent::ClusterResult result;
    std::string text;
    Clock::time_point core_start;
    Clock::time_point core_end;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan root(spans, "trial", 0, trial, "480 hosts/75 s");
      const PageDelta pages(spans, root.id(), trial);
      core_start = Clock::now();
      {
        ScopedSpan span(spans, "RunClusterTrial", root.id(), trial);
        result = accent::RunClusterTrial(config_);
      }
      core_end = Clock::now();
      pages.AddTo(&pass);
      accent::Json json;
      {
        ScopedSpan span(spans, "ClusterResultToJson", root.id(), trial);
        json = accent::ClusterResultToJson(result);
      }
      ScopedSpan span(spans, "Dump", root.id(), trial);
      text = json.Dump();
    }
    const Clock::time_point end = Clock::now();
    times->trial_ms.push_back(MsBetween(start, end));
    times->core_ms.push_back(MsBetween(core_start, core_end));

    pass.trials = 1;
    pass.failed = result.hung || !result.census_ok ? 1 : 0;
    auto& layer = pass.layer;
    layer["sim.seconds"] = accent::ToSeconds(config_.duration);
    layer["sim.events"] = static_cast<double>(result.events_executed);
    layer["json.bytes"] = static_cast<double>(text.size());
    layer["net.messages"] = static_cast<double>(result.transmissions);
    layer["net.bytes"] = static_cast<double>(result.wire_bytes);
    layer["migration.sim_downtime_ms_p50"] = SimMs(result.downtime_p50);
    layer["migration.sim_downtime_ms_p99"] = SimMs(result.downtime_p99);
    layer["migration.completed"] = static_cast<double>(result.migrations_completed);
    layer["cluster.completed"] = static_cast<double>(result.completed);
    layer["cluster.queueing_ms_p99"] = SimMs(result.queueing_p99);
    layer["policy.directives_unfilled"] = static_cast<double>(result.directives_unfilled);
    layer["policy.steady_migrations_per_s"] = result.steady_migrations_per_sec;
    pass.checked["fleet_digest"] = Hex(Fnv1a(kFnvBasis, text));
    pass.checked["fleet_census_ok"] = result.census_ok ? "1" : "0";
    pass.checked["fleet_hung"] = result.hung ? "1" : "0";
    return pass;
  }

  std::map<std::string, std::string> Pins() const override {
    return {{"fleet_census_ok", "1"}, {"fleet_hung", "0"}};
  }

  int setup_reps() const override { return 3; }

 private:
  accent::ClusterConfig config_;
  std::uint64_t trial_id_ = 0;
};

// ---------------------------------------------------------------------------
// lossy_matrix: the store-off failure matrix, 7 workloads x 4 strategies x
// FailureScenarios(), baselines first within each (workload, strategy).
class LossyMatrix : public Workload {
 public:
  explicit LossyMatrix(std::uint64_t seed) : seed_(seed) {}

  void Setup(std::uint64_t* warmup_trials, std::vector<PassRecord>*) override {
    accent::FailureScenarios();
    for (const accent::WorkloadSpec& spec : accent::RepresentativeWorkloads()) {
      accent::RunFailureBaseline(spec.name, accent::TransferStrategy::kPureCopy, seed_);
      ++*warmup_trials;
    }
  }

  PassRecord RunPass(SpanRecorder* spans, TrialTimes* times) override {
    PassRecord pass;
    auto& layer = pass.layer;
    std::vector<double> downtimes;
    std::vector<double> slowdowns;
    std::uint64_t hung = 0;
    std::uint64_t integrity_failures = 0;
    for (const accent::WorkloadSpec& spec : accent::RepresentativeWorkloads()) {
      for (const accent::TransferStrategy strategy : kStrategies) {
        const std::string label = spec.name + "/" + accent::StrategyName(strategy);
        ScopedSpan group(spans, "group", 0, 0, label);
        if (spans != nullptr) {
          // Every trial of the group builds this workload once.
          ProbeBuild(spans, group.id(), 0, spec.name, seed_, spec.name);
        }

        accent::FailureBaseline baseline;
        {
          const std::uint64_t trial = ++trial_id_;
          const Clock::time_point start = Clock::now();
          ScopedSpan span(spans, "RunFailureBaseline", group.id(), trial, label);
          const PageDelta pages(spans, span.id(), trial);
          baseline = accent::RunFailureBaseline(spec.name, strategy, seed_);
          pages.AddTo(&pass);
          const double ms = MsBetween(start, Clock::now());
          times->trial_ms.push_back(ms);
          times->core_ms.push_back(ms);
        }
        ++pass.trials;
        layer["sim.seconds"] += accent::ToSeconds(baseline.finished);
        layer["migration.completed"] += 1;
        downtimes.push_back(SimMs(baseline.migration.Downtime()));

        for (const accent::FailureScenario& scenario : accent::FailureScenarios()) {
          const std::uint64_t trial = ++trial_id_;
          const Clock::time_point start = Clock::now();
          accent::FailureTrialResult result;
          {
            ScopedSpan span(spans, "RunFailureTrial", group.id(), trial,
                            label + "/" + scenario.name);
            const PageDelta pages(spans, span.id(), trial);
            result = accent::RunFailureTrial(spec.name, strategy, scenario, baseline, seed_);
            pages.AddTo(&pass);
          }
          const double ms = MsBetween(start, Clock::now());
          times->trial_ms.push_back(ms);
          times->core_ms.push_back(ms);

          ++pass.trials;
          layer["sim.seconds"] += accent::ToSeconds(result.finished);
          layer["netmsg.retransmits"] += static_cast<double>(result.fragments_retransmitted);
          layer["netmsg.retransmit_bytes"] += static_cast<double>(result.retransmit_bytes);
          layer["netmsg.dups_suppressed"] += static_cast<double>(result.duplicates_suppressed);
          layer["netmsg.dead_letters"] += static_cast<double>(result.transfers_dead_lettered);
          layer["net.deliveries_lost"] += static_cast<double>(result.deliveries_lost);
          switch (result.outcome) {
            case accent::FailureOutcome::kCompleted:
              layer["failure.completed"] += 1;
              layer["migration.completed"] += 1;
              slowdowns.push_back(result.slowdown);
              integrity_failures += result.integrity_ok ? 0 : 1;
              break;
            case accent::FailureOutcome::kAborted:
              layer["failure.aborted"] += 1;
              break;
            case accent::FailureOutcome::kTerminalFault:
              layer["failure.terminal"] += 1;
              break;
            case accent::FailureOutcome::kHung:
              ++hung;
              break;
          }
        }
      }
    }
    layer["migration.sim_downtime_ms_p50"] = NearestRank(downtimes, 0.50);
    layer["migration.sim_downtime_ms_p99"] = NearestRank(downtimes, 0.99);
    layer["failure.slowdown_p50"] = NearestRank(slowdowns, 0.50);
    pass.failed = hung + integrity_failures;
    pass.checked["lossy_completed"] = std::to_string(Count(layer, "failure.completed"));
    pass.checked["lossy_aborted"] = std::to_string(Count(layer, "failure.aborted"));
    pass.checked["lossy_terminal"] = std::to_string(Count(layer, "failure.terminal"));
    pass.checked["lossy_hung"] = std::to_string(hung);
    pass.checked["lossy_integrity_failures"] = std::to_string(integrity_failures);
    return pass;
  }

  std::map<std::string, std::string> Pins() const override {
    std::map<std::string, std::string> pins = {{"lossy_hung", "0"},
                                               {"lossy_integrity_failures", "0"}};
    if (seed_ == 42) {
      pins["lossy_completed"] = "73";
      pins["lossy_aborted"] = "28";
      pins["lossy_terminal"] = "11";
    }
    return pins;
  }

  int setup_reps() const override { return 9; }

 private:
  // The strategy columns of RunFailureMatrix, in its grid order.
  static constexpr accent::TransferStrategy kStrategies[] = {
      accent::TransferStrategy::kPureCopy, accent::TransferStrategy::kPureIou,
      accent::TransferStrategy::kResidentSet, accent::TransferStrategy::kPreCopy};

  static std::uint64_t Count(const std::map<std::string, double>& layer, const char* key) {
    const auto it = layer.find(key);
    return it == layer.end() ? 0 : static_cast<std::uint64_t>(it->second);
  }

  std::uint64_t seed_;
  std::uint64_t trial_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_grid") {
    return std::make_unique<PaperGrid>(seed);
  }
  if (name == "fleet_churn") {
    return std::make_unique<FleetChurn>(seed);
  }
  if (name == "lossy_matrix") {
    return std::make_unique<LossyMatrix>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
