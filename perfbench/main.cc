// perfbench: the simulator's host-time benchmark.
//
//   perfbench --workload paper_grid|fleet_churn|lossy_matrix --seed N
//             --seconds S --trace 0|1 [--spans PATH] [--expect CHECK=VALUE]...
//
// Sets up (static tables plus a warm-up trial, several times; the median is
// setup_s), then runs whole passes of the workload's trials, one at a time,
// until S seconds have passed. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it spends half of S untraced and half traced and
// prints the per-layer metrics, writing the traced half's spans to PATH.
// Host times are calibrated for machine speed (calibration.h).
// Every pass's simulated output is checked; --expect replaces a check's
// expected value (used to show that each check can fail). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 ok, 1 a check failed, 2 bad usage or a pinned variable set.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/base/json.h"
#include "src/base/page_ref.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::map<std::string, std::string> expect;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"trials_per_s", "1/s"},
    {"trial_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

// Counts are per pass (one sweep over the workload's trial set); times
// marked ms are per call. A metric whose layer the workload does not reach
// reads 0 and prints as n/a.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.sim_s_per_wall_s", "sim_s/s"},
    {"workloads.build_ms", "ms"},
    {"workloads.build_share", "ratio"},
    {"json.encode_ms", "ms"},
    {"json.bytes", "B"},
    {"metrics.fold_ms", "ms"},
    {"page.bytes_copied", "B"},
    {"page.payload_allocs", "count"},
    {"page.payload_shares", "count"},
    {"page.cow_breaks", "count"},
    {"page.live_payloads_delta", "count"},
    {"vm.imag_faults", "count"},
    {"vm.pages_fetched", "count"},
    {"vm.disk_faults", "count"},
    {"vm.trace_events", "count"},
    {"netmsg.sim_busy_ms", "sim_ms"},
    {"netmsg.trace_events", "count"},
    {"netmsg.retransmits", "count"},
    {"netmsg.retransmit_bytes", "B"},
    {"netmsg.dups_suppressed", "count"},
    {"netmsg.dead_letters", "count"},
    {"net.deliveries_lost", "count"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.trace_events", "count"},
    {"migration.sim_downtime_ms_p50", "sim_ms"},
    {"migration.sim_downtime_ms_p99", "sim_ms"},
    {"migration.completed", "count"},
    {"migration.trace_events", "count"},
    {"cluster.completed", "count"},
    {"cluster.queueing_ms_p99", "sim_ms"},
    {"policy.directives_unfilled", "count"},
    {"policy.steady_migrations_per_s", "1/sim_s"},
    {"failure.completed", "count"},
    {"failure.aborted", "count"},
    {"failure.terminal", "count"},
    {"failure.slowdown_p50", "ratio"},
    {"trace.overhead_pct", "%"},
    {"host.calibration_ms", "ms"},
};

// Knobs that would change which engine or cache runs; the benchmark
// measures the program at its defaults only.
constexpr const char* kPinnedEnv[] = {
    "ACCENT_SWEEP_THREADS",    "ACCENT_SIM_SHARDS",          "ACCENT_SIM_SHARD_THREADS",
    "ACCENT_SWEEP_CACHE_DIR",  "ACCENT_CONTENT_CACHE_PAGES", "ACCENT_CHECKPOINT_STORE",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper_grid|fleet_churn|lossy_matrix "
               "--seed N --seconds S --trace 0|1 [--spans PATH] [--expect CHECK=VALUE]...\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      options->trace = value == "1";
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else if (flag == "--expect") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) {
        return false;
      }
      options->expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds >= 0.0;
}

// Linear-interpolated quantile (q in [0, 1]) of host times.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// VmHWM of this process image. (getrusage's ru_maxrss would also count the
// parent's resident set, which a forked child inherits.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Whole passes until `seconds` have passed (at least one). Each pass is
// preceded by one run of the calibration kernel, and its host times are
// scaled by the speed that run measured.
struct Segment {
  std::vector<PassRecord> passes;
  TrialTimes times;                    // raw
  std::vector<double> calibration_ms;  // one per pass
  std::vector<double> trial_ms_cal;    // times.trial_ms, calibrated
  double wall_s = 0.0;                 // the passes only, raw
  double wall_cal_s = 0.0;             // the passes only, calibrated
  std::uint64_t trials() const { return times.trial_ms.size(); }
};

Segment RunSegment(Workload* workload, double seconds, SpanRecorder* spans) {
  Segment segment;
  const Clock::time_point start = Clock::now();
  do {
    segment.calibration_ms.push_back(RunCalibrationKernel());
    const double speed = kNominalCalibrationMs / segment.calibration_ms.back();
    const std::size_t first = segment.times.trial_ms.size();
    const Clock::time_point pass_start = Clock::now();
    segment.passes.push_back(workload->RunPass(spans, &segment.times));
    const double wall_s = MsBetween(pass_start, Clock::now()) / 1000.0;
    segment.wall_s += wall_s;
    segment.wall_cal_s += wall_s * speed;
    for (std::size_t i = first; i < segment.times.trial_ms.size(); ++i) {
      segment.trial_ms_cal.push_back(segment.times.trial_ms[i] * speed);
    }
  } while (MsBetween(start, Clock::now()) / 1000.0 < seconds);
  return segment;
}

// Per-layer metrics: per-pass counts from a traced pass (simulated output
// repeats exactly), per-call times from the traced spans, and per-event
// host time from the untraced passes. Host times are scaled by `speed`, the
// run's median calibration.
std::map<std::string, double> PerLayer(const Segment& untraced, const Segment& traced,
                                       const SpanRecorder& spans, double speed,
                                       double live_delta, std::set<std::string>* measured) {
  std::map<std::string, double> layer = traced.passes.front().layer;
  for (const auto& [name, value] : layer) {
    measured->insert(name);
  }
  const double passes = static_cast<double>(untraced.passes.size());
  const std::vector<double>& core_ms = untraced.times.core_ms;
  const double core_ms_total = std::accumulate(core_ms.begin(), core_ms.end(), 0.0);
  const double core_ms_per_pass = core_ms_total / passes;
  const double core_ms_per_trial = core_ms_total / static_cast<double>(core_ms.size());
  auto set = [&](const char* name, double value) {
    layer[name] = value;
    measured->insert(name);
  };
  if (layer["sim.events"] > 0) {
    set("sim.ns_per_event", core_ms_per_pass * speed * 1e6 / layer["sim.events"]);
  }
  set("sim.sim_s_per_wall_s", layer["sim.seconds"] / (core_ms_per_pass * speed / 1000.0));
  const double traced_trials = static_cast<double>(traced.trials());
  if (spans.Count("BuildWorkload") > 0) {
    const double build_ms = spans.TotalMs("BuildWorkload") / spans.Count("BuildWorkload");
    set("workloads.build_ms", build_ms * speed);
    // Every trial of paper_grid and lossy_matrix builds its workload once.
    set("workloads.build_share", build_ms / core_ms_per_trial);
  }
  const double encode_ms = spans.TotalMs("TrialResultToJson") +
                           spans.TotalMs("ClusterResultToJson") + spans.TotalMs("Dump");
  if (encode_ms > 0) {
    set("json.encode_ms", encode_ms * speed / traced_trials);
  }
  if (spans.Count("FoldTrialMetrics") > 0) {
    set("metrics.fold_ms", spans.TotalMs("FoldTrialMetrics") * speed / traced_trials);
  }
  set("page.live_payloads_delta", live_delta);
  set("trace.overhead_pct",
      (Quantile(traced.trial_ms_cal, 0.5) / Quantile(untraced.trial_ms_cal, 0.5) - 1.0) * 100.0);
  set("host.calibration_ms", Quantile(untraced.calibration_ms, 0.5));
  return layer;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const std::uint64_t live_before = accent::ReadPageCounters().live_payloads();

  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    return Usage("bad arguments");
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run: %s is set; unset it to measure the "
                           "program at its defaults\n", name);
      return 2;
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d build=%s compiler=\"%s\" "
              "nproc=%u\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  // --- set-up --------------------------------------------------------------
  std::vector<PassRecord> passes;
  std::uint64_t warmup_trials = 0;
  std::vector<double> setup_s;
  std::vector<double> setup_cal_s;
  std::vector<double> calibration_ms;
  for (int rep = 0; rep < workload->setup_reps(); ++rep) {
    const Clock::time_point start = rep == 0 ? process_start : Clock::now();
    workload->Setup(&warmup_trials, &passes);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    calibration_ms.push_back(RunCalibrationKernel());
    setup_cal_s.push_back(setup_s.back() * kNominalCalibrationMs / calibration_ms.back());
  }

  // --- timed passes --------------------------------------------------------
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Segment untraced = RunSegment(workload.get(), untraced_s, nullptr);
  SpanRecorder spans;
  Segment traced;
  if (options.trace) {
    traced = RunSegment(workload.get(), options.seconds / 2, &spans);
  }
  passes.insert(passes.end(), untraced.passes.begin(), untraced.passes.end());
  passes.insert(passes.end(), traced.passes.begin(), traced.passes.end());
  const double live_delta = static_cast<double>(accent::ReadPageCounters().live_payloads()) -
                            static_cast<double>(live_before);
  calibration_ms.insert(calibration_ms.end(), untraced.calibration_ms.begin(),
                        untraced.calibration_ms.end());

  // --- checks --------------------------------------------------------------
  std::map<std::string, std::string> expected = workload->Pins();
  expected["live_payloads_delta"] = "0";
  for (const auto& [name, value] : passes.front().checked) {
    expected.emplace(name, value);  // unpinned: every pass repeats the first
  }
  for (const auto& [name, value] : options.expect) {
    if (expected.count(name) == 0) {
      return Usage(("no check " + name + " on " + options.workload).c_str());
    }
    expected[name] = value;
  }
  std::map<std::string, std::string> first_failure;
  std::uint64_t attempted = warmup_trials;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    PassRecord& pass = passes[i];
    attempted += pass.trials;
    failed += pass.failed;
    for (const auto& [name, value] : pass.checked) {
      if (value != expected[name] && first_failure.count(name) == 0) {
        first_failure[name] = "expected " + expected[name] + ", got " + value + " (pass " +
                              std::to_string(i + 1) + " of " + std::to_string(passes.size()) +
                              ")";
      }
    }
  }
  char live_text[32];
  std::snprintf(live_text, sizeof(live_text), "%.0f", live_delta);
  if (live_text != expected["live_payloads_delta"]) {
    first_failure["live_payloads_delta"] =
        "expected " + expected["live_payloads_delta"] + ", got " + live_text;
  }
  for (const auto& [name, why] : first_failure) {
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", name.c_str(), why.c_str());
  }
  for (const auto& [name, value] : expected) {
    if (first_failure.count(name) == 0) {
      std::printf("perfbench: check %s ok: %s\n", name.c_str(), value.c_str());
    }
  }
  const bool correct = first_failure.empty() && failed == 0;

  // --- metrics -------------------------------------------------------------
  std::map<std::string, double> values;
  std::set<std::string> measured;
  const std::vector<double>& trial_ms = untraced.times.trial_ms;
  const std::size_t n = trial_ms.size();
  if (!options.trace) {
    const std::vector<double>& trial_cal = untraced.trial_ms_cal;
    values["setup_s"] = Quantile(setup_cal_s, 0.5);
    values["trials_per_s"] = static_cast<double>(n) / untraced.wall_cal_s;
    values["trial_ms_p50"] = Quantile(trial_cal, 0.5);
    values["peak_rss_mb"] = PeakRssMb();
    std::printf("perfbench: calibration kernel median %.3f ms (n=%zu, nominal %.1f ms)\n",
                Quantile(calibration_ms, 0.5), calibration_ms.size(), kNominalCalibrationMs);
    std::printf("perfbench: setup_s = %.6f s (raw %.6f s, median of %zu)\n", values["setup_s"],
                Quantile(setup_s, 0.5), setup_s.size());
    std::printf("perfbench: trials_per_s = %.4f 1/s (raw %.4f; %zu trials, %zu passes, %.3f s)\n",
                values["trials_per_s"], static_cast<double>(n) / untraced.wall_s, n,
                untraced.passes.size(), untraced.wall_s);
    std::printf("perfbench: trial_ms_p50 = %.4f ms (raw %.4f ms, n=%zu)\n",
                values["trial_ms_p50"], Quantile(trial_ms, 0.5), n);
    if (n >= 100) {
      std::printf("perfbench: trial_ms_p90 = %.4f ms (raw %.4f ms, n=%zu)\n",
                  Quantile(trial_cal, 0.9), Quantile(trial_ms, 0.9), n);
    }
    std::printf("perfbench: peak_rss_mb = %.3f MB\n", values["peak_rss_mb"]);
  } else {
    const double speed = kNominalCalibrationMs / Quantile(calibration_ms, 0.5);
    values = PerLayer(untraced, traced, spans, speed, live_delta, &measured);
    for (const MetricDef& def : kPerLayer) {
      if (measured.count(def.name) != 0) {
        std::printf("perfbench: %s = %.6g %s\n", def.name, values[def.name], def.unit);
      } else {
        std::printf("perfbench: %s = n/a (reads 0)\n", def.name);
      }
    }
    accent::Json meta;
    meta["workload"] = accent::Json(options.workload);
    meta["seed"] = accent::Json(options.seed);
    meta["build"] = accent::Json(PERFBENCH_BUILD_TYPE);
    meta["compiler"] = accent::Json(PERFBENCH_COMPILER);
    meta["nproc"] = accent::Json(std::thread::hardware_concurrency());
    meta["traced_trials"] = accent::Json(traced.trials());
    const std::string path = options.spans_path.empty()
                                 ? "perfbench-spans-" + options.workload + ".json"
                                 : options.spans_path;
    if (!spans.WriteFile(path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write span file %s\n", path.c_str());
      return 2;
    }
    std::printf("perfbench: %zu spans written to %s\n", spans.spans().size(), path.c_str());
  }
  std::printf("perfbench: error_rate = %.6g (%llu failed / %llu attempted)\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  accent::Json metrics{accent::Json::Object{}};
  for (const MetricDef& def : options.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                                      std::end(kPerLayer))
                                            : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                                     std::end(kEndToEnd))) {
    accent::Json metric;
    metric["value"] = accent::Json(values[def.name]);
    metric["unit"] = accent::Json(def.unit);
    metrics[def.name] = std::move(metric);
  }
  accent::Json result;
  result["correct"] = accent::Json(correct);
  result["attempted"] = accent::Json(attempted);
  result["failed"] = accent::Json(failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
