// Fleet-scale cluster bench: one datacenter-row churn trial (hundreds of
// hosts, tens of thousands of processes) plus the policy sweep (threshold
// x hysteresis x dispersal_weight across cluster sizes). Emits
// BENCH_cluster.json — simulated results only, so equal seeds write equal
// files — for tools/check_bench.sh --cluster, which gates on zero hangs and
// zero census failures.
//
// Usage: cluster_sweep [--seed N] [--threads N] [--out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/experiments/cluster.h"
#include "src/experiments/sweep.h"

namespace accent {
namespace {

ClusterConfig BigTrialConfig(std::uint64_t seed) {
  ClusterConfig config;
  config.host_count = 480;
  config.initial_processes_per_host = 30;
  config.duration = Sec(75.0);
  config.arrivals_per_host_per_sec = 1.0;
  config.mean_service_sec = 60.0;
  config.policy.sample_period = Sec(2.0);
  config.seed = seed;
  return config;
}

ClusterConfig SweepTrialConfig(std::uint64_t seed, int hosts, int threshold,
                               int hysteresis, double dispersal) {
  ClusterConfig config;
  config.host_count = hosts;
  config.duration = Sec(120.0);
  config.policy.sample_period = Sec(2.0);
  config.policy.imbalance_threshold = threshold;
  config.policy.hysteresis = hysteresis;
  config.policy.dispersal_weight = dispersal;
  config.seed = seed;
  return config;
}

int Main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int threads = 0;
  std::string out_path = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--threads N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  // --- big trial ------------------------------------------------------------
  const ClusterConfig big = BigTrialConfig(seed);
  std::printf("=== cluster big trial: %d hosts ===\n", big.host_count);
  const ClusterResult big_result = RunClusterTrial(big);
  std::uint64_t hung = big_result.hung ? 1 : 0;
  std::uint64_t integrity_failures = big_result.census_ok ? 0 : 1;
  std::printf("  events=%llu\n", static_cast<unsigned long long>(big_result.events_executed));

  // --- policy sweep ---------------------------------------------------------
  struct SweepPoint {
    int hosts;
    int threshold;
    int hysteresis;
    double dispersal;
  };
  std::vector<SweepPoint> points;
  for (int hosts : {24, 64}) {
    for (int threshold : {2, 4}) {
      for (int hysteresis : {0, 2}) {
        for (double dispersal : {0.0, 1.0}) {
          points.push_back(SweepPoint{hosts, threshold, hysteresis, dispersal});
        }
      }
    }
  }
  std::vector<ClusterResult> sweep_results(points.size());
  if (threads <= 0) {
    threads = SweepThreadCount();
  }
  ParallelFor(threads, points.size(), [&](std::size_t i) {
    const SweepPoint& pt = points[i];
    sweep_results[i] = RunClusterTrial(SweepTrialConfig(
        seed, pt.hosts, pt.threshold, pt.hysteresis, pt.dispersal));
  });

  Json sweep_rows = Json::Array{};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ClusterResult& result = sweep_results[i];
    hung += result.hung ? 1 : 0;
    integrity_failures += result.census_ok ? 0 : 1;
    Json row = ClusterResultToJson(result);
    sweep_rows.Append(std::move(row));
  }

  Json report = Json::Object{};
  report["bench"] = Json("cluster");
  report["schema_version"] = Json(1);
  report["seed"] = Json(seed);
  report["hosts"] = Json(big.host_count);
  report["processes_arrived"] = Json(big_result.arrived);
  report["trial_count"] = Json(static_cast<std::uint64_t>(1 + points.size()));
  report["hung"] = Json(hung);
  report["integrity_failures"] = Json(integrity_failures);
  report["big_trial"] = ClusterResultToJson(big_result);
  report["policy_sweep"] = std::move(sweep_rows);

  std::ofstream out(out_path, std::ios::trunc);
  ACCENT_CHECK(out.good()) << " cannot open " << out_path;
  out << report.Dump(2) << '\n';
  ACCENT_CHECK(out.good());

  std::printf("=== cluster sweep: %zu policy points ===\n", points.size());
  std::printf("processes arrived (big):   %llu\n",
              static_cast<unsigned long long>(big_result.arrived));
  std::printf("migrations completed:      %llu\n",
              static_cast<unsigned long long>(big_result.migrations_completed));
  std::printf("steady throughput:         %.3f migrations/s\n",
              big_result.steady_migrations_per_sec);
  std::printf("queueing p99:              %.1f ms\n",
              static_cast<double>(big_result.queueing_p99.count()) / 1000.0);
  std::printf("downtime p99:              %.1f ms\n",
              static_cast<double>(big_result.downtime_p99.count()) / 1000.0);
  std::printf("hung:                      %llu\n", static_cast<unsigned long long>(hung));
  std::printf("integrity failures:        %llu  -> %s\n",
              static_cast<unsigned long long>(integrity_failures), out_path.c_str());
  return hung == 0 && integrity_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
