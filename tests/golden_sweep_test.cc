// Golden-digest regression gate over the paper's full 77-trial sweep.
//
// Hashes the canonical JSON serialisation of every trial result in the
// 7-workload x 11-config grid into one FNV-1a digest and asserts it matches
// the value recorded before the zero-copy data-plane refactor. Any change to
// simulated timings, byte traffic, checksums, series buckets or pager stats
// — however small — moves the digest, so a perf refactor that accidentally
// perturbs results fails loudly here rather than silently shifting tables
// in docs/RESULTS.md.
//
// The digest is over TrialResultToJson(...).Dump(), the canonical per-trial
// encoding, for the grid PaperGridConfigs() lists — the same grid
// bench/run_all prints the paper tables from.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiments/sweep.h"
#include "src/experiments/sweep_cache.h"

namespace accent {
namespace {

// Captured from the seed tree (pre-refactor) by running this very test with
// the expectation left blank and recording the reported digest.
constexpr std::uint64_t kGoldenSweepDigest = 0x5798e77cf186ffd8ull;

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(GoldenSweep, FullGridDigestMatchesPreRefactorValue) {
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a 64-bit offset basis
  const std::vector<TrialResult> results = RunTrials(PaperGridConfigs());
  for (const TrialResult& result : results) {
    digest = Fnv1a(digest, TrialResultToJson(result).Dump());
    digest = Fnv1a(digest, "\n");
  }
  EXPECT_EQ(results.size(), 77u);
  EXPECT_EQ(digest, kGoldenSweepDigest)
      << "sweep results changed: new digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace accent
