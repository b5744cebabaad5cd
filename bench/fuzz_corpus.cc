// Adversarial fuzz-corpus bench: seeded random scenarios — heterogeneous
// topology x workload x fault plan x strategy x optional re-migration —
// checked against the standing oracles (content integrity, zero hangs,
// balanced backer references, fleet census, payload balance), emitting
// machine-readable JSON (BENCH_fuzz.json) so the fuzzed guarantees are
// tracked from PR to PR.
//
// Usage: fuzz_corpus [--first N] [--seeds N] [--threads N] [--out PATH]
// Environment: ACCENT_FUZZ_SEEDS / ACCENT_FUZZ_THREADS override the
// defaults (flags win over environment).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/base/check.h"
#include "src/base/logging.h"
#include "src/experiments/scenario_fuzz.h"

namespace accent {
namespace {

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return std::strtoull(value, nullptr, 10);
}

int Main(int argc, char** argv) {
  std::uint64_t first = 1;
  std::uint64_t seeds = EnvU64("ACCENT_FUZZ_SEEDS", 64);
  int threads = static_cast<int>(EnvU64("ACCENT_FUZZ_THREADS", 0));
  std::string out_path = "BENCH_fuzz.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--first") == 0 && i + 1 < argc) {
      first = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--first N] [--seeds N] [--threads N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // Failing scenarios log their seed + replay line; make sure they print.
  if (Logger::Get().level() < LogLevel::kError) {
    Logger::Get().set_level(LogLevel::kError);
  }

  const FuzzCorpusResult corpus = RunFuzzCorpus(first, seeds, threads);
  const Json report = FuzzCorpusToJson(corpus);

  std::ofstream out(out_path, std::ios::trunc);
  ACCENT_CHECK(out.good()) << " cannot open " << out_path;
  out << report.Dump(2) << '\n';
  ACCENT_CHECK(out.good());

  std::printf("=== fuzz corpus: seeds [%llu, %llu) ===\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(first + seeds));
  std::printf("completed:          %llu\n", static_cast<unsigned long long>(corpus.completed));
  std::printf("aborted:            %llu\n", static_cast<unsigned long long>(corpus.aborted));
  std::printf("terminal faults:    %llu\n",
              static_cast<unsigned long long>(corpus.terminal_faults));
  std::printf("hung:               %llu\n", static_cast<unsigned long long>(corpus.hung));
  std::printf("integrity fails:    %llu\n",
              static_cast<unsigned long long>(corpus.integrity_failures));
  std::printf("backer imbalances:  %llu\n",
              static_cast<unsigned long long>(corpus.backer_imbalances));
  std::printf("payload leak:       %lld\n", static_cast<long long>(corpus.payload_leak));
  std::printf("failures:           %llu  -> %s\n",
              static_cast<unsigned long long>(corpus.failures), out_path.c_str());
  return corpus.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
