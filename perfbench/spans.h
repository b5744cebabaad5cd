// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call into
// the simulator's public entry points (RunTrial, BuildWorkload,
// TrialResultToJson, ...), timed with steady_clock. They stay in memory
// while the run measures and are written out once, at the end. A null
// recorder records nothing, so traced and untraced passes run the same
// code.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t trial = 0;   // shared by every span of one trial; 0 = none
  std::string name;          // the entry point called, or "trial" / "group"
  std::string label;         // what it was called on, e.g. "Lisp-T/pure-IOU/p3"
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t Begin(std::string name, std::uint64_t parent, std::uint64_t trial,
                      std::string label = "");
  void End(std::uint64_t id);

  // Summed duration (ms) and count of the spans called `name`.
  double TotalMs(const std::string& name) const;
  std::size_t Count(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

  // {"meta": meta, "spans": [{id, parent, trial, name, label, start_ns,
  // end_ns}, ...]} in recording order (a parent precedes its children).
  bool WriteFile(const std::string& path, const accent::Json& meta) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// RAII span; does nothing when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent, std::uint64_t trial,
             std::string label = "")
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(std::move(name), parent, trial, std::move(label)) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
