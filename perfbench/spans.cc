#include "perfbench/spans.h"

#include <fstream>
#include <utility>

namespace perfbench {

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::uint64_t SpanRecorder::Begin(std::string name, std::uint64_t parent, std::uint64_t trial,
                                  std::string label) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trial = trial;
  span.name = std::move(name);
  span.label = std::move(label);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(std::uint64_t id) {
  spans_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

double SpanRecorder::TotalMs(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

std::size_t SpanRecorder::Count(const std::string& name) const {
  std::size_t count = 0;
  for (const Span& span : spans_) {
    count += span.name == name ? 1 : 0;
  }
  return count;
}

bool SpanRecorder::WriteFile(const std::string& path, const accent::Json& meta) const {
  accent::Json spans{accent::Json::Array{}};
  for (const Span& span : spans_) {
    accent::Json entry;
    entry["id"] = accent::Json(span.id);
    entry["parent"] = accent::Json(span.parent);
    entry["trial"] = accent::Json(span.trial);
    entry["name"] = accent::Json(span.name);
    entry["label"] = accent::Json(span.label);
    entry["start_ns"] = accent::Json(span.start_ns);
    entry["end_ns"] = accent::Json(span.end_ns);
    spans.Append(std::move(entry));
  }
  accent::Json file;
  file["meta"] = meta;
  file["spans"] = std::move(spans);
  std::ofstream out(path);
  out << file.Dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
