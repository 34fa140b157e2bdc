// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call the benchmark makes into a layer of the library:
// name, start, end (ns since the recorder was created) and the span that
// was open when it started. Spans nest strictly (the benchmark is the
// only caller and runs on one thread), so a span's self time is its
// duration minus the durations of its direct children. Calls the library
// makes back into the benchmark (protocol listener callbacks) are far too
// many to keep one record each; they are summed into aggregates --
// (name, parent span, calls, total ns) -- which count as children of
// their parent span for self time.
//
// Nothing is written while the run measures: write_json() dumps
// everything once the run has ended.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

class Tracer {
 public:
  Tracer(bool enabled, std::string trace_id)
      : enabled_(enabled), trace_id_(std::move(trace_id)) {}

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), -1, parent, 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Adds an aggregate of `calls` callbacks totalling `total_ns` under
  /// the innermost open span.
  void aggregate(const char* name, std::uint64_t calls,
                 std::int64_t total_ns) {
    if (!enabled_ || calls == 0) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    aggregates_.push_back({name, parent, calls, total_ns});
    if (parent >= 0) {
      spans_[static_cast<std::size_t>(parent)].child_ns += total_ns;
    }
  }

  /// Writes every span (with its self time: duration minus children and
  /// aggregates) and every aggregate as one JSON document.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"trace_id\": \"" << trace_id_ << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
          << r.name << "\", \"parent\": " << r.parent
          << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
          << ", \"self_ns\": "
          << (r.end_ns - r.start_ns) - child_ns(static_cast<int>(i)) << "}";
    }
    out << "], \"aggregates\": [";
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      const Aggregate& a = aggregates_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << a.name
          << "\", \"parent\": " << a.parent << ", \"calls\": " << a.calls
          << ", \"total_ns\": " << a.total_ns << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t child_ns;  // aggregates attributed to this span
  };
  struct Aggregate {
    std::string name;
    int parent;
    std::uint64_t calls;
    std::int64_t total_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::int64_t child_ns(int id) const {
    std::int64_t total = spans_[static_cast<std::size_t>(id)].child_ns;
    for (const Record& r : spans_) {
      if (r.parent == id) total += r.end_ns - r.start_ns;
    }
    return total;
  }

  bool enabled_;
  std::string trace_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
