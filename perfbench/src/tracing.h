// tracing.h - Spans recorded by the benchmark around its own calls into
// each layer of the matchmaker.
//
// A span has a name ("<layer>.<call>"), a start, an end, the span that
// was open when it began (its parent), and the number of operations it
// covers (batched micro-calls such as pair evaluation record one span per
// batch). Spans stay in memory and are written out in Chrome trace format
// when the run ends. With tracing off a Scope costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;  ///< seconds since process start
    double end = 0.0;
    std::int32_t parent = -1;
    std::uint32_t ops = 1;
  };

  /// Per-name totals: spans, operations, inclusive and self seconds
  /// (self = inclusive minus the time child spans cover).
  struct Totals {
    std::uint64_t spans = 0;
    std::uint64_t ops = 0;
    double inclusive = 0.0;
    double self = 0.0;
  };

  void enable(bool on) { on_ = on; }
  bool on() const noexcept { return on_; }

  std::int32_t open(const char* name, std::uint32_t ops);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::map<std::string, Totals> totalsByName() const;
  /// Mean inclusive seconds per operation of the named span; 0 if absent.
  double meanSecondsPerOp(const std::string& name) const;
  /// Self seconds summed per layer (the span name up to its first '.').
  std::map<std::string, double> selfByLayer() const;

  /// The Chrome file keeps the first spans only, so a long traced run
  /// stays loadable; the totals above always cover every span.
  static constexpr std::size_t kMaxWrittenSpans = 100000;
  /// Writes {"traceEvents":[...]} with one complete ("X") event per span.
  bool writeChrome(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// The process-wide span log.
SpanLog& spanLog();

/// Stops span recording while it lives, then restores it.
class SpanPause {
 public:
  SpanPause() : was_(spanLog().on()) { spanLog().enable(false); }
  ~SpanPause() { spanLog().enable(was_); }
  SpanPause(const SpanPause&) = delete;
  SpanPause& operator=(const SpanPause&) = delete;

 private:
  bool was_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(const char* name, std::uint32_t ops = 1) {
    SpanLog& log = spanLog();
    if (log.on()) index_ = log.open(name, ops);
  }
  ~Scope() {
    if (index_ >= 0) spanLog().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_ = -1;
};

}  // namespace perfbench
