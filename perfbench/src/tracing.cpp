#include "tracing.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {
Clock::time_point& processStart() {
  static Clock::time_point start = Clock::now();
  return start;
}
}  // namespace

void markProcessStart() { processStart() = Clock::now(); }

double processSeconds() { return secondsBetween(processStart(), Clock::now()); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[index_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

SpanLog& spanLog() {
  static SpanLog log;
  return log;
}

std::int32_t SpanLog::open(const char* name, std::uint32_t ops) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.ops = ops;
  span.start = processSeconds();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = processSeconds();
  current_ = span.parent;
}

std::map<std::string, SpanLog::Totals> SpanLog::totalsByName() const {
  std::vector<double> childTime(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = totals[s.name];
    ++t.spans;
    t.ops += s.ops;
    t.inclusive += s.end - s.start;
    t.self += (s.end - s.start) - childTime[i];
  }
  return totals;
}

double SpanLog::meanSecondsPerOp(const std::string& name) const {
  const auto totals = totalsByName();
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.ops == 0) return 0.0;
  return it->second.inclusive / static_cast<double>(it->second.ops);
}

std::map<std::string, double> SpanLog::selfByLayer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, t] : totalsByName()) {
    layers[name.substr(0, name.find('.'))] += t.self;
  }
  return layers;
}

bool SpanLog::writeChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  std::fputs(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"mm_perfbench\"}}",
      f);
  for (std::size_t i = 0; i < spans_.size() && i < kMaxWrittenSpans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"ops\":%u}}",
                 s.name, static_cast<int>(std::string(s.name).find('.')),
                 s.name, s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 s.ops);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
