// main.cpp - mm_perfbench: one run of one workload.
//
//   mm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics and write a Chrome trace under .bench_traces/.
// Exits 1 if any correctness check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "runners.h"
#include "tracing.h"

namespace {

using perfbench::Metric;

/// Where traced runs write their Chrome trace, relative to the checkout.
constexpr const char* kTraceDir = ".bench_traces";

const char* const kEndToEnd[] = {"setup_s",
                                 "matches_per_s",
                                 "match_latency_p50_ms",
                                 "match_latency_p90_ms",
                                 "query_latency_p50_ms",
                                 "peak_rss_mb"};

const char* const kPerLayer[] = {"classad.parse_us",
                                 "classad.pair_eval_ns",
                                 "analysis.lint_us",
                                 "analysis.schema_fold_ms",
                                 "matchmaker.deliver_us",
                                 "matchmaker.service_order_ms",
                                 "engine.evals_per_cycle",
                                 "engine.pruned_per_cycle",
                                 "engine.eval_ns_in_cycle",
                                 "policy.solve_ms",
                                 "policy.pairs_per_cycle",
                                 "pool_manager.cycle_ms",
                                 "pool_manager.cycle_rest_ms",
                                 "claiming.verify_us",
                                 "wire.ad_encode_us",
                                 "wire.ad_decode_us",
                                 "wire.notify_decode_us",
                                 "service.intake_ads_per_s",
                                 "service.query_rtt_idle_ms",
                                 "service.cycle_p50_ms",
                                 "service.loop_p90_ms"};

int usage() {
  std::fprintf(stderr,
               "usage: mm_perfbench --workload "
               "hetero-greedy|contended-assignment|live-loopback --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

void printMetrics(const std::map<std::string, Metric>& metrics,
                  const char* const* names, std::size_t count, FILE* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = metrics.find(names[i]);
    double value = it == metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", names[i], value,
                 it == metrics.end() ? "" : it->second.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::markProcessStart();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();
  perfbench::spanLog().enable(options.trace);

  perfbench::Result result;
  if (options.workload == "hetero-greedy") {
    result = perfbench::runInProcess(options, false);
  } else if (options.workload == "contended-assignment") {
    result = perfbench::runInProcess(options, true);
  } else if (options.workload == "live-loopback") {
    result = perfbench::runLive(options);
  } else {
    return usage();
  }

  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  if (options.trace) {
    perfbench::fillSpanLayers(result);
    std::filesystem::create_directories(kTraceDir);
    const std::string path = std::string(kTraceDir) + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (perfbench::spanLog().writeChrome(path)) {
      std::fprintf(stderr, "trace: %zu spans written to %s\n",
                   perfbench::spanLog().spans().size(), path.c_str());
    }
    std::fprintf(stderr, "self time by layer (s):\n");
    for (const auto& [layer, self] : perfbench::spanLog().selfByLayer()) {
      std::fprintf(stderr, "  %-14s %10.4f\n", layer.c_str(), self);
    }
    std::fprintf(stderr, "traced end-to-end: ");
    printMetrics(result.endToEnd, kEndToEnd, std::size(kEndToEnd), stderr);
    std::fprintf(stderr, "\n");
  } else {
    std::fprintf(stderr, "end-to-end: ");
    printMetrics(result.endToEnd, kEndToEnd, std::size(kEndToEnd), stderr);
    std::fprintf(stderr, "\n");
  }

  const bool correct = result.problems.empty();
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (options.trace) {
    printMetrics(result.perLayer, kPerLayer, std::size(kPerLayer), stdout);
  } else {
    printMetrics(result.endToEnd, kEndToEnd, std::size(kEndToEnd), stdout);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
