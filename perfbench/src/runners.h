// runners.h - The three workloads and the layer probes the traced run adds.
#pragma once

#include <vector>

#include "bench.h"
#include "classad/classad.h"
#include "gen.h"
#include "matchmaker/matchmaker.h"
#include "matchmaker/protocol.h"

namespace perfbench {

using ShapeFn = WorkloadShape (*)(Rng&);

/// hetero-greedy (assignment=false) and contended-assignment (true):
/// htcsim::PoolManager in process, fed through deliver(), cycles run back
/// to back by negotiateNow().
Result runInProcess(const Options& options, bool assignment);

/// live-loopback: matchmakerd hosted in this process, driven over three
/// loopback connections by a single-threaded load generator.
Result runLive(const Options& options);

/// Per-cycle counters summed over the timed phase.
struct CycleTotals {
  std::size_t cycles = 0;
  double wall = 0.0;
  double serviceOrder = 0.0;
  double solve = 0.0;
  double scan = 0.0;
  double evaluations = 0.0;
  double pruned = 0.0;
  double pairs = 0.0;
  void add(const matchmaking::NegotiationStats& s, double wallSeconds);
};

/// Per-layer metrics derived from one run's cycle counters.
void fillCycleLayers(const CycleTotals& t, Result& result);

/// Times the layers a workload's run does not already span, on the
/// workload's own ads: two-way pair evaluation, lint against the opposite
/// side's schema, the schema fold, and the wire codec. Records spans.
void probeLayers(const std::vector<classad::ClassAdPtr>& machines,
                 const std::vector<classad::ClassAdPtr>& jobs,
                 const std::vector<matchmaking::MatchNotification>& notes);

/// Delivers the ads into a fresh in-process PoolManager, recording
/// matchmaker.deliver spans (the live workload's deliver cost).
void probeDeliver(const std::vector<classad::ClassAdPtr>& machines,
                  const std::vector<std::string>& machineKeys,
                  const std::vector<classad::ClassAdPtr>& jobs,
                  const std::vector<std::string>& jobKeys);

/// Serves `makeShape`'s pool and closed loop through a matchmakerd hosted
/// in this process, with live-loopback's own code, for a short run with
/// span recording paused, and fills the service.* metrics from it. The
/// in-process workloads' traced runs use it, so every workload reports
/// the service layer on its own pool.
void measureService(const Options& options, ShapeFn makeShape,
                    matchmaking::policy::PolicyKind policy, Result& result);

/// Per-layer metrics read from the span log (parse, deliver, verify,
/// lint, fold, codec, pair evaluation).
void fillSpanLayers(Result& result);

}  // namespace perfbench
