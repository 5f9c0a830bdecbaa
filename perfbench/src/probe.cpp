// probe.cpp - Per-layer metrics for the traced run.
//
// Layers a workload's closed loop already calls (parse, deliver, cycle,
// claim verification, and on live-loopback the wire codec) are timed by
// the spans around those calls. The rest are timed here on the
// workload's own ads, each call wrapped in a span, so every workload
// reports every layer.
#include <cmath>

#include "classad/analysis/lint.h"
#include "classad/analysis/schema.h"
#include "classad/match.h"
#include "gen.h"
#include "runners.h"
#include "sim/pool_manager.h"
#include "tracing.h"
#include "wire/codec.h"

namespace perfbench {

namespace {

class NullTransport : public htcsim::Transport {
 public:
  void attach(std::string, htcsim::Endpoint*) override {}
  void detach(std::string_view) override {}
  bool send(std::string, std::string, htcsim::Message) override { return true; }
};

std::optional<wire::Frame> toFrame(const std::string& bytes) {
  wire::FrameDecoder decoder;
  decoder.append(bytes);
  wire::Frame frame;
  if (decoder.next(frame) != wire::DecodeStatus::kFrame) return std::nullopt;
  return frame;
}

std::vector<classad::ClassAdPtr> sample(const std::vector<classad::ClassAdPtr>& ads,
                                        std::size_t n) {
  std::vector<classad::ClassAdPtr> out;
  if (ads.empty()) return out;
  const std::size_t step = std::max<std::size_t>(1, ads.size() / n);
  for (std::size_t i = 0; i < ads.size() && out.size() < n; i += step) {
    out.push_back(ads[i]);
  }
  return out;
}

}  // namespace

void CycleTotals::add(const matchmaking::NegotiationStats& s,
                      double wallSeconds) {
  ++cycles;
  wall += wallSeconds;
  serviceOrder += s.serviceOrderSeconds;
  solve += s.policySolveSeconds;
  scan += s.scanSeconds;
  evaluations += static_cast<double>(s.candidateEvaluations);
  pruned += static_cast<double>(s.candidatesPruned);
  pairs += static_cast<double>(s.matches);
}

void fillCycleLayers(const CycleTotals& t, Result& r) {
  const double n = std::max<double>(1.0, static_cast<double>(t.cycles));
  r.perLayer["matchmaker.service_order_ms"] = {t.serviceOrder / n * 1e3, "ms"};
  r.perLayer["engine.evals_per_cycle"] = {t.evaluations / n, "count"};
  r.perLayer["engine.pruned_per_cycle"] = {t.pruned / n, "count"};
  r.perLayer["engine.eval_ns_in_cycle"] = {
      t.evaluations > 0 ? t.scan / t.evaluations * 1e9 : 0.0, "ns"};
  r.perLayer["policy.solve_ms"] = {t.solve / n * 1e3, "ms"};
  r.perLayer["policy.pairs_per_cycle"] = {t.pairs / n, "count"};
  r.perLayer["pool_manager.cycle_ms"] = {t.wall / n * 1e3, "ms"};
  r.perLayer["pool_manager.cycle_rest_ms"] = {
      (t.wall - t.solve - t.serviceOrder) / n * 1e3, "ms"};
}

void probeLayers(const std::vector<classad::ClassAdPtr>& machines,
                 const std::vector<classad::ClassAdPtr>& jobs,
                 const std::vector<matchmaking::MatchNotification>& notes) {
  namespace ca = classad::analysis;
  Scope probe("bench.probe");
  // Two-way match of sampled pairs, in batches so the clock read is
  // amortised over many evaluations.
  Rng rng(0x5eed);
  constexpr std::uint32_t kBatch = 64;
  std::size_t matched = 0;
  for (int b = 0; b < 200 && !machines.empty() && !jobs.empty(); ++b) {
    std::vector<std::pair<const classad::ClassAd*, const classad::ClassAd*>> pairs;
    for (std::uint32_t k = 0; k < kBatch; ++k) {
      pairs.emplace_back(jobs[rng.next() % jobs.size()].get(),
                         machines[rng.next() % machines.size()].get());
    }
    Scope span("classad.pair_eval", kBatch);
    for (const auto& [job, machine] : pairs) {
      matched += classad::analyzeMatch(*job, *machine).matched ? 1 : 0;
    }
  }
  std::fprintf(stderr, "probe: %zu of %u sampled pairs match\n", matched,
               200 * kBatch);

  // Schema fold over each side at the pool's size, then lint each side
  // against the opposite side's schema (what matchmakerd does per ad).
  ca::Schema machineSchema;
  ca::Schema jobSchema;
  for (int rep = 0; rep < 3; ++rep) {
    {
      Scope span("analysis.schema_fold");
      machineSchema = ca::Schema::fromAds(machines);
    }
    {
      Scope span("analysis.schema_fold");
      jobSchema = ca::Schema::fromAds(jobs);
    }
  }
  for (const auto& ad : sample(jobs, 200)) {
    ca::LintOptions opts;
    opts.otherSchema = &machineSchema;
    Scope span("analysis.lint");
    (void)ca::lintAd(*ad, opts);
  }
  for (const auto& ad : sample(machines, 200)) {
    ca::LintOptions opts;
    opts.otherSchema = &jobSchema;
    Scope span("analysis.lint");
    (void)ca::lintAd(*ad, opts);
  }

  // Wire codec: one Advertisement envelope per ad, encoded then decoded.
  std::vector<classad::ClassAdPtr> codecAds = sample(machines, 200);
  for (const auto& ad : sample(jobs, 200)) codecAds.push_back(ad);
  for (const auto& ad : codecAds) {
    matchmaking::Advertisement adv;
    adv.ad = ad;
    adv.sequence = 1;
    adv.key = "probe";
    std::string bytes;
    {
      Scope span("wire.ad_encode");
      bytes = wire::encodeEnvelope({"agents", "collector", std::move(adv)});
    }
    Scope span("wire.ad_decode");
    if (const auto frame = toFrame(bytes)) {
      std::string error;
      (void)wire::decodeEnvelope(*frame, &error);
    }
  }
  for (const auto& note : notes) {
    const std::string bytes =
        wire::encodeEnvelope({"collector", kCustomerContact, note});
    Scope span("wire.notify_decode");
    if (const auto frame = toFrame(bytes)) {
      std::string error;
      (void)wire::decodeEnvelope(*frame, &error);
    }
  }
}

void probeDeliver(const std::vector<classad::ClassAdPtr>& machines,
                  const std::vector<std::string>& machineKeys,
                  const std::vector<classad::ClassAdPtr>& jobs,
                  const std::vector<std::string>& jobKeys) {
  Scope probe("bench.probe_deliver");
  htcsim::Simulator sim;
  htcsim::Metrics metrics;
  NullTransport net;
  htcsim::PoolManagerConfig cfg;
  cfg.negotiationInterval = 1e12;
  htcsim::PoolManager pool(sim, net, metrics, cfg);
  pool.start();
  const auto send = [&](const classad::ClassAdPtr& ad, const std::string& key,
                        bool request) {
    matchmaking::Advertisement adv;
    adv.ad = ad;
    adv.sequence = 1;
    adv.isRequest = request;
    adv.key = key;
    Scope span("matchmaker.deliver");
    pool.deliver({"agents", "collector", std::move(adv)});
  };
  // Interleaved, as the live workload's ads arrive.
  for (std::size_t i = 0; i < std::max(machines.size(), jobs.size()); ++i) {
    if (i < machines.size()) send(machines[i], machineKeys[i], false);
    if (i < jobs.size()) send(jobs[i], jobKeys[i], true);
  }
}

void fillSpanLayers(Result& r) {
  const SpanLog& log = spanLog();
  const auto us = [&](const char* span) {
    return log.meanSecondsPerOp(span) * 1e6;
  };
  r.perLayer["classad.parse_us"] = {us("classad.parse"), "us"};
  r.perLayer["classad.pair_eval_ns"] = {us("classad.pair_eval") * 1e3, "ns"};
  r.perLayer["analysis.lint_us"] = {us("analysis.lint"), "us"};
  r.perLayer["analysis.schema_fold_ms"] = {us("analysis.schema_fold") / 1e3,
                                           "ms"};
  r.perLayer["matchmaker.deliver_us"] = {us("matchmaker.deliver"), "us"};
  r.perLayer["claiming.verify_us"] = {us("claiming.verify"), "us"};
  r.perLayer["wire.ad_encode_us"] = {us("wire.ad_encode"), "us"};
  r.perLayer["wire.ad_decode_us"] = {us("wire.ad_decode"), "us"};
  r.perLayer["wire.notify_decode_us"] = {us("wire.notify_decode"), "us"};
}

}  // namespace perfbench
