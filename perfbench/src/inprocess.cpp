// inprocess.cpp - The in-process closed loop (hetero-greedy and
// contended-assignment).
//
// One thread drives an htcsim::PoolManager through its front door
// (deliver) and runs negotiation cycles back to back (negotiateNow); the
// sim clock advances a fixed interval per cycle for ad expiry and priority
// decay only. The benchmark's Transport is both agent sides: it receives
// the match notifications, re-verifies each match with
// matchmaking::evaluateClaim, withdraws the machine while the job runs,
// re-advertises it when the job ends, reports usage, tops the users'
// queues back up and refreshes every ad within its lifetime.
#include <unordered_map>

#include "checks.h"
#include "classad/query.h"
#include "gen.h"
#include "matchmaker/claiming.h"
#include "matchmaker/engine/engine.h"
#include "runners.h"
#include "sim/pool_manager.h"
#include "tracing.h"

namespace perfbench {

namespace {

constexpr double kCycleSimSeconds = 30.0;
/// The initial pool is filled this many times, each into a fresh
/// matchmaker; setup_s is the median fill.
constexpr std::size_t kSetupFills = 60;
constexpr double kWarmupSeconds = 4.0;
constexpr std::size_t kWarmupCycles = 20;
constexpr std::size_t kDrainCycleLimit = 400;
/// During the warm-up and the timed phase the loop moves to the next CPU
/// this often (see CpuRotation).
constexpr double kRotateSeconds = 0.5;

/// The agents' side of the transport: records every notification with
/// the wall time it reached its side.
class CaptureTransport : public htcsim::Transport {
 public:
  struct Delivery {
    double at = 0.0;
    bool toCustomer = false;
    matchmaking::MatchNotification note;
  };
  void attach(std::string, htcsim::Endpoint*) override {}
  void detach(std::string_view) override {}
  bool send(std::string, std::string to, htcsim::Message payload) override {
    if (auto* n = std::get_if<matchmaking::MatchNotification>(&payload)) {
      inbox.push_back({processSeconds(), to == kCustomerContact, std::move(*n)});
    }
    return true;
  }
  std::vector<Delivery> inbox;
};

struct MachineState {
  classad::ClassAdPtr ad;
  std::uint64_t ticket = 0;
  std::uint64_t sequence = 0;
  bool held = false;
  std::size_t releaseCycle = 0;
  std::string user;  ///< owner of the job holding the machine
  int hold = 0;
};

/// A queued job. Matched jobs are forgotten once their cycle is checked,
/// so the benchmark's own memory does not grow with the run.
struct QueuedJob {
  JobSpec spec;
  classad::ClassAdPtr ad;
  std::uint64_t sequence = 0;
  double submittedAt = 0.0;
};

/// The matchmaker behind its front door, with the clock and the
/// transport it runs on.
struct Front {
  htcsim::Simulator sim;
  htcsim::Metrics metrics;
  CaptureTransport net;
  std::optional<htcsim::PoolManager> pool;
};

enum class Phase { kSetup, kWarmup, kTimed, kDrain };

class InProcessRun {
 public:
  InProcessRun(const Options& options, bool assignment)
      : options_(options),
        assignment_(assignment),
        rng_(options.seed),
        shape_(makeShape()(rng_)) {
    // Cycles are run by negotiateNow(); the timer never fires.
    config_.negotiationInterval = 1e12;
    config_.adLifetime = (shape_.refreshCycles + 3) * kCycleSimSeconds;
    config_.matchmaker.negotiationPolicy = policy();
    world_.machines = &shape_.machines;
    world_.jobOf = [this](std::uint64_t id) -> const JobSpec& {
      return queue_.at(id).spec;
    };
  }

  Result run() {
    Result result;
    rotation_.emplace();
    {
      Scope span("bench.setup");
      result.endToEnd["setup_s"] = {setup(), "s"};
    }

    phase_ = Phase::kWarmup;
    {
      Scope span("bench.warmup");
      const double until = processSeconds() + kWarmupSeconds;
      while (processSeconds() < until || cycle_ < kWarmupCycles) runCycle();
    }

    phase_ = Phase::kTimed;
    const double timedStart = processSeconds();
    matchStats_ = WindowStats(timedStart);
    queryStats_ = WindowStats(timedStart);
    queryStart_ = timedStart;
    {
      Scope span("bench.timed");
      while (processSeconds() - timedStart < options_.seconds) runCycle();
    }
    matchStats_.finish(processSeconds());
    queryStats_.finish(processSeconds());
    rotation_.reset();
    conservation("end of timed phase");

    phase_ = Phase::kDrain;
    {
      Scope span("bench.drain");
      std::size_t cycles = 0;
      while (!queue_.empty() && cycles++ < kDrainCycleLimit) runCycle();
    }
    conservation("after drain");
    const std::size_t neverMatched = queue_.size();
    {
      Scope span("bench.checks");
      quiescentQuery();
    }

    result.attempted = submitted_ + queriesIssued_ + 1;
    result.failed = claimsRejected_ + queryErrors_ + neverMatched;
    result.endToEnd["matches_per_s"] = {matchStats_.rate(), "1/s"};
    result.endToEnd["match_latency_p50_ms"] = {matchStats_.p50() * 1e3, "ms"};
    result.endToEnd["match_latency_p90_ms"] = {matchStats_.p90() * 1e3, "ms"};
    result.endToEnd["query_latency_p50_ms"] = {queryStats_.p50() * 1e3, "ms"};
    result.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    std::fprintf(stderr,
                 "in-process: %zu cycles (%zu timed), %zu timed matches in "
                 "%zu windows, %zu queries, %llu jobs, %zu claims rejected\n",
                 cycle_, totals_.cycles, timedMatches_, matchStats_.windows(),
                 queriesIssued_, static_cast<unsigned long long>(submitted_),
                 claimsRejected_);
    if (assignment_) {
      std::fprintf(stderr,
                   "in-process: %zu of %zu cycles matched fewer pairs than "
                   "there were free machines\n",
                   cyclesBelowFree_, cycle_);
    }

    if (spanLog().on()) {
      fillCycleLayers(totals_, result);
      std::vector<classad::ClassAdPtr> machineAds;
      for (const MachineState& m : machines_) machineAds.push_back(m.ad);
      probeLayers(machineAds, initialJobAds_, sampleNotes_);
      measureService(options_, makeShape(), policy(), result);
    }
    for (std::string& p : problems_.messages) {
      result.problems.push_back(std::move(p));
    }
    if (problems_.count > problems_.messages.size()) {
      result.problems.push_back(
          std::to_string(problems_.count - problems_.messages.size()) +
          " further check failures");
    }
    return result;
  }

 private:
  ShapeFn makeShape() const {
    return assignment_ ? contendedShape : heteroShape;
  }
  matchmaking::policy::PolicyKind policy() const {
    return assignment_ ? matchmaking::policy::PolicyKind::kAssignment
                       : matchmaking::policy::PolicyKind::kGreedy;
  }

  std::unique_ptr<Front> makeFront() const {
    auto front = std::make_unique<Front>();
    front->pool.emplace(front->sim, front->net, front->metrics, config_);
    front->pool->start();
    return front;
  }

  /// Fills the initial pool (machines, then the first job queue) into a
  /// fresh matchmaker kSetupFills times. Every fill starts from the same
  /// generator state, so each parses and delivers the same ads; the last
  /// matchmaker is kept for the run. Each fill runs on the next CPU (see
  /// CpuRotation). Returns the median fill, timed from the first ad text
  /// until deliver() has returned for the last ad.
  double setup() {
    for (std::size_t i = 0; i < shape_.machines.size(); ++i) {
      nameToMachine_[shape_.machines[i].name] = static_cast<std::uint32_t>(i);
    }
    const std::vector<std::string> owners = shape_.initialOwners();
    const Rng initial = rng_;
    std::optional<SpanPause> pause;
    std::vector<double> fills;
    for (std::size_t k = 0; k < kSetupFills; ++k) {
      // Only the first fill is traced; the others repeat its calls.
      if (k == 1) pause.emplace();
      rng_ = initial;
      machines_.assign(shape_.machines.size(), MachineState{});
      queue_.clear();
      submitted_ = 0;
      initialJobAds_.clear();
      front_.reset();
      front_ = makeFront();
      rotation_->next();
      const double start = processSeconds();
      for (std::uint32_t i = 0; i < machines_.size(); ++i) advertiseMachine(i);
      for (const std::string& user : owners) {
        initialJobAds_.push_back(submitJob(user).ad);
      }
      fills.push_back(processSeconds() - start);
      if (pool().storedResources() != machines_.size() ||
          pool().storedRequests() != queue_.size()) {
        problems_.add("matchmaker does not hold the initial pool");
      }
    }
    pause.reset();
    const double setup = quantile(fills, 0.5);
    std::fprintf(stderr,
                 "setup: %zu fills, first (cold) %.4f s, min %.4f s, "
                 "median %.4f s\n",
                 fills.size(), fills.front(), quantile(fills, 0.0), setup);
    return setup;
  }

  htcsim::PoolManager& pool() { return *front_->pool; }

  static std::uint64_t nonZero(std::uint64_t t) { return t == 0 ? 1 : t; }

  void deliver(htcsim::Message message,
               const char* spanName = "matchmaker.deliver") {
    Scope span(spanName);
    pool().deliver(htcsim::Envelope{"agents", "collector", std::move(message)});
  }

  classad::ClassAdPtr parse(const std::string& text) {
    Scope span("classad.parse");
    return classad::makeShared(classad::ClassAd::parse(text));
  }

  void advertiseMachine(std::uint32_t i) {
    MachineState& m = machines_[i];
    m.ticket = nonZero(rng_.next());
    m.ad = parse(machineText(shape_.machines[i], m.ticket));
    sendMachine(i);
  }

  void sendMachine(std::uint32_t i) {
    MachineState& m = machines_[i];
    matchmaking::Advertisement adv;
    adv.ad = m.ad;
    adv.sequence = ++m.sequence;
    adv.key = machineKey(shape_.machines[i]);
    deliver(std::move(adv));
  }

  const QueuedJob& submitJob(const std::string& user) {
    QueuedJob job;
    job.spec = shape_.drawJob(rng_, user);
    job.spec.id = ++submitted_;
    job.ad = parse(jobText(job.spec));
    QueuedJob& stored = queue_[job.spec.id] = std::move(job);
    stored.submittedAt = processSeconds();
    sendJob(stored);
    return stored;
  }

  void sendJob(QueuedJob& job) {
    matchmaking::Advertisement adv;
    adv.ad = job.ad;
    adv.sequence = ++job.sequence;
    adv.isRequest = true;
    adv.key = jobKey(job.spec);
    deliver(std::move(adv));
  }

  /// Soft state: every live ad is re-sent every refreshCycles cycles,
  /// staggered by id so the traffic is even.
  void refresh() {
    const auto period = static_cast<std::size_t>(shape_.refreshCycles);
    const std::size_t phase = cycle_ % period;
    for (std::size_t i = phase; i < machines_.size(); i += period) {
      if (!machines_[i].held) sendMachine(static_cast<std::uint32_t>(i));
    }
    for (auto& [id, job] : queue_) {
      if (id % period == phase) sendJob(job);
    }
  }

  void releaseFinished() {
    for (std::uint32_t i = 0; i < machines_.size(); ++i) {
      MachineState& m = machines_[i];
      if (!m.held || m.releaseCycle > cycle_) continue;
      htcsim::UsageReport usage;
      usage.user = m.user;
      usage.resourceSeconds = m.hold * kCycleSimSeconds;
      deliver(std::move(usage), "matchmaker.usage");
      m.held = false;
      advertiseMachine(i);
    }
  }

  void pumpQueries() {
    if (phase_ != Phase::kTimed) return;
    const double now = processSeconds();
    for (;;) {
      const double due = queryStart_ + static_cast<double>(queriesIssued_) /
                                           kQueriesPerSecond;
      if (due > now) break;
      ++queriesIssued_;
      if (!runQuery()) ++queryErrors_;
      const double done = processSeconds();
      queryStats_.add(done, done - due);
    }
  }

  /// One pool query of the mm_status -constraint ... -project ... shape,
  /// answered the way matchmakerd answers a Query frame.
  bool runQuery(std::vector<classad::ClassAdPtr>* out = nullptr) {
    Scope span("engine.query");
    try {
      const classad::Query q =
          classad::Query::fromConstraint(shape_.query.constraint);
      auto ads = matchmaking::engine::filterAds(pool().snapshotResources(), q,
                                                shape_.query.projection);
      if (out != nullptr) *out = std::move(ads);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  struct CustomerCopy {
    MatchPair pair;
    matchmaking::Ticket ticket = 0;
    double at = 0.0;
  };

  void runCycle() {
    if (rotation_ && processSeconds() >= nextRotation_) {
      rotation_->next();
      nextRotation_ = processSeconds() + kRotateSeconds;
    }
    front_->sim.runUntil(static_cast<double>(cycle_ + 1) * kCycleSimSeconds);
    releaseFinished();
    refresh();
    pumpQueries();

    CycleRecord record;
    for (std::uint32_t i = 0; i < machines_.size(); ++i) {
      if (!machines_[i].held) record.freeAtStart.push_back(i);
    }
    if (assignment_) {
      for (const auto& [id, job] : queue_) record.queuedAtStart.push_back(id);
    }

    front_->net.inbox.clear();
    const double start = processSeconds();
    matchmaking::NegotiationStats stats;
    {
      Scope span("pool_manager.cycle");
      stats = pool().negotiateNow();
    }
    const double wall = processSeconds() - start;
    if (phase_ == Phase::kTimed) totals_.add(stats, wall);

    Scope span("bench.notify");
    std::vector<CustomerCopy> copies;
    for (CaptureTransport::Delivery& d : front_->net.inbox) {
      const classad::ClassAd& jobAd = d.toCustomer ? *d.note.myAd : *d.note.peerAd;
      const classad::ClassAd& machineAd =
          d.toCustomer ? *d.note.peerAd : *d.note.myAd;
      const auto id =
          static_cast<std::uint64_t>(jobAd.getInteger("JobId").value_or(0));
      const auto it = nameToMachine_.find(machineAd.getString("Name").value_or(""));
      if (queue_.count(id) == 0 || it == nameToMachine_.end()) {
        problems_.add("notification names an unknown or finished job, or an "
                      "unknown machine");
        continue;
      }
      const MatchPair pair{id, it->second};
      if (d.toCustomer) {
        record.customer.push_back(pair);
        copies.push_back({pair, d.note.ticket, d.at});
        if (sampleNotes_.size() < 256) sampleNotes_.push_back(d.note);
      } else {
        record.resource.push_back(pair);
      }
    }
    check(record);

    std::vector<std::string> resubmit;
    for (const CustomerCopy& c : copies) {
      const auto it = queue_.find(c.pair.job);
      if (it == queue_.end()) continue;  // a second copy; already reported
      if (phase_ == Phase::kTimed) {
        ++timedMatches_;
        matchStats_.add(c.at, c.at - it->second.submittedAt);
      }
      claim(c.pair, c.ticket, it->second);
      if (phase_ != Phase::kDrain) resubmit.push_back(it->second.spec.owner);
      queue_.erase(it);
      ++matched_;
    }
    for (const std::string& user : resubmit) submitJob(user);
    ++cycle_;
    pumpQueries();
  }

  /// The customer claims the machine directly; the resource side
  /// re-verifies against its current ad and outstanding ticket.
  void claim(const MatchPair& pair, matchmaking::Ticket ticket,
             const QueuedJob& job) {
    MachineState& m = machines_[pair.machine];
    matchmaking::ClaimRequest request;
    request.requestAd = job.ad;
    request.ticket = ticket;
    request.customerContact = kCustomerContact;
    matchmaking::ClaimResponse response;
    {
      Scope span("claiming.verify");
      response = matchmaking::evaluateClaim(*m.ad, m.held ? 0 : m.ticket,
                                            request);
    }
    if (!response.accepted) {
      ++claimsRejected_;
      problems_.add("claim rejected: " + response.reason);
      return;
    }
    m.held = true;
    m.user = job.spec.owner;
    m.hold = static_cast<int>(rng_.range(shape_.holdMin, shape_.holdMax));
    m.releaseCycle = cycle_ + static_cast<std::size_t>(m.hold);
    htcsim::AdInvalidate withdraw;
    withdraw.key = machineKey(shape_.machines[pair.machine]);
    deliver(std::move(withdraw), "matchmaker.withdraw");
  }

  /// The cycle's checks run as soon as it ends, while every job it names
  /// is still known; their cost is a small share of the cycle's.
  void check(const CycleRecord& record) {
    Scope span("bench.check");
    checkFeasible(world_, record, problems_);
    checkOneToOne(world_, record, jobMatched_, problems_);
    checkBothSides(record, problems_);
    if (assignment_) {
      checkMaximum(world_, record, problems_);
      // The check passed or was reported; this counts the cycles where the
      // maximum left some free machine unmatched, so it was not trivial.
      if (record.customer.size() < record.freeAtStart.size()) ++cyclesBelowFree_;
    } else {
      checkGreedyBest(world_, record, problems_);
    }
  }

  void conservation(const char* when) {
    const std::size_t stored = pool().storedRequests();
    if (submitted_ != matched_ + stored || stored != queue_.size()) {
      problems_.add(std::string("conservation (") + when + "): submitted " +
                    std::to_string(submitted_) + " != matched " +
                    std::to_string(matched_) + " + queued " +
                    std::to_string(stored));
    }
    std::size_t held = 0;
    for (const MachineState& m : machines_) held += m.held ? 1 : 0;
    if (pool().storedResources() + held != machines_.size()) {
      problems_.add(std::string("conservation (") + when + "): " +
                    std::to_string(pool().storedResources()) + " free + " +
                    std::to_string(held) + " held != " +
                    std::to_string(machines_.size()) + " machines");
    }
  }

  void quiescentQuery() {
    std::vector<classad::ClassAdPtr> ads;
    if (!runQuery(&ads)) {
      ++queryErrors_;
      problems_.add("quiescent query failed");
      return;
    }
    std::vector<std::string> got;
    for (const auto& ad : ads) got.push_back(ad->getString("Name").value_or(""));
    std::vector<std::string> want;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      if (!machines_[i].held && shape_.query.selects(shape_.machines[i])) {
        want.push_back(shape_.machines[i].name);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      problems_.add("quiescent query returned " + std::to_string(got.size()) +
                    " machines; expected " + std::to_string(want.size()));
    }
  }

  const Options& options_;
  const bool assignment_;
  Rng rng_;
  WorkloadShape shape_;
  htcsim::PoolManagerConfig config_;
  std::unique_ptr<Front> front_;
  World world_;

  std::vector<MachineState> machines_;
  std::unordered_map<std::string, std::uint32_t> nameToMachine_;
  std::unordered_map<std::uint64_t, QueuedJob> queue_;
  std::uint64_t submitted_ = 0;  ///< also the last JobId issued
  std::size_t matched_ = 0;
  std::vector<char> jobMatched_;
  std::vector<classad::ClassAdPtr> initialJobAds_;  ///< for the probes

  Phase phase_ = Phase::kSetup;
  std::optional<CpuRotation> rotation_;
  double nextRotation_ = 0.0;
  std::size_t cycle_ = 0;
  CycleTotals totals_;
  std::vector<matchmaking::MatchNotification> sampleNotes_;

  std::size_t timedMatches_ = 0;
  WindowStats matchStats_;
  WindowStats queryStats_;
  double queryStart_ = 0.0;
  std::size_t queriesIssued_ = 0;
  std::size_t queryErrors_ = 0;
  std::size_t claimsRejected_ = 0;
  std::size_t cyclesBelowFree_ = 0;
  Problems problems_;
};

}  // namespace

Result runInProcess(const Options& options, bool assignment) {
  InProcessRun run(options, assignment);
  return run.run();
}

}  // namespace perfbench
