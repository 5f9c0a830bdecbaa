// live.cpp - The live-loopback workload, and the same loop run briefly on
// an in-process workload's pool for its service-layer metrics.
//
// A service::MatchmakerDaemon runs on its own thread inside this process
// (so no child process can outlive a run). The load generator runs on the
// calling thread over three loopback connections speaking the wire codec:
// "resources" plays every resource agent, "customers" every customer
// agent, and "monitor" issues pool queries. The closed loop is the same as
// in process, paced by the daemon's own negotiation timer.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>

#include "checks.h"
#include "gen.h"
#include "matchmaker/claiming.h"
#include "runners.h"
#include "service/matchmakerd.h"
#include "tracing.h"
#include "wire/codec.h"

namespace perfbench {

namespace {

/// Negotiation interval, s. A matched machine's ad stays in the daemon's
/// store until the resource side's withdraw arrives; if the generator
/// falls an interval behind (a stall of the benchmark thread), the next
/// cycle offers the machine again and that claim is rejected. One second
/// leaves room for the stalls seen on a loaded shared machine.
constexpr double kInterval = 1.0;
constexpr double kAdLifetime = 30.0;    ///< daemon ad lifetime, s
constexpr double kRefreshSeconds = 8.0; ///< every ad re-sent this often
/// Several hold periods, so the timed phase starts in steady state.
constexpr double kWarmupSeconds = 10.0;
constexpr double kDrainLimitSeconds = 30.0;
/// The initial pool is filled this many times, each into a fresh daemon;
/// setup_s is the median fill.
constexpr std::size_t kSetupFills = 30;
/// The short run measureService makes on an in-process workload's pool.
constexpr double kServiceWarmupSeconds = 2.0;
constexpr double kServiceTimedSeconds = 4.0;

/// One non-blocking client connection.
class Link {
 public:
  ~Link() { close(); }
  bool connect(std::uint16_t port, const std::string& address) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    queue(wire::encodeHello(
        {wire::kProtocolVersion, wire::kProtocolVersion, address}));
    return true;
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd() const noexcept { return fd_; }
  void queue(const std::string& bytes) {
    out_ += bytes;
    ++framesQueued_;
  }
  bool wantsWrite() const noexcept { return sent_ < out_.size(); }
  bool flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      sent_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    sent_ = 0;
    return true;
  }
  bool readAvailable() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.append(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
  wire::FrameDecoder& decoder() noexcept { return decoder_; }
  std::size_t framesQueued() const noexcept { return framesQueued_; }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t sent_ = 0;
  std::size_t framesQueued_ = 0;
  wire::FrameDecoder decoder_;
};

/// Histogram buckets as rendered in a DaemonStatus ad ("le<b>:<n>,...").
struct Buckets {
  std::vector<double> bounds;
  std::vector<double> counts;  ///< bounds.size() + 1 (overflow)
};

Buckets parseBuckets(const std::string& text) {
  Buckets b;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) continue;
    const double count = std::stod(item.substr(colon + 1));
    if (item.rfind("le", 0) == 0) b.bounds.push_back(std::stod(item.substr(2, colon - 2)));
    b.counts.push_back(count);
  }
  return b;
}

/// Quantile of the observations between two renderings, interpolated
/// within a bucket the same way obs::Histogram::quantile does.
double bucketQuantile(const Buckets& before, const Buckets& after, double q) {
  std::vector<double> delta(after.counts.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after.counts[i] - (i < before.counts.size() ? before.counts[i] : 0.0);
    total += delta[i];
  }
  if (total <= 0.0 || after.bounds.empty()) return 0.0;
  const double rank = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const double prev = cumulative;
    cumulative += delta[i];
    if (cumulative < rank) continue;
    if (i == after.bounds.size()) return after.bounds.back();
    const double lo = i == 0 ? 0.0 : after.bounds[i - 1];
    const double hi = after.bounds[i];
    if (delta[i] == 0.0) return hi;
    return lo + (hi - lo) * (rank - prev) / delta[i];
  }
  return after.bounds.back();
}

/// The daemon's DaemonStatus self-ad, as read over a Query frame.
struct DaemonStatus {
  classad::ClassAdPtr ad;
  double num(const char* name) const {
    return ad ? ad->getNumber(name).value_or(0.0) : 0.0;
  }
  Buckets buckets(const std::string& name) const {
    return parseBuckets(ad ? ad->getString(name + "_Buckets").value_or("") : "");
  }
};

/// A daemon plus the generator's three connections.
class LiveSession {
 public:
  using FrameHandler = std::function<void(Link&, const wire::Frame&)>;

  bool start(matchmaking::policy::PolicyKind policy, std::string* error) {
    service::MatchmakerDaemonConfig cfg;
    cfg.port = 0;
    cfg.negotiationInterval = kInterval;
    cfg.adLifetime = kAdLifetime;
    cfg.matchmaker.negotiationPolicy = policy;
    daemon_ = std::make_unique<service::MatchmakerDaemon>(cfg);
    if (!daemon_->start(error)) return false;
    return resources.connect(daemon_->port(), kResourceContact) &&
           customers.connect(daemon_->port(), kCustomerContact) &&
           monitor.connect(daemon_->port(), "monitor");
  }

  void stop() {
    resources.close();
    customers.close();
    monitor.close();
    if (daemon_) daemon_->stop();
  }

  service::MatchmakerDaemon& daemon() { return *daemon_; }

  std::size_t framesQueued() const {
    return resources.framesQueued() + customers.framesQueued() +
           monitor.framesQueued();
  }

  void send(Link& link, htcsim::Message message) {
    Scope span(std::holds_alternative<matchmaking::Advertisement>(message)
                   ? "wire.ad_encode"
                   : "wire.msg_encode");
    link.queue(wire::encodeEnvelope({link.fd() == customers.fd()
                                         ? kCustomerContact
                                         : kResourceContact,
                                     "collector", std::move(message)}));
  }

  /// Flushes, waits up to `timeoutMs` for input, and hands every whole
  /// frame to `handler`. Returns false if a connection failed.
  bool pump(int timeoutMs, const FrameHandler& handler) {
    Link* links[] = {&resources, &customers, &monitor};
    pollfd fds[3];
    for (int i = 0; i < 3; ++i) {
      if (!links[i]->flush()) return false;
      fds[i] = {links[i]->fd(),
                static_cast<short>(POLLIN | (links[i]->wantsWrite() ? POLLOUT : 0)),
                0};
    }
    if (::poll(fds, 3, timeoutMs) < 0 && errno != EINTR) return false;
    for (int i = 0; i < 3; ++i) {
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
      if ((fds[i].revents & POLLIN) && !links[i]->readAvailable()) return false;
      wire::Frame frame;
      for (;;) {
        const wire::DecodeStatus st = links[i]->decoder().next(frame);
        if (st == wire::DecodeStatus::kError) return false;
        if (st == wire::DecodeStatus::kNeedMore) break;
        handler(*links[i], frame);
      }
    }
    return true;
  }

  void queueQuery(const wire::PoolQuery& query) {
    monitor.queue(wire::encodePoolQuery(query));
  }

  /// Blocking query on the monitor link (outside the open loop); other
  /// frames that arrive meanwhile go to `handler`.
  std::optional<wire::PoolQueryResponse> query(const wire::PoolQuery& q,
                                               const FrameHandler& handler) {
    queueQuery(q);
    std::optional<wire::PoolQueryResponse> answer;
    const double deadline = processSeconds() + 10.0;
    while (!answer && processSeconds() < deadline) {
      if (!pump(5, [&](Link& link, const wire::Frame& frame) {
            if (&link == &monitor &&
                frame.type ==
                    static_cast<std::uint8_t>(wire::MsgType::kQueryResponse)) {
              std::string error;
              answer = wire::decodePoolQueryResponse(frame, &error);
            } else {
              handler(link, frame);
            }
          })) {
        break;
      }
    }
    return answer;
  }

  DaemonStatus status(const FrameHandler& handler) {
    wire::PoolQuery q;
    q.scope = "daemons";
    q.constraint = "DaemonType == \"Matchmaker\"";
    DaemonStatus st;
    if (const auto resp = query(q, handler); resp && resp->ok && !resp->ads.empty()) {
      st.ad = resp->ads.front();
    }
    return st;
  }

  Link resources;
  Link customers;
  Link monitor;

 private:
  std::unique_ptr<service::MatchmakerDaemon> daemon_;
};

struct MachineState {
  classad::ClassAdPtr ad;
  std::uint64_t ticket = 0;
  std::uint64_t sequence = 0;
  std::uint64_t generation = 0;  ///< bumped whenever the machine is re-sent
  bool held = false;
  double advertisedAt = 0.0;
  double releaseAt = 0.0;
  std::uint64_t job = 0;
  double heldSeconds = 0.0;
};

struct JobState {
  classad::ClassAdPtr ad;
  std::uint64_t sequence = 0;
  double submittedAt = 0.0;
  bool queued = false;
};

enum class Phase { kSetup, kWarmup, kTimed, kDrain, kQuiet };

class LiveRun {
 public:
  /// `serviceOnly`: a short run on another workload's pool that reports
  /// only the service.* metrics (see measureService).
  LiveRun(const Options& options, ShapeFn makeShape,
          matchmaking::policy::PolicyKind policy, bool serviceOnly)
      : options_(options),
        rng_(options.seed),
        shape_(makeShape(rng_)),
        policy_(policy),
        serviceOnly_(serviceOnly) {
    world_.machines = &shape_.machines;
    world_.jobOf = [this](std::uint64_t id) -> const JobSpec& {
      return jobs_[id - 1];
    };
  }

  Result run() {
    Result result;
    handler_ = [this](Link& link, const wire::Frame& frame) {
      onFrame(link, frame);
    };
    bool healthy = true;
    {
      Scope span("bench.setup");
      healthy = setup();
    }
    result.endToEnd["setup_s"] = {setupSeconds_, "s"};

    // The service.* and cycle layers are read from the daemon's self-ad.
    const bool layers = spanLog().on() || serviceOnly_;
    if (healthy) {
      phase_ = Phase::kWarmup;
      healthy = loopFor(serviceOnly_ ? kServiceWarmupSeconds : kWarmupSeconds);
    }
    DaemonStatus before;
    if (layers && healthy) before = session_->status(handler_);
    if (healthy) {
      phase_ = Phase::kTimed;
      timedStart_ = processSeconds();
      matchStats_ = WindowStats(timedStart_);
      queryStats_ = WindowStats(timedStart_);
      {
        Scope span("bench.timed");
        healthy = loopFor(serviceOnly_ ? kServiceTimedSeconds : options_.seconds);
      }
      const double timedEnd = processSeconds();
      matchStats_.finish(timedEnd);
      queryStats_.finish(timedEnd);
      // Answers to queries still in flight are drained (and not counted:
      // their windows are closed).
      while (healthy && !queryDue_.empty()) healthy = pumpOnce(5);
    }
    DaemonStatus after;
    if (layers && healthy) after = session_->status(handler_);
    if (healthy) {
      phase_ = Phase::kDrain;
      Scope span("bench.drain");
      const double until = processSeconds() + kDrainLimitSeconds;
      while (healthy && queued_ > 0 && processSeconds() < until) {
        healthy = loopFor(0.05);
      }
      // Let every withdraw and re-advertisement land.
      phase_ = Phase::kQuiet;
      if (healthy) healthy = loopFor(2 * kInterval);
    }
    if (!healthy && problems_.empty()) {
      problems_.add("a loopback connection failed");
    }
    if (healthy) {
      Scope span("bench.checks");
      finalChecks();
    }
    if (layers && healthy) {
      measureIdleQueries(result);
      fillDaemonLayers(before, after, result);
    }
    if (session_) session_->stop();

    result.attempted = jobs_.size() + queriesIssued_ + 1;
    result.failed = claimsRejected_ + queryErrors_ + neverMatched_;
    result.endToEnd["matches_per_s"] = {matchStats_.rate(), "1/s"};
    result.endToEnd["match_latency_p50_ms"] = {matchStats_.p50() * 1e3, "ms"};
    result.endToEnd["match_latency_p90_ms"] = {matchStats_.p90() * 1e3, "ms"};
    result.endToEnd["query_latency_p50_ms"] = {queryStats_.p50() * 1e3, "ms"};
    result.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    std::fprintf(stderr,
                 "live: %zu bursts, %zu timed matches, %zu queries, %zu jobs, "
                 "%zu notifications, %zu claims rejected\n",
                 records_.size(), timedMatches_, queriesIssued_,
                 jobs_.size(), customerCopies_, claimsRejected_);

    if (spanLog().on()) {
      std::vector<classad::ClassAdPtr> machineAds;
      std::vector<std::string> machineKeys;
      for (std::size_t i = 0; i < machines_.size(); ++i) {
        machineAds.push_back(machines_[i].ad);
        machineKeys.push_back(machineKey(shape_.machines[i]));
      }
      std::vector<std::string> jobKeys;
      for (std::size_t i = 0; i < initialJobAds_.size(); ++i) {
        jobKeys.push_back(jobKey(jobs_[i]));
      }
      probeLayers(machineAds, initialJobAds_, {});
      probeDeliver(machineAds, machineKeys, initialJobAds_, jobKeys);
    }
    for (std::string& p : problems_.messages) result.problems.push_back(std::move(p));
    if (problems_.count > problems_.messages.size()) {
      result.problems.push_back(
          std::to_string(problems_.count - problems_.messages.size()) +
          " further check failures");
    }
    return result;
  }

 private:
  struct RefreshEntry {
    double at = 0.0;
    bool job = false;
    std::uint64_t index = 0;
    std::uint64_t generation = 0;
  };

  /// Fills the initial pool into a fresh daemon kSetupFills times (once
  /// for serviceOnly). Every fill starts from the same generator state, so
  /// each sends the same ads; the last daemon is kept for the run.
  /// setupSeconds_ is the median fill, each timed from the first ad text
  /// until the daemon has received every frame sent.
  bool setup() {
    for (std::size_t i = 0; i < shape_.machines.size(); ++i) {
      nameToMachine_[shape_.machines[i].name] = static_cast<std::uint32_t>(i);
    }
    const std::vector<std::string> owners = shape_.initialOwners();
    const Rng initial = rng_;
    std::optional<SpanPause> pause;
    std::vector<double> fills;
    while (fills.size() < (serviceOnly_ ? 1 : kSetupFills)) {
      // Only the first fill is traced; the others repeat its calls.
      if (fills.size() == 1) pause.emplace();
      rng_ = initial;
      machines_.assign(shape_.machines.size(), MachineState{});
      jobs_.clear();
      jobState_.clear();
      queued_ = 0;
      deferred_.clear();
      if (session_) session_->stop();
      session_ = std::make_unique<LiveSession>();
      std::string error;
      if (!session_->start(policy_, &error)) {
        problems_.add("cannot start matchmakerd: " + error);
        return false;
      }
      const double firstAd = processSeconds();
      // Machine and job ads arrive interleaved, as in a live pool.
      for (std::size_t i = 0; i < std::max(machines_.size(), owners.size()); ++i) {
        if (i < machines_.size()) advertiseMachine(static_cast<std::uint32_t>(i));
        if (i < owners.size()) submitJob(owners[i]);
        if (i % 32 == 31 && !pumpOnce(0)) return false;
      }
      const std::size_t expected = session_->framesQueued();
      const double deadline = processSeconds() + 60.0;
      while (session_->daemon().framesReceived() < expected) {
        if (processSeconds() > deadline || !pumpOnce(1)) return false;
      }
      fills.push_back(processSeconds() - firstAd);
    }
    pause.reset();
    for (const JobState& j : jobState_) initialJobAds_.push_back(j.ad);
    setupSeconds_ = quantile(fills, 0.5);
    intakeAdsPerSecond_ =
        static_cast<double>(machines_.size() + initialJobAds_.size()) /
        setupSeconds_;
    std::fprintf(stderr,
                 "setup: %zu fills, first (cold) %.4f s, min %.4f s, "
                 "median %.4f s\n",
                 fills.size(), fills.front(), quantile(fills, 0.0),
                 setupSeconds_);
    // Stagger the first refreshes evenly over one refresh period.
    const double now = processSeconds();
    const double n =
        static_cast<double>(machines_.size() + initialJobAds_.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      refreshQueue_.push_back({now + kRefreshSeconds * static_cast<double>(k++) / n,
                               false, i, machines_[i].generation});
    }
    for (std::size_t i = 0; i < initialJobAds_.size(); ++i) {
      refreshQueue_.push_back(
          {now + kRefreshSeconds * static_cast<double>(k++) / n, true, i, 0});
    }
    settingUp_ = false;
    for (auto& [link, frame] : deferred_) onFrame(*link, frame);
    deferred_.clear();
    return true;
  }

  static std::uint64_t nonZero(std::uint64_t t) { return t == 0 ? 1 : t; }

  classad::ClassAdPtr parse(const std::string& text) {
    Scope span("classad.parse");
    return classad::makeShared(classad::ClassAd::parse(text));
  }

  void advertiseMachine(std::uint32_t i) {
    MachineState& m = machines_[i];
    m.ticket = nonZero(rng_.next());
    m.ad = parse(machineText(shape_.machines[i], m.ticket));
    ++m.generation;
    sendMachine(i);
  }

  void sendMachine(std::uint32_t i) {
    MachineState& m = machines_[i];
    matchmaking::Advertisement adv;
    adv.ad = m.ad;
    adv.sequence = ++m.sequence;
    adv.key = machineKey(shape_.machines[i]);
    m.advertisedAt = processSeconds();
    session_->send(session_->resources, std::move(adv));
  }

  void submitJob(const std::string& user) {
    JobSpec spec = shape_.drawJob(rng_, user);
    spec.id = jobs_.size() + 1;
    jobs_.push_back(spec);
    JobState state;
    state.ad = parse(jobText(spec));
    state.queued = true;
    ++queued_;
    jobState_.push_back(state);
    sendJob(spec.id - 1);
    jobState_.back().submittedAt = processSeconds();
    if (!settingUp_) {
      refreshQueue_.push_back({processSeconds() + kRefreshSeconds, true,
                               spec.id - 1, 0});
    }
  }

  void sendJob(std::uint64_t index) {
    JobState& j = jobState_[index];
    matchmaking::Advertisement adv;
    adv.ad = j.ad;
    adv.sequence = ++j.sequence;
    adv.isRequest = true;
    adv.key = jobKey(jobs_[index]);
    session_->send(session_->customers, std::move(adv));
  }

  bool pumpOnce(int timeoutMs) { return session_->pump(timeoutMs, handler_); }

  /// Runs the closed loop for `seconds` of wall time.
  bool loopFor(double seconds) {
    const double until = processSeconds() + seconds;
    while (processSeconds() < until) {
      const double now = processSeconds();
      for (std::uint32_t i = 0; i < machines_.size(); ++i) {
        MachineState& m = machines_[i];
        if (!m.held || m.releaseAt > now) continue;
        htcsim::UsageReport usage;
        usage.user = jobs_[m.job - 1].owner;
        usage.resourceSeconds = m.heldSeconds;
        session_->send(session_->customers, std::move(usage));
        m.held = false;
        advertiseMachine(i);
        refreshQueue_.push_back({now + kRefreshSeconds, false, i, m.generation});
      }
      while (!thinking_.empty() && thinking_.begin()->first <= now &&
             phase_ != Phase::kDrain && phase_ != Phase::kQuiet) {
        submitJob(thinking_.begin()->second);
        thinking_.erase(thinking_.begin());
      }
      while (!refreshQueue_.empty() && refreshQueue_.front().at <= now) {
        RefreshEntry e = refreshQueue_.front();
        refreshQueue_.pop_front();
        if (e.job) {
          if (!jobState_[e.index].queued) continue;
          sendJob(e.index);
        } else {
          const MachineState& m = machines_[e.index];
          if (m.held || m.generation != e.generation) continue;
          sendMachine(static_cast<std::uint32_t>(e.index));
        }
        e.at = now + kRefreshSeconds;
        refreshQueue_.push_back(e);
      }
      if (phase_ == Phase::kTimed) {
        while (timedStart_ + static_cast<double>(queriesIssued_) /
                                 kQueriesPerSecond <= now) {
          queryDue_.push_back(timedStart_ + static_cast<double>(queriesIssued_) /
                                                kQueriesPerSecond);
          ++queriesIssued_;
          wire::PoolQuery q;
          q.scope = "machines";
          q.constraint = shape_.query.constraint;
          q.projection = shape_.query.projection;
          session_->queueQuery(q);
        }
      }
      if (!pumpOnce(2)) return false;
    }
    return true;
  }

  void onFrame(Link& link, const wire::Frame& frame) {
    if (frame.type == static_cast<std::uint8_t>(wire::MsgType::kHello)) return;
    if (&link == &session_->monitor) {
      onQueryResponse(frame);
      return;
    }
    if (settingUp_) {
      deferred_.emplace_back(&link, frame);
      return;
    }
    std::optional<htcsim::Envelope> env;
    {
      Scope span("wire.notify_decode");
      std::string error;
      env = wire::decodeEnvelope(frame, &error);
    }
    const auto* note =
        env ? std::get_if<matchmaking::MatchNotification>(&env->payload) : nullptr;
    if (note == nullptr || !note->myAd || !note->peerAd) {
      problems_.add("unexpected frame from the matchmaker");
      return;
    }
    const bool toCustomer = &link == &session_->customers;
    const classad::ClassAd& jobAd = toCustomer ? *note->myAd : *note->peerAd;
    const classad::ClassAd& machineAd = toCustomer ? *note->peerAd : *note->myAd;
    const auto id =
        static_cast<std::uint64_t>(jobAd.getInteger("JobId").value_or(0));
    const auto it = nameToMachine_.find(machineAd.getString("Name").value_or(""));
    if (id == 0 || id > jobs_.size() || it == nameToMachine_.end()) {
      problems_.add("notification names an unknown job or machine");
      return;
    }
    const MatchPair pair{id, it->second};
    if (!toCustomer) {
      resourcePairs_.push_back(pair);
      return;
    }
    onCustomerCopy(pair, note->ticket);
  }

  void onCustomerCopy(const MatchPair& pair, matchmaking::Ticket ticket) {
    const double now = processSeconds();
    // Notifications of one cycle arrive together; a gap of half an
    // interval starts the next cycle's record.
    if (records_.empty() || now - lastNotification_ > kInterval / 2) {
      CycleRecord record;
      for (std::uint32_t i = 0; i < machines_.size(); ++i) {
        // Only machines whose ad surely reached the daemon before the
        // cycle began count as free for the greedy check.
        if (!machines_[i].held && machines_[i].advertisedAt < now - kInterval) {
          record.freeAtStart.push_back(i);
        }
      }
      records_.push_back(std::move(record));
    }
    lastNotification_ = now;
    records_.back().customer.push_back(pair);
    ++customerCopies_;
    JobState& job = jobState_[pair.job - 1];
    if (phase_ == Phase::kTimed) {
      ++timedMatches_;
      matchStats_.add(now, now - job.submittedAt);
    }
    if (job.queued) {
      job.queued = false;
      --queued_;
    }
    ++matched_;

    MachineState& m = machines_[pair.machine];
    matchmaking::ClaimRequest request;
    request.requestAd = job.ad;
    request.ticket = ticket;
    request.customerContact = kCustomerContact;
    matchmaking::ClaimResponse response;
    {
      Scope span("claiming.verify");
      response = matchmaking::evaluateClaim(*m.ad, m.held ? 0 : m.ticket, request);
    }
    if (!response.accepted) {
      ++claimsRejected_;
      problems_.add("claim rejected: " + response.reason);
    } else {
      m.held = true;
      m.job = pair.job;
      const auto hold = rng_.range(shape_.holdMin, shape_.holdMax);
      m.heldSeconds = static_cast<double>(hold) * kInterval;
      m.releaseAt = now + m.heldSeconds;
      htcsim::AdInvalidate withdraw;
      withdraw.key = machineKey(shape_.machines[pair.machine]);
      session_->send(session_->resources, std::move(withdraw));
    }
    job.ad.reset();  // matched jobs are never re-sent
    if (phase_ == Phase::kSetup || phase_ == Phase::kWarmup ||
        phase_ == Phase::kTimed) {
      // The user submits the next job after a think time, so submissions
      // are not in step with the negotiation timer.
      thinking_.emplace(now + rng_.uniform() * kInterval,
                        jobs_[pair.job - 1].owner);
    }
  }

  void onQueryResponse(const wire::Frame& frame) {
    if (queryDue_.empty()) return;
    const double due = queryDue_.front();
    queryDue_.pop_front();
    std::string error;
    const auto resp = wire::decodePoolQueryResponse(frame, &error);
    if (!resp || !resp->ok) ++queryErrors_;
    if (phase_ == Phase::kTimed) {
      queryStats_.add(processSeconds(), processSeconds() - due);
    }
  }

  void finalChecks() {
    neverMatched_ = queued_;
    const auto heldCount = [this] {
      std::size_t held = 0;
      for (const MachineState& m : machines_) held += m.held ? 1 : 0;
      return held;
    };
    // A re-advertisement can still be in flight on a loaded machine; the
    // counts are read again for a few intervals before they must agree.
    DaemonStatus st = session_->status(handler_);
    for (int retry = 0; retry < 5 && st.ad &&
                        static_cast<std::size_t>(st.num("StoredResources")) +
                                heldCount() != machines_.size();
         ++retry) {
      if (!loopFor(kInterval)) break;
      st = session_->status(handler_);
    }
    const std::size_t held = heldCount();
    if (!st.ad) {
      problems_.add("no DaemonStatus answer");
      return;
    }
    const auto stored = static_cast<std::size_t>(st.num("StoredRequests"));
    if (jobs_.size() != matched_ + stored) {
      problems_.add("conservation: submitted " + std::to_string(jobs_.size()) +
                    " != matched " + std::to_string(matched_) + " + queued " +
                    std::to_string(stored));
    }
    const auto free = static_cast<std::size_t>(st.num("StoredResources"));
    if (free + held != machines_.size()) {
      problems_.add("conservation: " + std::to_string(free) + " free + " +
                    std::to_string(held) + " held != " +
                    std::to_string(machines_.size()) + " machines");
    }
    const auto issued = static_cast<std::size_t>(st.num("MatchesIssued"));
    if (issued != customerCopies_) {
      problems_.add("daemon MatchesIssued " + std::to_string(issued) +
                    " != generator's " + std::to_string(customerCopies_));
    }

    std::vector<char> jobMatched(jobs_.size() + 1, 0);
    CycleRecord all;
    for (const CycleRecord& r : records_) {
      checkFeasible(world_, r, problems_);
      checkOneToOne(world_, r, jobMatched, problems_);
      if (policy_ == matchmaking::policy::PolicyKind::kGreedy) {
        checkGreedyBest(world_, r, problems_);
      }
      all.customer.insert(all.customer.end(), r.customer.begin(), r.customer.end());
    }
    all.resource = resourcePairs_;
    checkBothSides(all, problems_);

    // A query at quiescence returns exactly the free machines the
    // benchmark's own state says satisfy its constraint.
    wire::PoolQuery q;
    q.scope = "machines";
    q.constraint = shape_.query.constraint;
    q.projection = shape_.query.projection;
    const auto resp = session_->query(q, handler_);
    if (!resp || !resp->ok) {
      ++queryErrors_;
      problems_.add("quiescent query failed");
      return;
    }
    std::vector<std::string> got;
    for (const auto& ad : resp->ads) got.push_back(ad->getString("Name").value_or(""));
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

  /// Query round trips right after a cycle, while none runs.
  void measureIdleQueries(Result& result) {
    std::vector<double> rtts;
    wire::PoolQuery q;
    q.scope = "machines";
    q.constraint = shape_.query.constraint;
    q.projection = shape_.query.projection;
    for (int attempt = 0; attempt < 400 && rtts.size() < 40; ++attempt) {
      const std::size_t cycles = session_->daemon().negotiationCycles();
      const double start = processSeconds();
      std::optional<wire::PoolQueryResponse> resp;
      {
        Scope span("service.query_idle");
        resp = session_->query(q, handler_);
      }
      const double rtt = processSeconds() - start;
      if (resp && session_->daemon().negotiationCycles() == cycles) {
        rtts.push_back(rtt);
      }
    }
    result.perLayer["service.query_rtt_idle_ms"] = {quantile(rtts, 0.5) * 1e3, "ms"};
    result.perLayer["service.intake_ads_per_s"] = {intakeAdsPerSecond_, "1/s"};
  }

  void fillDaemonLayers(const DaemonStatus& before, const DaemonStatus& after,
                        Result& result) {
    const auto delta = [&](const char* name) {
      return after.num(name) - before.num(name);
    };
    CycleTotals t;
    t.cycles = static_cast<std::size_t>(delta("NegotiationCycleSeconds_Count"));
    t.wall = delta("NegotiationCycleSeconds_Sum");
    t.serviceOrder = delta("PhaseFairShareSeconds_Sum");
    t.solve = delta("PolicyCycleSolveSeconds_Sum");
    t.scan = delta("PhaseRankSeconds_Sum");
    t.evaluations = delta("MatchCandidatesEvaluated");
    t.pruned = delta("MatchCandidatesPruned");
    t.pairs = delta("MatchesIssued");
    fillCycleLayers(t, result);
    result.perLayer["service.cycle_p50_ms"] = {
        bucketQuantile(before.buckets("NegotiationCycleSeconds"),
                       after.buckets("NegotiationCycleSeconds"), 0.5) * 1e3,
        "ms"};
    result.perLayer["service.loop_p90_ms"] = {
        bucketQuantile(before.buckets("ReactorLoopSeconds"),
                       after.buckets("ReactorLoopSeconds"), 0.9) * 1e3,
        "ms"};
  }

  const Options& options_;
  Rng rng_;
  WorkloadShape shape_;
  const matchmaking::policy::PolicyKind policy_;
  const bool serviceOnly_;
  World world_;
  std::unique_ptr<LiveSession> session_;
  LiveSession::FrameHandler handler_;

  std::vector<MachineState> machines_;
  std::unordered_map<std::string, std::uint32_t> nameToMachine_;
  std::vector<JobSpec> jobs_;
  std::vector<JobState> jobState_;
  std::vector<classad::ClassAdPtr> initialJobAds_;  ///< for the probes
  /// Replacement jobs waiting out their think time: due -> user.
  std::multimap<double, std::string> thinking_;
  std::size_t queued_ = 0;
  std::size_t matched_ = 0;
  std::deque<RefreshEntry> refreshQueue_;
  bool settingUp_ = true;
  std::vector<std::pair<Link*, wire::Frame>> deferred_;
  double setupSeconds_ = 0.0;
  double intakeAdsPerSecond_ = 0.0;

  Phase phase_ = Phase::kSetup;
  double timedStart_ = 0.0;
  double lastNotification_ = -1.0;
  std::vector<CycleRecord> records_;
  std::vector<MatchPair> resourcePairs_;
  std::size_t customerCopies_ = 0;
  std::size_t timedMatches_ = 0;
  WindowStats matchStats_;
  std::deque<double> queryDue_;
  std::size_t queriesIssued_ = 0;
  std::size_t queryErrors_ = 0;
  WindowStats queryStats_;
  std::size_t claimsRejected_ = 0;
  std::size_t neverMatched_ = 0;
  Problems problems_;
};

}  // namespace

Result runLive(const Options& options) {
  LiveRun run(options, rackShape, matchmaking::policy::PolicyKind::kGreedy,
              false);
  return run.run();
}

void measureService(const Options& options, ShapeFn makeShape,
                    matchmaking::policy::PolicyKind policy, Result& result) {
  Scope span("bench.service_run");
  Result service;
  {
    // Paused, so this run's spans do not mix into the workload's layers.
    const SpanPause pause;
    LiveRun run(options, makeShape, policy, true);
    service = run.run();
  }
  for (auto& [name, metric] : service.perLayer) {
    if (name.rfind("service.", 0) == 0) result.perLayer[name] = metric;
  }
  // Its checks are reported but do not decide the run: a job refresh sent
  // while the job's match notification is in flight gets the job matched
  // a second time, which a short run on a deep queue can hit.
  for (const std::string& p : service.problems) {
    std::fprintf(stderr, "service run check (not counted): %s\n", p.c_str());
  }
  std::fprintf(stderr, "service run: %llu operations, %llu failed\n",
               static_cast<unsigned long long>(service.attempted),
               static_cast<unsigned long long>(service.failed));
}

}  // namespace perfbench
