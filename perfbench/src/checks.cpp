#include "checks.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>

namespace perfbench {

namespace {

std::string pairText(const World& w, const MatchPair& p) {
  return "job " + std::to_string(p.job) + " -> " + w.machine(p.machine).name;
}

/// Everything the predicate reads, so equal keys are interchangeable.
std::string machineGroupKey(const MachineSpec& m) {
  std::string key = m.arch + '|' + m.opsys + '|' + std::to_string(m.memory) +
                    '|' + std::to_string(m.disk) + '|' +
                    std::to_string(m.hasGpu) + '|' +
                    std::to_string(static_cast<int>(m.policy)) + '|' +
                    std::to_string(m.keyboardIdle) + '|' +
                    std::to_string(m.loadAvg) + '|' +
                    std::to_string(m.dayTime);
  for (const auto* list : {&m.researchGroup, &m.friends, &m.untrusted}) {
    key += '|';
    for (const std::string& s : *list) key += s + ',';
  }
  return key;
}

std::string jobGroupKey(const JobSpec& j) {
  return j.owner + '|' + j.arch + '|' + j.opsys + '|' +
         std::to_string(j.memory) + '|' + std::to_string(j.disk) + '|' +
         std::to_string(j.needGpu);
}

/// Dinic's max flow on a small dense-ish graph.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t n) : adj_(n), level_(n), next_(n) {}
  void add(std::size_t a, std::size_t b, std::int64_t cap) {
    adj_[a].push_back(edges_.size());
    edges_.push_back({b, cap});
    adj_[b].push_back(edges_.size());
    edges_.push_back({a, 0});
  }
  std::int64_t run(std::size_t s, std::size_t t) {
    std::int64_t flow = 0;
    while (bfs(s, t)) {
      std::fill(next_.begin(), next_.end(), 0);
      while (const std::int64_t f =
                 dfs(s, t, std::numeric_limits<std::int64_t>::max())) {
        flow += f;
      }
    }
    return flow;
  }

 private:
  struct Edge {
    std::size_t to;
    std::int64_t cap;
  };
  bool bfs(std::size_t s, std::size_t t) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<std::size_t> q;
    level_[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const std::size_t v = q.front();
      q.pop();
      for (const std::size_t e : adj_[v]) {
        if (edges_[e].cap > 0 && level_[edges_[e].to] < 0) {
          level_[edges_[e].to] = level_[v] + 1;
          q.push(edges_[e].to);
        }
      }
    }
    return level_[t] >= 0;
  }
  std::int64_t dfs(std::size_t v, std::size_t t, std::int64_t pushed) {
    if (v == t) return pushed;
    for (std::size_t& i = next_[v]; i < adj_[v].size(); ++i) {
      const std::size_t e = adj_[v][i];
      const std::size_t to = edges_[e].to;
      if (edges_[e].cap <= 0 || level_[to] != level_[v] + 1) continue;
      if (const std::int64_t got =
              dfs(to, t, std::min(pushed, edges_[e].cap))) {
        edges_[e].cap -= got;
        edges_[e ^ 1].cap += got;
        return got;
      }
    }
    return 0;
  }
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> next_;
};

}  // namespace

void checkFeasible(const World& w, const CycleRecord& c, Problems& out) {
  for (const MatchPair& p : c.customer) {
    const JobSpec& j = w.job(p.job);
    const MachineSpec& m = w.machine(p.machine);
    if (!jobAccepts(j, m)) out.add("infeasible (job side): " + pairText(w, p));
    if (!machineAccepts(m, j)) {
      out.add("infeasible (machine side): " + pairText(w, p));
    }
  }
}

void checkOneToOne(const World& w, const CycleRecord& c,
                   std::vector<char>& jobMatched, Problems& out) {
  std::vector<std::uint32_t> machines;
  machines.reserve(c.customer.size());
  for (const MatchPair& p : c.customer) machines.push_back(p.machine);
  std::sort(machines.begin(), machines.end());
  for (std::size_t i = 1; i < machines.size(); ++i) {
    if (machines[i] == machines[i - 1]) {
      out.add("machine twice in one cycle: " + w.machine(machines[i]).name);
    }
  }
  for (const MatchPair& p : c.customer) {
    if (p.job >= jobMatched.size()) jobMatched.resize(p.job + 1, 0);
    if (jobMatched[p.job]) {
      out.add("job matched twice: " + std::to_string(p.job));
    }
    jobMatched[p.job] = 1;
  }
}

void checkBothSides(const CycleRecord& c, Problems& out) {
  std::vector<MatchPair> a = c.customer;
  std::vector<MatchPair> b = c.resource;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) {
    out.add("customer and resource copies disagree: " +
            std::to_string(a.size()) + " customer vs " +
            std::to_string(b.size()) + " resource notifications");
  }
}

void checkGreedyBest(const World& w, const CycleRecord& c, Problems& out) {
  std::vector<char> taken(w.machines->size(), 0);
  for (const MatchPair& p : c.customer) taken[p.machine] = 1;
  std::vector<std::uint32_t> leftover;
  for (const std::uint32_t m : c.freeAtStart) {
    if (!taken[m]) leftover.push_back(m);
  }
  for (const MatchPair& p : c.customer) {
    const JobSpec& j = w.job(p.job);
    const double got = jobRank(j, w.machine(p.machine));
    for (const std::uint32_t m : leftover) {
      const MachineSpec& spec = w.machine(m);
      if (jobRank(j, spec) > got + 1e-9 && feasible(j, spec)) {
        out.add("greedy passed over a better free machine: " +
                pairText(w, p) + " while " + spec.name + " stayed free");
        break;
      }
    }
  }
}

void checkMaximum(const World& w, const CycleRecord& c, Problems& out) {
  const std::size_t best = maxMatchingSize(w, c.queuedAtStart, c.freeAtStart);
  if (c.customer.size() != best) {
    out.add("cycle matched " + std::to_string(c.customer.size()) +
            " pairs; maximum matching is " + std::to_string(best));
  }
}

std::size_t maxMatchingSize(const World& w,
                            const std::vector<std::uint64_t>& jobs,
                            const std::vector<std::uint32_t>& machines) {
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> jobGroups;
  for (const std::uint64_t id : jobs) {
    auto& g = jobGroups[jobGroupKey(w.job(id))];
    g.first = id;
    ++g.second;
  }
  std::map<std::string, std::pair<std::uint32_t, std::int64_t>> machineGroups;
  for (const std::uint32_t m : machines) {
    auto& g = machineGroups[machineGroupKey(w.machine(m))];
    g.first = m;
    ++g.second;
  }
  const std::size_t source = 0;
  const std::size_t sink = 1 + jobGroups.size() + machineGroups.size();
  MaxFlow flow(sink + 1);
  std::size_t ji = 1;
  for (const auto& [jk, jg] : jobGroups) {
    flow.add(source, ji, jg.second);
    std::size_t mi = 1 + jobGroups.size();
    for (const auto& [mk, mg] : machineGroups) {
      if (feasible(w.job(jg.first), w.machine(mg.first))) {
        flow.add(ji, mi, jg.second);
      }
      ++mi;
    }
    ++ji;
  }
  std::size_t mi = 1 + jobGroups.size();
  for (const auto& [mk, mg] : machineGroups) flow.add(mi++, sink, mg.second);
  return static_cast<std::size_t>(flow.run(source, sink));
}

}  // namespace perfbench
