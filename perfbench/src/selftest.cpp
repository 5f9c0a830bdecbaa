// selftest.cpp - The benchmark's own test.
//
// 1. The generator's predicate and rank formula agree with the ad text
//    they describe (evaluated by the ClassAd library) on sampled pairs of
//    every workload, so the checks judge the ads that were really sent.
// 2. Each correctness check passes on a correct cycle record and fails on
//    a corrupted one: a duplicated machine in one cycle, an infeasible
//    pair, one copy of a notification missing, a cycle one pair short of
//    the maximum matching, and a greedy pick that passed over a better
//    free machine. A greedy cycle on the contended mix falls short of the
//    maximum, so the maximum check tells the exact solver from greedy.
//
// Exits 0 when every case behaves, 1 otherwise.
#include <cstdio>
#include <functional>
#include <string>

#include "checks.h"
#include "classad/match.h"
#include "gen.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<JobSpec> drawJobs(Rng& rng, const WorkloadShape& shape,
                              std::size_t perUser) {
  std::vector<JobSpec> jobs;
  for (std::size_t k = 0; k < perUser; ++k) {
    for (const std::string& user : shape.users) {
      JobSpec j = shape.drawJob(rng, user);
      j.id = jobs.size() + 1;
      jobs.push_back(j);
    }
  }
  return jobs;
}

void predicateAgreesWithAds(const char* name, WorkloadShape shape) {
  Rng rng(7);
  const std::vector<JobSpec> jobs = drawJobs(rng, shape, 20);
  std::size_t pairs = 0, disagreements = 0, feasibleSeen = 0;
  for (std::size_t k = 0; k < 4000; ++k) {
    const JobSpec& j = jobs[rng.next() % jobs.size()];
    const MachineSpec& m = shape.machines[rng.next() % shape.machines.size()];
    const classad::ClassAd jobAd = classad::ClassAd::parse(jobText(j));
    const classad::ClassAd machineAd =
        classad::ClassAd::parse(machineText(m, 0xabc));
    const bool program = classad::symmetricMatch(jobAd, machineAd);
    const bool own = feasible(j, m);
    ++pairs;
    feasibleSeen += own ? 1 : 0;
    if (program != own) ++disagreements;
    if (own && classad::evaluateRank(jobAd, machineAd) != jobRank(j, m)) {
      ++disagreements;
    }
  }
  expect(disagreements == 0 && feasibleSeen > 0 && feasibleSeen < pairs,
         std::string(name) + ": own predicate and rank agree with the ads on " +
             std::to_string(pairs) + " pairs (" + std::to_string(feasibleSeen) +
             " feasible, " + std::to_string(disagreements) + " disagreements)");
}

/// The benchmark's reference greedy cycle: jobs in order, each taking the
/// free machine it ranks highest.
CycleRecord greedyCycle(const World& w, const std::vector<std::uint64_t>& order) {
  CycleRecord r;
  std::vector<char> taken(w.machines->size(), 0);
  for (std::uint32_t m = 0; m < w.machines->size(); ++m) r.freeAtStart.push_back(m);
  r.queuedAtStart = order;
  for (const std::uint64_t id : order) {
    int best = -1;
    for (std::uint32_t m = 0; m < w.machines->size(); ++m) {
      if (taken[m] || !feasible(w.job(id), w.machine(m))) continue;
      if (best < 0 || jobRank(w.job(id), w.machine(m)) >
                          jobRank(w.job(id), w.machine(static_cast<std::uint32_t>(best)))) {
        best = static_cast<int>(m);
      }
    }
    if (best < 0) continue;
    taken[static_cast<std::size_t>(best)] = 1;
    r.customer.push_back({id, static_cast<std::uint32_t>(best)});
  }
  r.resource = r.customer;
  return r;
}

/// Kuhn's augmenting paths: an independent maximum matching.
CycleRecord maximumCycle(const World& w, const std::vector<std::uint64_t>& jobs) {
  std::vector<int> owner(w.machines->size(), -1);
  std::function<bool(std::size_t, std::vector<char>&)> augment =
      [&](std::size_t ji, std::vector<char>& seen) {
        for (std::uint32_t m = 0; m < w.machines->size(); ++m) {
          if (seen[m] || !feasible(w.job(jobs[ji]), w.machine(m))) continue;
          seen[m] = 1;
          if (owner[m] < 0 ||
              augment(static_cast<std::size_t>(owner[m]), seen)) {
            owner[m] = static_cast<int>(ji);
            return true;
          }
        }
        return false;
      };
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    std::vector<char> seen(w.machines->size(), 0);
    augment(ji, seen);
  }
  CycleRecord r;
  for (std::uint32_t m = 0; m < w.machines->size(); ++m) r.freeAtStart.push_back(m);
  r.queuedAtStart = jobs;
  for (std::uint32_t m = 0; m < w.machines->size(); ++m) {
    if (owner[m] >= 0) r.customer.push_back({jobs[static_cast<std::size_t>(owner[m])], m});
  }
  r.resource = r.customer;
  return r;
}

bool fails(const std::function<void(Problems&)>& check) {
  Problems p;
  check(p);
  return !p.empty();
}

void checksCatchCorruption() {
  Rng rng(11);
  // A small contended pool: specialists compete with general users.
  WorkloadShape shape = contendedShape(rng);
  std::vector<MachineSpec> machines;
  for (const MachineSpec& m : shape.machines) {
    if (m.slot < 6) machines.push_back(m);
  }
  const std::vector<JobSpec> jobs = drawJobs(rng, shape, 3);
  World w{&machines, [&jobs](std::uint64_t id) -> const JobSpec& {
             return jobs[id - 1];
           }};
  std::vector<std::uint64_t> ids;
  for (const JobSpec& j : jobs) ids.push_back(j.id);

  const CycleRecord greedy = greedyCycle(w, ids);
  const CycleRecord best = maximumCycle(w, ids);
  expect(greedy.customer.size() >= 2, "reference greedy cycle matches pairs");
  expect(best.customer.size() == maxMatchingSize(w, ids, best.freeAtStart),
         "max-flow matching size equals augmenting-path matching (" +
             std::to_string(best.customer.size()) + ")");

  std::vector<char> seen(jobs.size() + 1, 0);
  expect(!fails([&](Problems& p) {
           checkFeasible(w, greedy, p);
           checkOneToOne(w, greedy, seen, p);
           checkBothSides(greedy, p);
           checkGreedyBest(w, greedy, p);
         }),
         "correct greedy cycle passes every check");
  expect(!fails([&](Problems& p) { checkMaximum(w, best, p); }),
         "maximum matching passes the maximum check");
  expect(greedy.customer.size() < best.customer.size() &&
             fails([&](Problems& p) { checkMaximum(w, greedy, p); }),
         "greedy on the contended mix strands a specialist (" +
             std::to_string(greedy.customer.size()) + " of " +
             std::to_string(best.customer.size()) +
             " pairs) and the maximum check catches it");

  CycleRecord dup = greedy;
  dup.customer[1].machine = dup.customer[0].machine;
  dup.resource = dup.customer;
  std::vector<char> seen2(jobs.size() + 1, 0);
  expect(fails([&](Problems& p) { checkOneToOne(w, dup, seen2, p); }),
         "duplicated machine in one cycle is caught");

  CycleRecord twice = greedy;
  std::vector<char> seen3(jobs.size() + 1, 0);
  expect(fails([&](Problems& p) {
           checkOneToOne(w, greedy, seen3, p);
           checkOneToOne(w, twice, seen3, p);
         }),
         "job matched in two cycles is caught");

  CycleRecord bad = greedy;
  bool planted = false;
  for (MatchPair& pair : bad.customer) {
    for (std::uint32_t m = 0; m < machines.size() && !planted; ++m) {
      if (!feasible(w.job(pair.job), w.machine(m))) {
        pair.machine = m;
        planted = true;
      }
    }
    if (planted) break;
  }
  bad.resource = bad.customer;
  expect(planted && fails([&](Problems& p) { checkFeasible(w, bad, p); }),
         "infeasible pair is caught");

  CycleRecord missing = greedy;
  missing.resource.pop_back();
  expect(fails([&](Problems& p) { checkBothSides(missing, p); }),
         "missing resource copy of a notification is caught");
  CycleRecord missingCustomer = greedy;
  missingCustomer.customer.erase(missingCustomer.customer.begin());
  expect(fails([&](Problems& p) { checkBothSides(missingCustomer, p); }),
         "missing customer copy of a notification is caught");

  CycleRecord shortOne = best;
  shortOne.customer.pop_back();
  shortOne.resource = shortOne.customer;
  expect(fails([&](Problems& p) { checkMaximum(w, shortOne, p); }),
         "cycle one pair short of the maximum matching is caught");

  // Greedy that took a worse machine while a better one stayed free.
  CycleRecord worse;
  worse.freeAtStart = greedy.freeAtStart;
  bool swapped = false;
  for (const MatchPair& pair : greedy.customer) {
    MatchPair p = pair;
    if (!swapped) {
      for (std::uint32_t m = 0; m < machines.size(); ++m) {
        bool used = false;
        for (const MatchPair& q : greedy.customer) used |= q.machine == m;
        if (!used && feasible(w.job(pair.job), w.machine(m)) &&
            jobRank(w.job(pair.job), w.machine(m)) <
                jobRank(w.job(pair.job), w.machine(pair.machine))) {
          p.machine = m;
          swapped = true;
          break;
        }
      }
    }
    worse.customer.push_back(p);
  }
  worse.resource = worse.customer;
  expect(swapped && fails([&](Problems& p) { checkGreedyBest(w, worse, p); }),
         "greedy pick passing over a better free machine is caught");
}

}  // namespace

int main() {
  Rng a(1), b(1), c(1);
  predicateAgreesWithAds("hetero-greedy", heteroShape(a));
  predicateAgreesWithAds("contended-assignment", contendedShape(b));
  predicateAgreesWithAds("live-loopback", rackShape(c));
  checksCatchCorruption();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
