// checks.h - Correctness checks computed apart from the program.
//
// Each negotiation cycle is recorded as the benchmark saw it: which
// machines it had advertised and not yet handed out when the cycle began,
// which jobs were queued, and the (job, machine) pairs named by the
// customer copies and by the resource copies of the match notifications.
// The checks below judge those records with the benchmark's own predicate
// and rank formula (gen.h), never with the matchmaker's evaluator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen.h"

namespace perfbench {

struct MatchPair {
  std::uint64_t job = 0;        ///< JobId
  std::uint32_t machine = 0;    ///< index into the machine list
  bool operator<(const MatchPair& o) const {
    return job != o.job ? job < o.job : machine < o.machine;
  }
  bool operator==(const MatchPair& o) const = default;
};

struct CycleRecord {
  std::vector<std::uint32_t> freeAtStart;    ///< advertised, not held
  std::vector<std::uint64_t> queuedAtStart;  ///< queued job ids
  std::vector<MatchPair> customer;  ///< pairs from customer copies
  std::vector<MatchPair> resource;  ///< pairs from resource copies
};

/// The benchmark's model of the pool the records refer to.
struct World {
  const std::vector<MachineSpec>* machines = nullptr;
  /// The spec of a job by id (every job a record names must resolve).
  std::function<const JobSpec&(std::uint64_t)> jobOf;
  const MachineSpec& machine(std::uint32_t i) const { return (*machines)[i]; }
  const JobSpec& job(std::uint64_t id) const { return jobOf(id); }
};

/// Collects failed checks (the first few verbatim, all of them counted).
struct Problems {
  std::vector<std::string> messages;
  std::size_t count = 0;
  void add(std::string message) {
    if (messages.size() < 20) messages.push_back(std::move(message));
    ++count;
  }
  bool empty() const noexcept { return count == 0; }
};

/// Every notified pair satisfies both constraints.
void checkFeasible(const World& w, const CycleRecord& c, Problems& out);
/// No machine twice in one cycle; no job matched twice over the run
/// (`jobMatched` is indexed by job id and carries across cycles).
void checkOneToOne(const World& w, const CycleRecord& c,
                   std::vector<char>& jobMatched, Problems& out);
/// Each match reached both the customer side and the resource side.
void checkBothSides(const CycleRecord& c, Problems& out);
/// Greedy: no machine left free at the end of the cycle is feasible for a
/// matched job and ranked strictly higher by it than the machine it got.
void checkGreedyBest(const World& w, const CycleRecord& c, Problems& out);
/// Assignment: the cycle's pair count equals the maximum matching size.
void checkMaximum(const World& w, const CycleRecord& c, Problems& out);

/// Size of a maximum matching between `jobs` and `machines` under the
/// benchmark's predicate (max-flow over groups of interchangeable ads).
std::size_t maxMatchingSize(const World& w,
                            const std::vector<std::uint64_t>& jobs,
                            const std::vector<std::uint32_t>& machines);

}  // namespace perfbench
