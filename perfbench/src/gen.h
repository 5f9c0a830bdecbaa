// gen.h - The benchmark's own model of each workload's pool.
//
// Every machine and job is first drawn as plain attribute values (a
// MachineSpec / JobSpec) from the seed, then rendered as ClassAd text for
// the matchmaker. The correctness checks never ask the program whether a
// pair matches: they evaluate each side's constraint and the job's rank
// here, in C++, over the values that were generated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Owner policies a machine can carry.
enum class MachinePolicy {
  kAnyJob,       ///< Constraint = other.Type == "Job"
  kClassicIdle,  ///< ... && KeyboardIdle > 15*60 && LoadAvg < 0.3
  kFigure1,      ///< the paper's Figure 1 policy over user lists
  kMemoryFit,    ///< ... && other.Memory <= Memory (rack machines)
};

enum class JobRank {
  kFigure2,  ///< other.KFlops/1E3 + other.Memory/32 (integer division)
  kMips,     ///< other.Mips
};

struct MachineSpec {
  std::string name;
  std::string arch;
  std::string opsys;
  std::int64_t memory = 0;  ///< MB
  std::int64_t disk = 0;    ///< KB
  std::int64_t mips = 0;
  std::int64_t kflops = 0;
  std::int64_t keyboardIdle = 0;
  std::int64_t dayTime = 0;
  double loadAvg = 0.0;
  bool hasGpu = false;
  std::int64_t rack = 0;  ///< rack (live pool) or class (contended pool)
  std::int64_t slot = 0;  ///< position within the rack/class
  MachinePolicy policy = MachinePolicy::kAnyJob;
  std::vector<std::string> researchGroup;
  std::vector<std::string> friends;
  std::vector<std::string> untrusted;
};

struct JobSpec {
  std::uint64_t id = 0;  ///< JobId, 1-based and dense
  std::string owner;
  std::string arch;   ///< empty = any platform
  std::string opsys;  ///< empty = any platform
  std::int64_t memory = 0;  ///< other.Memory >= self.Memory
  std::int64_t disk = 0;    ///< other.Disk >= disk (0 = no clause)
  bool needGpu = false;
  JobRank rank = JobRank::kFigure2;
};

/// Contact addresses every generated ad carries.
inline constexpr const char* kResourceContact = "resources";
inline constexpr const char* kCustomerContact = "customers";

std::string machineKey(const MachineSpec& m);
std::string jobKey(const JobSpec& j);

/// ClassAd text of a machine carrying `ticket` (hex AuthorizationTicket).
std::string machineText(const MachineSpec& m, std::uint64_t ticket);
/// ClassAd text of a job (Figure 2's shape).
std::string jobText(const JobSpec& j);

/// The benchmark's own predicate: both constraints hold.
bool machineAccepts(const MachineSpec& m, const JobSpec& j);
bool jobAccepts(const JobSpec& j, const MachineSpec& m);
inline bool feasible(const JobSpec& j, const MachineSpec& m) {
  return machineAccepts(m, j) && jobAccepts(j, m);
}
/// The job's Rank of the machine, by the benchmark's own formula.
double jobRank(const JobSpec& j, const MachineSpec& m);

/// A selective, projected pool query and the benchmark's own answer.
struct PoolQuerySpec {
  std::string constraint;
  std::vector<std::string> projection;
  bool (*selects)(const MachineSpec&) = nullptr;
};

/// Per-workload shape of the closed loop.
struct WorkloadShape {
  std::vector<MachineSpec> machines;
  std::vector<std::string> users;
  std::vector<std::size_t> depth;  ///< queued jobs each user keeps
  int holdMin = 1;               ///< cycles a job holds its machine
  int holdMax = 1;
  int refreshCycles = 8;  ///< every ad is re-sent this often
  PoolQuerySpec query;
  /// Draws the next job of `user` (ids are assigned by the caller).
  JobSpec (*drawJob)(Rng& rng, const std::string& user) = nullptr;
  /// Owners of the initial queue, round robin over the users until each
  /// has its depth.
  std::vector<std::string> initialOwners() const;
};

WorkloadShape heteroShape(Rng& rng);
WorkloadShape contendedShape(Rng& rng);
WorkloadShape rackShape(Rng& rng);

}  // namespace perfbench
