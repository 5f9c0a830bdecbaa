#include "gen.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

bool contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

std::string listText(const std::vector<std::string>& list) {
  std::string out = "{ ";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + list[i] + '"';
  }
  return out + " }";
}

const char* const kFigure1Rank =
    "member(other.Owner, ResearchGroup) * 10 + member(other.Owner, Friends)";
const char* const kFigure1Constraint =
    "!member(other.Owner, Untrusted) && (Rank >= 10 ? true : Rank > 0 ? "
    "LoadAvg < 0.3 && KeyboardIdle > 15*60 : DayTime < 8*60*60 || "
    "DayTime > 18*60*60)";

struct Platform {
  const char* arch;
  const char* opsys;
  double weight;
};
const std::vector<Platform>& platforms() {
  static const std::vector<Platform> p = {{"INTEL", "SOLARIS251", 0.40},
                                          {"INTEL", "LINUX", 0.25},
                                          {"SPARC", "SOLARIS26", 0.20},
                                          {"ALPHA", "OSF1", 0.15}};
  return p;
}
const Platform& drawPlatform(Rng& rng) {
  double u = rng.uniform();
  for (const Platform& p : platforms()) {
    if (u < p.weight) return p;
    u -= p.weight;
  }
  return platforms().back();
}

/// `count` category indices in the exact proportions of `weights`, in a
/// seeded random order: every seed gets the same pool make-up, so seeds
/// differ in which machine is which, not in how many of each there are.
std::vector<std::size_t> stratified(Rng& rng, std::size_t count,
                                    const std::vector<double>& weights) {
  std::vector<std::size_t> out;
  double acc = 0.0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    acc += weights[c];
    const auto upto = static_cast<std::size_t>(acc * static_cast<double>(count) + 0.5);
    while (out.size() < std::min(upto, count)) out.push_back(c);
  }
  while (out.size() < count) out.push_back(weights.size() - 1);
  for (std::size_t k = out.size(); k > 1; --k) {
    std::swap(out[k - 1], out[rng.next() % k]);
  }
  return out;
}

// ---- hetero-greedy -------------------------------------------------------

const std::vector<std::string> kPaperUsers = {"raman",   "miron",
                                              "solomon", "jbasney",
                                              "tannenba", "wright"};

JobSpec drawHeteroJob(Rng& rng, const std::string& user) {
  JobSpec j;
  j.owner = user;
  if (rng.chance(0.85)) {
    const Platform& p = drawPlatform(rng);
    j.arch = p.arch;
    j.opsys = p.opsys;
  }
  static const std::vector<std::int64_t> mem = {16, 16, 31, 31, 64, 128, 256};
  static const std::vector<std::int64_t> disk = {5000, 15000, 15000, 50000};
  j.memory = rng.pick(mem);
  j.disk = rng.pick(disk);
  j.rank = JobRank::kFigure2;
  return j;
}

bool heteroQuery(const MachineSpec& m) {
  return m.opsys == "SOLARIS251" && m.memory >= 1024;
}

// ---- contended-assignment -------------------------------------------------

struct MachineClass {
  std::int64_t memory;
  std::int64_t mips;
  bool gpu;
  double share;
};
const std::vector<MachineClass>& contendedClasses() {
  static const std::vector<MachineClass> c = {{4096, 1000, false, 0.55},
                                              {65536, 1500, false, 0.20},
                                              {16384, 2500, true, 0.15},
                                              {8192, 3000, false, 0.10}};
  return c;
}

JobSpec drawContendedJob(Rng& rng, const std::string& user) {
  (void)rng;
  JobSpec j;
  j.owner = user;
  j.arch = "X86_64";
  j.opsys = "LINUX";
  j.rank = JobRank::kMips;
  if (user == "vis") {
    j.needGpu = true;
    j.memory = 8192;
  } else if (user == "genome") {
    j.memory = 32768;
  } else {
    j.memory = 2048;
  }
  return j;
}

bool contendedQuery(const MachineSpec& m) { return m.hasGpu && m.slot < 20; }

// ---- live-loopback racks -------------------------------------------------

JobSpec drawRackJob(Rng& rng, const std::string& user) {
  JobSpec j;
  j.owner = user;
  j.arch = "X86_64";
  j.opsys = "LINUX";
  const double u = rng.uniform();
  j.memory = u < 0.5 ? 2048 : u < 0.8 ? 8192 : 16384;
  j.rank = JobRank::kMips;
  return j;
}

bool rackQuery(const MachineSpec& m) { return m.rack == 3 && m.slot < 24; }

}  // namespace

std::string machineKey(const MachineSpec& m) { return "ra://" + m.name; }

std::string jobKey(const JobSpec& j) {
  return std::string(kCustomerContact) + "#" + std::to_string(j.id);
}

std::string machineText(const MachineSpec& m, std::uint64_t ticket) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "[ Type = \"Machine\"; Name = \"%s\"; ContactAddress = \"%s\"; "
      "Activity = \"Idle\"; State = \"Unclaimed\"; Arch = \"%s\"; "
      "OpSys = \"%s\"; Memory = %lld; Disk = %lld; Mips = %lld; "
      "KFlops = %lld; KeyboardIdle = %lld; LoadAvg = %.6f; DayTime = %lld; "
      "HasGpu = %s; Rack = %lld; Slot = %lld; AuthorizationTicket = "
      "\"%llx\"; ",
      m.name.c_str(), kResourceContact, m.arch.c_str(), m.opsys.c_str(),
      static_cast<long long>(m.memory), static_cast<long long>(m.disk),
      static_cast<long long>(m.mips), static_cast<long long>(m.kflops),
      static_cast<long long>(m.keyboardIdle), m.loadAvg,
      static_cast<long long>(m.dayTime), m.hasGpu ? "true" : "false",
      static_cast<long long>(m.rack), static_cast<long long>(m.slot),
      static_cast<unsigned long long>(ticket));
  std::string text = buf;
  switch (m.policy) {
    case MachinePolicy::kAnyJob:
      text += "Rank = 0; Constraint = other.Type == \"Job\"; ]";
      break;
    case MachinePolicy::kClassicIdle:
      text +=
          "Rank = 0; Constraint = other.Type == \"Job\" && "
          "KeyboardIdle > 15*60 && LoadAvg < 0.3; ]";
      break;
    case MachinePolicy::kFigure1:
      text += "ResearchGroup = " + listText(m.researchGroup) +
              "; Friends = " + listText(m.friends) +
              "; Untrusted = " + listText(m.untrusted) + "; Rank = " +
              kFigure1Rank + "; Constraint = " + kFigure1Constraint + "; ]";
      break;
    case MachinePolicy::kMemoryFit:
      text +=
          "Rank = 0; Constraint = other.Type == \"Job\" && "
          "other.Memory <= Memory; ]";
      break;
  }
  return text;
}

std::string jobText(const JobSpec& j) {
  std::string constraint = "other.Type == \"Machine\"";
  if (!j.arch.empty()) constraint += " && other.Arch == \"" + j.arch + "\"";
  if (!j.opsys.empty()) constraint += " && other.OpSys == \"" + j.opsys + "\"";
  if (j.disk > 0) constraint += " && other.Disk >= " + std::to_string(j.disk);
  constraint += " && other.Memory >= self.Memory";
  if (j.needGpu) constraint += " && other.HasGpu == true";
  const char* rank = j.rank == JobRank::kFigure2
                         ? "other.KFlops/1E3 + other.Memory/32"
                         : "other.Mips";
  char head[512];
  std::snprintf(
      head, sizeof(head),
      "[ Type = \"Job\"; JobId = %llu; QDate = %llu; CompletionDate = 0; "
      "Owner = \"%s\"; Cmd = \"run_sim\"; WantRemoteSyscalls = 1; "
      "WantCheckpoint = 1; Iwd = \"/usr/%s/sim%llu\"; Args = \"-Q %llu 3200 "
      "10\"; Memory = %lld; ContactAddress = \"%s\"; ",
      static_cast<unsigned long long>(j.id),
      static_cast<unsigned long long>(874377421 + j.id), j.owner.c_str(),
      j.owner.c_str(), static_cast<unsigned long long>(j.id),
      static_cast<unsigned long long>(j.id % 97),
      static_cast<long long>(j.memory), kCustomerContact);
  return std::string(head) + "Rank = " + rank + "; Constraint = " +
         constraint + "; ]";
}

bool machineAccepts(const MachineSpec& m, const JobSpec& j) {
  switch (m.policy) {
    case MachinePolicy::kAnyJob:
      return true;
    case MachinePolicy::kClassicIdle:
      return m.keyboardIdle > 15 * 60 && m.loadAvg < 0.3;
    case MachinePolicy::kFigure1: {
      if (contains(m.untrusted, j.owner)) return false;
      const int rank = (contains(m.researchGroup, j.owner) ? 10 : 0) +
                       (contains(m.friends, j.owner) ? 1 : 0);
      if (rank >= 10) return true;
      if (rank > 0) return m.loadAvg < 0.3 && m.keyboardIdle > 15 * 60;
      return m.dayTime < 8 * 60 * 60 || m.dayTime > 18 * 60 * 60;
    }
    case MachinePolicy::kMemoryFit:
      return j.memory <= m.memory;
  }
  return false;
}

bool jobAccepts(const JobSpec& j, const MachineSpec& m) {
  if (!j.arch.empty() && m.arch != j.arch) return false;
  if (!j.opsys.empty() && m.opsys != j.opsys) return false;
  if (j.disk > 0 && m.disk < j.disk) return false;
  if (m.memory < j.memory) return false;
  if (j.needGpu && !m.hasGpu) return false;
  return true;
}

double jobRank(const JobSpec& j, const MachineSpec& m) {
  if (j.rank == JobRank::kMips) return static_cast<double>(m.mips);
  return static_cast<double>(m.kflops) / 1e3 +
         static_cast<double>(m.memory / 32);
}

std::vector<std::string> WorkloadShape::initialOwners() const {
  std::vector<std::string> owners;
  const std::size_t deepest =
      depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end());
  for (std::size_t d = 0; d < deepest; ++d) {
    for (std::size_t u = 0; u < users.size(); ++u) {
      if (d < depth[u]) owners.push_back(users[u]);
    }
  }
  return owners;
}

WorkloadShape heteroShape(Rng& rng) {
  WorkloadShape w;
  w.users = kPaperUsers;
  w.depth.assign(w.users.size(), 100);
  w.holdMin = 2;
  w.holdMax = 8;
  w.refreshCycles = 8;
  w.drawJob = drawHeteroJob;
  w.query = {"OpSys == \"SOLARIS251\" && Memory >= 1024",
             {"Name", "Memory", "Mips"},
             heteroQuery};
  static const std::vector<std::int64_t> mem = {32, 64, 128, 256, 512, 1024};
  const std::size_t count = 1200;
  std::vector<double> platformWeights;
  for (const Platform& p : platforms()) platformWeights.push_back(p.weight);
  const auto platform = stratified(rng, count, platformWeights);
  const auto memory =
      stratified(rng, count, std::vector<double>(mem.size(), 1.0 / mem.size()));
  const auto policy = stratified(rng, count, {0.40, 0.25, 0.35});
  for (std::size_t i = 0; i < count; ++i) {
    MachineSpec m;
    char name[48];
    std::snprintf(name, sizeof(name), "node%04zu.cs.wisc.edu", i);
    m.name = name;
    const Platform& p = platforms()[platform[i]];
    m.arch = p.arch;
    m.opsys = p.opsys;
    m.memory = mem[memory[i]];
    m.disk = rng.range(20000, 2000000);
    m.mips = rng.range(50, 800);
    m.kflops = rng.range(5000, 200000);
    m.keyboardIdle = rng.range(0, 4 * 3600);
    m.loadAvg = static_cast<double>(rng.range(0, 350000)) / 1e6;
    m.dayTime = rng.range(0, 86399);
    m.slot = static_cast<std::int64_t>(i);
    if (policy[i] == 0) {
      m.policy = MachinePolicy::kAnyJob;
    } else if (policy[i] == 1) {
      m.policy = MachinePolicy::kClassicIdle;
    } else {
      m.policy = MachinePolicy::kFigure1;
      std::vector<std::string> users = kPaperUsers;
      for (std::size_t k = users.size(); k > 1; --k) {
        std::swap(users[k - 1], users[rng.next() % k]);
      }
      m.researchGroup = {users[0], users[1]};
      m.friends = {users[2]};
      if (rng.chance(0.5)) m.friends.push_back(users[3]);
      m.untrusted = {"rival", "riffraff"};
      if (rng.chance(0.3)) m.untrusted.push_back(users[5]);
    }
    w.machines.push_back(std::move(m));
  }
  return w;
}

WorkloadShape contendedShape(Rng& rng) {
  (void)rng;
  WorkloadShape w;
  // Four general users keep 60 jobs queued between them: about what the
  // std and fast machines free each cycle, so some cycles have more free
  // machines than feasible jobs and the maximum matching is smaller than
  // the free set. The two specialists always queue more than their
  // classes free, and a cycle reaches the maximum only by leaving the gpu
  // and bigmem machines to them.
  w.users = {"alpha", "beta", "gamma", "delta", "vis", "genome"};
  w.depth = {15, 15, 15, 15, 100, 100};
  w.holdMin = 2;
  w.holdMax = 8;
  w.refreshCycles = 8;
  w.drawJob = drawContendedJob;
  w.query = {"HasGpu == true && Slot < 20", {"Name", "Memory", "Mips"},
             contendedQuery};
  const std::size_t count = 480;
  const auto& classes = contendedClasses();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto n = static_cast<std::size_t>(classes[c].share * count);
    for (std::size_t s = 0; s < n; ++s) {
      MachineSpec m;
      m.name = "c" + std::to_string(c) + "-" + std::to_string(s);
      m.arch = "X86_64";
      m.opsys = "LINUX";
      m.memory = classes[c].memory;
      m.disk = 100000000;
      m.mips = classes[c].mips;
      m.kflops = classes[c].mips * 50;
      m.keyboardIdle = 86400;
      m.hasGpu = classes[c].gpu;
      m.rack = static_cast<std::int64_t>(c);
      m.slot = static_cast<std::int64_t>(s);
      m.policy = MachinePolicy::kAnyJob;
      w.machines.push_back(std::move(m));
    }
  }
  return w;
}

WorkloadShape rackShape(Rng& rng) {
  (void)rng;
  WorkloadShape w;
  w.users = {"alice", "bob", "carol", "dave"};
  w.depth.assign(w.users.size(), 60);
  w.holdMin = 2;
  w.holdMax = 6;
  w.refreshCycles = 16;
  w.drawJob = drawRackJob;
  w.query = {"Rack == 3 && Slot < 24", {"Name", "Memory", "Mips"}, rackQuery};
  static const std::int64_t kRackMemory[] = {4096, 8192, 16384, 32768};
  const int racks = 8;
  const int perRack = 48;
  for (int r = 0; r < racks; ++r) {
    for (int s = 0; s < perRack; ++s) {
      MachineSpec m;
      char name[32];
      std::snprintf(name, sizeof(name), "r%02d-m%03d", r, s);
      m.name = name;
      m.arch = "X86_64";
      m.opsys = "LINUX";
      m.memory = kRackMemory[r % 4];
      m.disk = 200000000;
      m.mips = 1000 + 250 * r;
      m.kflops = m.mips * 40;
      m.keyboardIdle = 86400;
      m.rack = r;
      m.slot = s;
      m.policy = MachinePolicy::kMemoryFit;
      w.machines.push_back(std::move(m));
    }
  }
  return w;
}

}  // namespace perfbench
