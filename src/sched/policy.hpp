// Scheduling objectives for resource pools (§5.2.3): each pool object
// has scheduling processes that (a) periodically sort the machines in
// its cache by a configured criterion and (b) select a machine for each
// incoming query with a *linear* search — the paper calls out that the
// linear response-time plots of Fig. 6 "are simply a function of the
// linear search algorithms employed for scheduling", so selection cost
// is proportional to the number of entries examined.
//
// The "linear-*" policy names (linear-least-load, linear-most-memory,
// linear-fastest) keep that model so Fig. 6's curves stay reproducible:
// the periodic re-sort, the machine the scan chooses and the entries it
// examines. The scan is charged, not run: the pool answers through a
// SchedulingIndex (sched/index.hpp) and charges the scan's count,
// computed in O(1) — the size of the instance's stride class when the
// choice lies in it, otherwise the whole cache. A search that visits
// more than 64 + n/16 entries hands the query to Select below, the
// reference scan. The bare names (least-load, most-memory, fastest) are
// *indexed*: same index, no re-sort, and a query is charged only the
// entries the index visits, near-constant instead of O(n).
//
// Replicated pool instances maintain scheduling integrity via an
// instance-specific bias: instance i of n prefers every i-th machine
// (Fig. 8), so replicas racing over the same machine set rarely collide.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/status.hpp"
#include "db/machine.hpp"

namespace actyp::sched {

// A pool's cached view of one machine (loaded from the white pages at
// pool initialization, refreshed from monitor data). Deliberately kept
// to the plain scheduling attributes — the selection scan walks these
// back to back, and identity strings live in the pool's parallel
// metadata table instead of widening every entry.
struct CacheEntry {
  db::MachineId id = db::kInvalidMachine;
  double load = 0.0;
  double available_memory_mb = 0.0;
  double effective_speed = 1.0;
  int num_cpus = 1;
  double max_allowed_load = 1.0;
  int active_jobs = 0;
  SimTime updated = 0;
};

struct SelectionContext {
  // Replication bias: this instance prefers entries whose index ≡
  // instance (mod instance_count). instance_count == 1 disables bias.
  std::uint32_t instance = 0;
  std::uint32_t instance_count = 1;
  Rng* rng = nullptr;  // for RandomPolicy
  // Optional per-query eligibility filter (user-group / usage-policy
  // checks); receives the entry index and entry. nullptr = all pass.
  const std::function<bool(std::size_t, const CacheEntry&)>* filter = nullptr;
};

struct Selection {
  std::size_t index = SIZE_MAX;
  std::size_t examined = 0;  // entries visited; drives service-time cost
  [[nodiscard]] bool found() const { return index != SIZE_MAX; }
};

class SchedulingPolicy {
 public:
  explicit SchedulingPolicy(bool indexed = false) : indexed_(indexed) {}
  virtual ~SchedulingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // True for the bare ordered names: charged by the entries the index
  // visits and never re-sorted. False for the linear-* names, which keep
  // the periodic re-sort and are charged the linear scan's count.
  [[nodiscard]] bool indexed() const { return indexed_; }

  // True when Better defines the selection order, so the pool answers
  // through a SchedulingIndex; round-robin and random keep their Select.
  [[nodiscard]] virtual bool ordered() const { return true; }

  // True when `a` should be preferred over `b` (used by the periodic
  // re-sort process and as the index ordering).
  [[nodiscard]] virtual bool Better(const CacheEntry& a,
                                    const CacheEntry& b) const = 0;

  // Linear scan for the best eligible machine, honouring the replication
  // bias: the instance's preferred stride is scanned first, then the
  // remainder. Returns the chosen index and entries examined. For the
  // ordered policies this is the reference the index answers like.
  [[nodiscard]] virtual Selection Select(const std::vector<CacheEntry>& cache,
                                         const SelectionContext& ctx) const;

  // Eligibility shared by all policies and by the index.
  [[nodiscard]] static bool Eligible(const CacheEntry& entry) {
    return entry.load <
           entry.max_allowed_load + static_cast<double>(entry.num_cpus) - 1.0;
  }

 private:
  bool indexed_ = false;
};

// Lowest current load wins (default PUNCH objective).
class LeastLoadPolicy final : public SchedulingPolicy {
 public:
  explicit LeastLoadPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "least-load" : "linear-least-load";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// Largest available memory wins.
class MostMemoryPolicy final : public SchedulingPolicy {
 public:
  explicit MostMemoryPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "most-memory" : "linear-most-memory";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// Highest effective speed wins; ties broken by load.
class FastestPolicy final : public SchedulingPolicy {
 public:
  explicit FastestPolicy(bool indexed = true) : SchedulingPolicy(indexed) {}
  [[nodiscard]] std::string name() const override {
    return indexed() ? "fastest" : "linear-fastest";
  }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// First free machine after a moving cursor (cheap, fair).
class RoundRobinPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  [[nodiscard]] bool ordered() const override { return false; }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;

 private:
  mutable std::size_t cursor_ = 0;
};

// Uniformly random free machine (baseline for ablations).
class RandomPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] bool ordered() const override { return false; }
  [[nodiscard]] bool Better(const CacheEntry& a,
                            const CacheEntry& b) const override;
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const override;
};

// The permutation std::stable_sort by policy.Better would apply to
// `cache`, computed from what changed since the cache was last in that
// order: `marked` holds the positions of the entries that changed (any
// order, no repeats; it is reordered in place), and every other entry
// must still be in stable Better order relative to the rest of them.
// The unmarked run is merged with the marked entries sorted by (Better,
// position), so a re-sort costs O(k log k + n) for k marked entries;
// with every position marked it is a full sort. Writes order[r] = the
// current position of the entry that belongs at position r, and returns
// false when that is the identity.
bool StableResortOrder(const SchedulingPolicy& policy,
                       const std::vector<CacheEntry>& cache,
                       std::vector<std::uint32_t>* marked,
                       std::vector<std::uint32_t>* order);

// Factory by name. Indexed: "least-load", "most-memory", "fastest".
// The paper's linear model: "linear-least-load", "linear-most-memory",
// "linear-fastest". Unordered: "round-robin", "random".
Result<std::unique_ptr<SchedulingPolicy>> MakePolicy(const std::string& name);

}  // namespace actyp::sched
