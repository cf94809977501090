// ResourcePool (§5.2.3): a dynamically-created active object holding
//   1) machines aggregated according to the criteria encoded in its
//      name (claimed from the white pages at initialization), and
//   2) a scheduling process that orders those machines by a configured
//      objective and answers queries with a linear search (charged by
//      its modelled cost, answered through the scheduling index; see
//      sched/policy.hpp).
//
// Lifecycle: OnStart walks the white pages, claims matching machines
// (marking them "taken"), loads a local cache, registers itself with the
// local directory service, and arms a periodic re-sort timer. Queries
// allocate a machine, generate a session key, and grab a shadow-account
// uid; releases return the job's capacity.
//
// Replication: instances of the same pool share one machine set (the
// first instance claims; later ones adopt the claim) and apply the
// instance-specific selection bias of Fig. 8.
//
// Slots: each machine gets a slot at initialization, in ascending id
// order, that never changes; names, access metadata and open sessions
// are kept by slot. Only the cache, in the order the policy sees, is
// permuted by a re-sort, together with its position <-> slot maps.
//
// What a tick costs the host: the journal entries written since the
// last tick (each an O(1) bitmap test), plus, for every owned machine
// among them, one record read and either an O(log n) index update
// (indexed policies) or a re-sort mark. A re-sorting (linear-*) pool
// then sorts the k entries marked since the last tick and merges them
// with the rest, O(k log k + n), and rebuilds its index when an entry
// moved or was re-read; a quiet tick does nothing. The simulated cost charged is
// the paper's, unchanged: the re-sort is charged for every entry.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "net/node.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/protocol.hpp"
#include "pipeline/reservations.hpp"
#include "profile/stage_profiler.hpp"
#include "query/query.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"

namespace actyp::obs {
class FlightRecorder;
}  // namespace actyp::obs

namespace actyp::pipeline {

struct ResourcePoolConfig {
  std::string pool_name;       // signature '/' identifier (§5.2.2)
  std::uint32_t instance = 0;  // self-generated instance number
  std::uint32_t instance_count = 1;  // for the replication bias
  // Name under which machines are marked taken in the white pages.
  // Replicas share it (they adopt each other's claim); segments of a
  // split pool use distinct claim names so they partition the machines.
  // Empty = pool_name.
  std::string claim_name;
  // Registered as a segment of a split pool (Fig. 7).
  bool segment = false;
  query::Query criteria;       // aggregation criteria (rsrc terms only)
  std::string policy = "least-load";
  SimDuration resort_period = Seconds(2.0);
  std::size_t claim_limit = 0;  // cap on machines claimed; 0 = all
  // When a query finds every machine at its load ceiling, hand out the
  // least-loaded one anyway (PUNCH machines are time-shared); when
  // false, reply with a failure instead.
  bool allow_oversubscribe = true;
  bool register_in_directory = true;
  CostModel costs;
  // Stage-span sink (not owned; must outlive the node, including any
  // fault-restart copies of this config). Null disables profiling.
  profile::StageProfiler* profiler = nullptr;
  // Flight-event sink for claim/release events (same ownership rules as
  // the profiler). Null — the default — records nothing.
  obs::FlightRecorder* recorder = nullptr;
};

struct PoolStats {
  std::uint64_t queries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t failures = 0;
  std::uint64_t releases = 0;
  std::uint64_t oversubscribed = 0;
  std::uint64_t entries_examined = 0;
  std::uint64_t reservations = 0;  // advance reservations granted
  // Refresh economics: how many cache entries each periodic tick had to
  // re-read from the white pages. With dirty-id refresh this tracks
  // monitor/job churn, not cache size.
  std::uint64_t entries_refreshed = 0;
  std::uint64_t refresh_ticks = 0;
};

class ResourcePool final : public net::Node {
 public:
  // `policies` and `shadows` may be nullptr (checks are skipped).
  ResourcePool(ResourcePoolConfig config, db::ResourceDatabase* database,
               directory::DirectoryApi* directory,
               db::ShadowAccountRegistry* shadows,
               db::PolicyRegistry* policies);
  ~ResourcePool() override;

  void OnStart(net::NodeContext& ctx) override;
  void OnMessage(const net::Envelope& envelope, net::NodeContext& ctx) override;

  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] const ResourcePoolConfig& config() const { return config_; }
  // Sessions still open against this instance (allocation granted, no
  // release seen) — the chaos leaked-session audit reads this at drain.
  [[nodiscard]] std::size_t active_sessions() const {
    return session_entry_.size();
  }

 private:
  struct EntryMeta {
    std::string name;  // machine name (identity lives here, off the
                       // scheduling scan's hot cache entries)
    std::vector<std::string> user_groups;
    std::string usage_policy;
    std::string shadow_pool;
    std::uint16_t execution_port = 0;
  };

  // Machine id -> slot, as a rank query over a bitmap of the pool's ids
  // (a word array plus a per-word prefix popcount, about 1.5 bits per id
  // in range): O(1) for ids below the bitmap's end, which covers every
  // owned id unless the ids are far sparser than the pool; the owned ids
  // above it are binary-searched.
  class SlotIndex {
   public:
    static constexpr std::size_t kNone = SIZE_MAX;
    // `ids` ascending: slot s holds ids[s].
    void Build(const std::vector<db::MachineId>& ids);
    [[nodiscard]] std::size_t Find(db::MachineId id) const {
      if (id < bits_end_) {
        const std::uint64_t word = words_[id >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (id & 63);
        if ((word & bit) == 0) return kNone;
        return rank_[id >> 6] +
               static_cast<std::size_t>(std::popcount(word & (bit - 1)));
      }
      return FindAbove(id);
    }

   private:
    [[nodiscard]] std::size_t FindAbove(db::MachineId id) const;
    std::uint64_t bits_end_ = 0;  // ids below this are in the bitmap
    std::vector<std::uint64_t> words_;
    std::vector<std::uint32_t> rank_;  // set bits in the words before
    // Owned ids at or above bits_end_, ascending; their slots follow
    // the bitmap's.
    std::vector<db::MachineId> above_;
    std::size_t above_first_slot_ = 0;
  };

  void Initialize(net::NodeContext& ctx);
  void HandleQuery(const net::Envelope& envelope, net::NodeContext& ctx);
  void HandleRelease(const net::Envelope& envelope, net::NodeContext& ctx);
  void HandleTick(net::NodeContext& ctx);
  // Re-reads white-pages state into the cache: the records dirtied since
  // the last tick, or every record when the cursor fell below the
  // journal's floor. Indexed pools re-position what changed in the
  // scheduling index; re-sorting pools mark it for the Resort that
  // follows. Returns the number of entries re-read (the simulated
  // refresh cost).
  std::size_t RefreshFromDatabase();
  // Applies one record to the cache entry at `pos`.
  void ApplyRecord(std::size_t pos, const db::MachineRecord& rec);
  // Brings the scheduling state up to date after the entry at `pos`
  // changed: the index of an indexed pool, or the index and the re-sort
  // marks of a re-sorting one.
  void Touch(std::size_t pos);
  void Mark(std::size_t pos);
  void Resort(net::NodeContext& ctx);
  [[nodiscard]] std::string MakeSessionKey(net::NodeContext& ctx);

  ResourcePoolConfig config_;
  db::ResourceDatabase* database_;
  directory::DirectoryApi* directory_;
  db::ShadowAccountRegistry* shadows_;
  db::PolicyRegistry* policies_;

  std::unique_ptr<sched::SchedulingPolicy> policy_;
  // Present iff the policy is ordered (indexed and linear-*): maintained
  // on allocate/release/refresh/re-sort and consulted for every query.
  std::unique_ptr<sched::SchedulingIndex> index_;
  // Every machine has a slot, fixed at Initialize in ascending id order;
  // the per-machine state that re-sorts must not move is indexed by it.
  // Only cache_ is kept in scheduling order (its index is the position
  // the policy and the index see), with the two arrays that map between
  // positions and slots.
  std::vector<sched::CacheEntry> cache_;    // by position
  std::vector<std::uint32_t> pos_slot_;     // position -> slot
  std::vector<std::uint32_t> slot_pos_;     // slot -> position
  std::vector<EntryMeta> meta_;             // by slot
  std::vector<db::MachineId> slot_ids_;     // by slot (ascending)
  SlotIndex slots_;
  // White-pages change cursor for the incremental refresh sweep.
  std::uint64_t db_cursor_ = 0;
  // Scratch for the dirty-id refresh: the owned slots seen this tick,
  // their ids, and a per-slot flag that drops repeats.
  std::vector<std::uint32_t> fetch_slots_;
  std::vector<db::MachineId> fetch_ids_;
  std::vector<std::uint8_t> fetch_seen_;
  // Re-sort marks: the positions changed since the last Resort, and a
  // per-position flag that drops repeats. Initialize and a full sweep
  // mark everything.
  std::vector<std::uint32_t> marked_;
  std::vector<std::uint8_t> is_marked_;
  std::vector<std::uint32_t> sort_order_;   // Resort scratch
  // A refresh re-read entries of a re-sorting pool without updating the
  // index; the next Resort rebuilds it.
  bool index_stale_ = false;
  bool any_user_groups_ = false;            // per-query filter fast path
  bool any_usage_policy_ = false;
  // session -> slots (one normally; several for co-allocated requests,
  // released together).
  std::unordered_map<std::string, std::vector<std::uint32_t>> session_entry_;
  std::unordered_map<std::string, std::uint32_t> session_uid_;
  ReservationBook reservations_;  // advance reservations (extension)
  std::unordered_set<std::string> reservation_sessions_;
  PoolStats stats_;
  bool registered_ = false;
  bool initialized_ = false;
};

}  // namespace actyp::pipeline
