// ResourceDatabase: the "white pages" listing every machine in a domain
// (§4.1). Resource pools walk it at initialization, marking matched
// machines as taken; the monitor updates dynamic fields in place.
//
// Thread-safe: the threaded runtime has the monitor, pool managers, and
// pools touching it concurrently. The discrete-event runtime serializes
// access but uses the same interface.
//
// Storage is flat: records live in a chunked store that never moves or
// reallocates them, and every walk visits them in ascending id order
// (the order claims, churn victims and reports depend on). Ids may be
// sparse and arrive out of order; memory follows the record count, not
// the largest id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "db/machine.hpp"
#include "query/query.hpp"

namespace actyp::db {

class ResourceDatabase {
 public:
  ResourceDatabase() = default;

  // Inserts a record; assigns an id if the record has none. Fails on a
  // duplicate name or id.
  Result<MachineId> Add(MachineRecord record);

  // Copy-out accessors (callers never hold references into the table).
  [[nodiscard]] Result<MachineRecord> Get(MachineId id) const;
  [[nodiscard]] Result<MachineRecord> GetByName(const std::string& name) const;

  // Applies `mutate` to the record under the lock. Returns NotFound for
  // unknown ids.
  Status Update(MachineId id,
                const std::function<void(MachineRecord&)>& mutate);

  // Monitor fast path: overwrite dynamic state (fields 2-7).
  Status UpdateDynamic(MachineId id, const DynamicState& dyn);

  // Monitor batch path: one lock, one journal entry per id. Unknown ids
  // are skipped.
  void ApplyDynamic(
      const std::vector<std::pair<MachineId, DynamicState>>& batch);

  // --- taken marking (§5.2.3) ---
  // Atomically claims every *free, usable* machine matching the query,
  // up to `limit` (0 = unlimited), marking each taken by `pool_name`.
  // Returns the claimed ids.
  std::vector<MachineId> ClaimMatching(const query::Query& query,
                                       const std::string& pool_name,
                                       std::size_t limit = 0);
  // Releases every machine taken by `pool_name`; returns how many.
  std::size_t ReleaseAllFrom(const std::string& pool_name);
  Status Release(MachineId id, const std::string& pool_name);

  // Ids currently taken by `pool_name` (replicated pool instances load
  // the machine set their sibling already claimed).
  [[nodiscard]] std::vector<MachineId> ListTakenBy(
      const std::string& pool_name) const;

  // Visitor contract (ForEach, VisitRecords, ForEachChangeSince): records are visited in
  // place, without copies, while the database lock is held. The
  // callback must not call back into the database (it would deadlock)
  // and must not keep a reference or pointer to a record past its
  // return. A caller that wants to mutate what it visits collects ids
  // first and calls Update afterwards.

  // Walks every record in ascending id order.
  void ForEach(const std::function<void(const MachineRecord&)>& fn) const;

  // --- change tracking (dirty-id refresh) ---
  // Every mutation bumps a global version, stamps it on the record, and
  // appends the id to a bounded change journal. Consumers poll with
  // their cursor to learn which records changed, making refresh cost
  // proportional to churn instead of fleet size.

  // Version of the most recent mutation (0 = pristine database).
  [[nodiscard]] std::uint64_t version() const;

  // The journal reader: calls fn(id) for every journal entry after
  // `since`, oldest first, in place under the lock (the visitor contract
  // below applies). An id repeats once per entry: consecutive writes to
  // one record share an entry, interleaved writes do not. Returns the
  // new cursor, or nullopt (calling fn for nothing) when `since`
  // predates the retained journal window — the caller must fall back to
  // a full sweep and re-cursor at version().
  template <typename Fn>
  std::optional<std::uint64_t> ForEachChangeSince(std::uint64_t since,
                                                  Fn&& fn) const;

  // Entries the change journal retains before it drops its oldest half:
  // a cursor more than this many writes old can fall below its floor.
  static constexpr std::size_t kJournalCapacity = 1 << 16;

  // ForEachChangeSince collected into `out` (appended, ascending,
  // deduplicated).
  [[nodiscard]] std::optional<std::uint64_t> ChangesSince(
      std::uint64_t since, std::vector<MachineId>* out) const;

  // Batched read for the pools' periodic refresh sweep: calls
  // fn(position, record) for each id, in the order given, with a null
  // record for unknown ids.
  void VisitRecords(
      const std::vector<MachineId>& ids,
      const std::function<void(std::size_t, const MachineRecord*)>& fn) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t free_count() const;

  // Snapshot serialization: one record per line, ascending id. LoadFrom
  // adds the records in `text` to this database (it is not cleared
  // first). It is all-or-nothing: every line is parsed and checked for
  // duplicate names and ids (within the text and against the table)
  // before any record is inserted, so a failed load changes nothing.
  [[nodiscard]] std::string Serialize() const;
  Status LoadFrom(std::string_view text);

 private:
  // Record with `id`, or null. Caller holds mu_.
  MachineRecord* FindLocked(MachineId id) const;
  // Calls fn(MachineRecord&) for every record, ascending id. Caller
  // holds mu_.
  template <typename Fn>
  void WalkLocked(Fn&& fn) const;
  // The id `record` gets when inserted with the id counter at `next_id`
  // (its own id, or the counter when it has none); fails on an empty or
  // registered name, a registered id, or an exhausted id space. Caller
  // holds mu_.
  Result<MachineId> ResolveIdLocked(const MachineRecord& record,
                                    std::uint64_t next_id) const;
  // Stores `record`, whose id ResolveIdLocked has set. Caller holds mu_.
  void InsertLocked(MachineRecord record);
  // Stamps the next version on `rec` and journals the change. Caller
  // holds mu_.
  void MarkDirtyLocked(MachineRecord& rec);

  // 64-bit so that registering id 0xFFFFFFFF does not wrap the counter.
  std::uint64_t next_id_ = 1;
  mutable std::mutex mu_;
  // Owns the records in insertion order. A deque grows in chunks and
  // never relocates an element, so the pointers below stay valid and
  // the table is never copied wholesale on growth.
  std::deque<MachineRecord> store_;
  // The id index, in two parts that together hold every id in
  // ascending order. Ids below dense_.size() sit at their own position
  // in dense_ (null = unused id): an O(1) lookup for the usual 1..N
  // table. dense_ only grows to cover ids below 2 * size() + 64, so a
  // sparse id costs no memory; it goes to sparse_, whose ids are all
  // >= dense_.size().
  std::vector<MachineRecord*> dense_;
  std::map<MachineId, MachineRecord*> sparse_;
  std::unordered_map<std::string, MachineId> by_name_;

  // Change journal: (version, id) pairs in strictly increasing version
  // order. Bounded: when it outgrows kJournalCapacity the oldest half
  // is dropped and journal_floor_ records the last discarded version,
  // so stale cursors are detected instead of silently missing changes.
  std::uint64_t version_ = 0;
  std::uint64_t journal_floor_ = 0;
  std::vector<std::pair<std::uint64_t, MachineId>> journal_;
};

template <typename Fn>
std::optional<std::uint64_t> ResourceDatabase::ForEachChangeSince(
    std::uint64_t since, Fn&& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (since < journal_floor_) return std::nullopt;
  auto it = std::upper_bound(
      journal_.begin(), journal_.end(), since,
      [](std::uint64_t v, const auto& entry) { return v < entry.first; });
  for (; it != journal_.end(); ++it) fn(it->second);
  return version_;
}

}  // namespace actyp::db
