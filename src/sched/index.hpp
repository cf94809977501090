// SchedulingIndex: the incrementally-maintained replacement for the
// paper's "sort every 2 s + linear scan" scheduling process, kept by the
// pool for every ordered policy (least-load, most-memory, fastest and
// their linear-* forms). It holds one 4-ary min-heap of cache indices
// per replication stride class, ordered by the policy objective with the
// cache index as the deterministic tie-break — the exact total order the
// linear scan resolves — plus a count of eligible entries per class.
//
// Selection is a best-first traversal of the instance's own class heap
// (then, only when that class has no eligible machine, of the sibling
// classes merged) over a binary-heap frontier. A searched set with no
// eligible entry is never traversed: its size is added to the charge.
// The chosen entry is always the linear scan's; what the query is
// charged depends on the policy:
//
//  - Indexed (least-load, most-memory, fastest): the entries the search
//    visits, i.e. 1 + the searched entries ordered before the answer
//    (the whole searched set when nothing passes). On a mostly idle
//    pool a query examines one or two entries instead of the cache.
//  - linear-*: the paper's O(n) scan is charged, not run (§5.2.3: Fig.
//    6's linear curves "are simply a function of the linear search
//    algorithms employed for scheduling"). The charge is what the scan
//    examines, in O(1): the size of the instance's stride class when the
//    answer lies in it, otherwise the whole cache (0 when it is empty).
//    Sibling classes with no eligible entry are skipped outright. Once a
//    search has visited more than 64 + n/16 entries (a saturated pool,
//    where overloaded machines sort ahead of the eligible ones), the
//    reference scan SchedulingPolicy::Select answers instead; its answer
//    and count are the linear ones by definition.
//
// The pool calls Update(i) whenever entry i's objective inputs change
// (allocate, release, refresh) and Rebuild() after bulk reloads and
// re-sorts; both reuse the heap storage, allocation-free in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/policy.hpp"

namespace actyp::sched {

class SchedulingIndex {
 public:
  // `policy` must outlive the index and be ordered; its indexed() flag
  // picks the charge. `instance_count` fixes the stride partition (class
  // of entry i = i mod instance_count).
  SchedulingIndex(const SchedulingPolicy* policy, std::uint32_t instance,
                  std::uint32_t instance_count);

  // Rebuilds every class heap from `cache` (Floyd heapify, O(n)).
  void Rebuild(const std::vector<CacheEntry>& cache);

  // Re-positions entry `index` after its objective inputs changed.
  void Update(const std::vector<CacheEntry>& cache, std::size_t index);

  // Same chosen index as the linear SchedulingPolicy::Select on the same
  // cache and context, charged as the header comment describes.
  // `ctx.instance` may override the constructor's instance;
  // `ctx.instance_count` must match the constructor's.
  [[nodiscard]] Selection Select(const std::vector<CacheEntry>& cache,
                                 const SelectionContext& ctx) const;

  [[nodiscard]] std::size_t size() const { return pos_.size(); }

 private:
  struct Node {
    std::uint32_t cls;
    std::uint32_t heap_pos;
    bool eligible;  // SchedulingPolicy::Eligible at the last Update
  };

  [[nodiscard]] bool Less(const std::vector<CacheEntry>& cache,
                          std::uint32_t a, std::uint32_t b) const {
    if (policy_->Better(cache[a], cache[b])) return true;
    if (policy_->Better(cache[b], cache[a])) return false;
    return a < b;  // the linear scan's first-wins tie-break
  }

  void SiftUp(const std::vector<CacheEntry>& cache, std::uint32_t cls,
              std::size_t pos);
  void SiftDown(const std::vector<CacheEntry>& cache, std::uint32_t cls,
                std::size_t pos);

  // Best-first traversal of one class heap (own == true) or of every
  // class except `own_cls` merged. Adds visited nodes to `*visited`.
  // Returns the first entry that is eligible and passes the filter,
  // kNone when there is none, or kOverBudget when `*visited` reached
  // `budget` first.
  [[nodiscard]] std::size_t Search(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx,
                                   std::uint32_t own_cls, bool own,
                                   std::size_t budget,
                                   std::size_t* visited) const;

  static constexpr std::size_t kNone = SIZE_MAX;
  static constexpr std::size_t kOverBudget = SIZE_MAX - 1;

  const SchedulingPolicy* policy_;
  std::uint32_t instance_;
  std::uint32_t stride_;
  std::vector<std::vector<std::uint32_t>> heaps_;  // per class: cache indices
  std::vector<Node> pos_;                          // cache index -> heap slot
  std::vector<std::size_t> eligible_;              // per class
  std::size_t eligible_total_ = 0;
  // Scratch for Search: cache indices, a binary heap whose front is the
  // least entry in (objective, index) order.
  mutable std::vector<std::uint32_t> frontier_;
};

}  // namespace actyp::sched
