#include "sched/index.hpp"

#include <algorithm>

namespace actyp::sched {
namespace {

constexpr std::uint32_t kArity = 4;

// A linear-* search that visits more than this many entries gives way to
// the reference scan: 64 + n/16 keeps idle and lightly loaded pools on
// the index while saturated ones pay one O(n) pass, not a deep traversal.
constexpr std::size_t kSearchBudgetBase = 64;
constexpr std::size_t kSearchBudgetShare = 16;

}  // namespace

SchedulingIndex::SchedulingIndex(const SchedulingPolicy* policy,
                                 std::uint32_t instance,
                                 std::uint32_t instance_count)
    : policy_(policy),
      instance_(instance),
      stride_(std::max<std::uint32_t>(1, instance_count)) {
  heaps_.resize(stride_);
}

void SchedulingIndex::Rebuild(const std::vector<CacheEntry>& cache) {
  for (auto& heap : heaps_) heap.clear();
  eligible_.assign(stride_, 0);
  eligible_total_ = 0;
  pos_.resize(cache.size());
  for (std::size_t i = 0; i < cache.size(); ++i) {
    const auto cls = static_cast<std::uint32_t>(i % stride_);
    const bool eligible = SchedulingPolicy::Eligible(cache[i]);
    pos_[i] = Node{cls, static_cast<std::uint32_t>(heaps_[cls].size()),
                   eligible};
    heaps_[cls].push_back(static_cast<std::uint32_t>(i));
    eligible_[cls] += eligible ? 1 : 0;
  }
  for (std::uint32_t cls = 0; cls < stride_; ++cls) {
    eligible_total_ += eligible_[cls];
    const std::size_t n = heaps_[cls].size();
    if (n < 2) continue;
    for (std::size_t p = (n - 2) / kArity + 1; p-- > 0;) {
      SiftDown(cache, cls, p);
    }
  }
}

void SchedulingIndex::Update(const std::vector<CacheEntry>& cache,
                             std::size_t index) {
  Node& node = pos_[index];
  const bool eligible = SchedulingPolicy::Eligible(cache[index]);
  if (eligible != node.eligible) {
    node.eligible = eligible;
    if (eligible) {
      ++eligible_[node.cls];
      ++eligible_total_;
    } else {
      --eligible_[node.cls];
      --eligible_total_;
    }
  }
  const std::uint32_t cls = node.cls;
  SiftUp(cache, cls, node.heap_pos);
  SiftDown(cache, cls, pos_[index].heap_pos);
}

void SchedulingIndex::SiftUp(const std::vector<CacheEntry>& cache,
                             std::uint32_t cls, std::size_t pos) {
  auto& heap = heaps_[cls];
  const std::uint32_t entry = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!Less(cache, entry, heap[parent])) break;
    heap[pos] = heap[parent];
    pos_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap[pos] = entry;
  pos_[entry].heap_pos = static_cast<std::uint32_t>(pos);
}

void SchedulingIndex::SiftDown(const std::vector<CacheEntry>& cache,
                               std::uint32_t cls, std::size_t pos) {
  auto& heap = heaps_[cls];
  const std::uint32_t entry = heap[pos];
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (Less(cache, heap[c], heap[best])) best = c;
    }
    if (!Less(cache, heap[best], entry)) break;
    heap[pos] = heap[best];
    pos_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap[pos] = entry;
  pos_[entry].heap_pos = static_cast<std::uint32_t>(pos);
}

std::size_t SchedulingIndex::Search(const std::vector<CacheEntry>& cache,
                                    const SelectionContext& ctx,
                                    std::uint32_t own_cls, bool own,
                                    std::size_t budget,
                                    std::size_t* visited) const {
  // The frontier is a max-heap under the reversed order, so its front is
  // the least entry; the heap property of the class heaps guarantees the
  // traversal visits entries in exactly the order the linear scan would
  // prefer them.
  const auto after = [this, &cache](std::uint32_t a, std::uint32_t b) {
    return Less(cache, b, a);
  };
  // The linear-* charge does not depend on what the search visits, so a
  // class that cannot hold the answer is not entered at all.
  const bool skip_ineligible = !policy_->indexed();
  frontier_.clear();
  for (std::uint32_t cls = 0; cls < stride_; ++cls) {
    if ((cls == own_cls) != own || heaps_[cls].empty()) continue;
    if (skip_ineligible && eligible_[cls] == 0) continue;
    frontier_.push_back(heaps_[cls][0]);
  }
  std::make_heap(frontier_.begin(), frontier_.end(), after);

  while (!frontier_.empty()) {
    if (*visited >= budget) return kOverBudget;
    std::pop_heap(frontier_.begin(), frontier_.end(), after);
    const std::uint32_t entry = frontier_.back();
    frontier_.pop_back();
    ++*visited;
    if (SchedulingPolicy::Eligible(cache[entry]) &&
        (!ctx.filter || (*ctx.filter)(entry, cache[entry]))) {
      return entry;
    }
    const Node node = pos_[entry];
    const std::vector<std::uint32_t>& heap = heaps_[node.cls];
    const std::size_t first_child =
        static_cast<std::size_t>(node.heap_pos) * kArity + 1;
    const std::size_t last_child = std::min(first_child + kArity, heap.size());
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(heap[c]);
      std::push_heap(frontier_.begin(), frontier_.end(), after);
    }
  }
  return kNone;
}

Selection SchedulingIndex::Select(const std::vector<CacheEntry>& cache,
                                  const SelectionContext& ctx) const {
  Selection result;
  const std::size_t n = cache.size();
  if (n == 0) return result;
  const bool linear = !policy_->indexed();
  const std::size_t budget =
      linear ? kSearchBudgetBase + n / kSearchBudgetShare : SIZE_MAX;
  const std::uint32_t own_cls = ctx.instance % stride_;
  const std::size_t own_size = heaps_[own_cls].size();

  // `visited` counts traversed entries; `skipped` the entries of searched
  // sets with nothing eligible, which a traversal would visit in full.
  std::size_t visited = 0;
  std::size_t skipped = 0;
  std::size_t entry = kNone;
  if (eligible_[own_cls] > 0) {
    entry = Search(cache, ctx, own_cls, /*own=*/true, budget, &visited);
  } else {
    skipped += own_size;
  }
  if (entry == kNone && stride_ > 1) {
    if (eligible_total_ > eligible_[own_cls]) {
      entry = Search(cache, ctx, own_cls, /*own=*/false, budget, &visited);
    } else {
      skipped += n - own_size;
    }
  }
  if (entry == kOverBudget) return policy_->Select(cache, ctx);

  if (entry != kNone) result.index = entry;
  if (linear) {
    const bool in_own_class = result.found() && entry % stride_ == own_cls;
    result.examined = in_own_class ? own_size : n;
  } else {
    result.examined = visited + skipped;
  }
  return result;
}

}  // namespace actyp::sched
