#include "sched/policy.hpp"

#include <algorithm>

namespace actyp::sched {
namespace {

// The linear scan shared by the ordered policies, templated on the
// concrete (final) policy type so the per-entry Better comparison
// inlines instead of going through the vtable ~n times per query.
template <typename Policy>
Selection LinearSelect(const Policy& policy,
                       const std::vector<CacheEntry>& cache,
                       const SelectionContext& ctx) {
  Selection result;
  if (cache.empty()) return result;

  const std::uint32_t stride = std::max<std::uint32_t>(1, ctx.instance_count);
  const auto* filter = ctx.filter;
  auto consider = [&](std::size_t i) {
    ++result.examined;
    if (!SchedulingPolicy::Eligible(cache[i])) return;
    if (filter && !(*filter)(i, cache[i])) return;
    if (!result.found() || policy.Better(cache[i], cache[result.index])) {
      result.index = i;
    }
  };

  // Preferred stride first: indices congruent to this instance number.
  for (std::size_t i = ctx.instance % stride; i < cache.size(); i += stride) {
    consider(i);
  }
  if (result.found() || stride == 1) return result;

  // Fall back to the machines preferred by sibling instances.
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (i % stride == ctx.instance % stride) continue;
    consider(i);
  }
  return result;
}

// StableResortOrder for one concrete policy type, so Better inlines.
// Both inputs are sorted by (Better, position): the marked entries by
// std::sort, the unmarked run by precondition, ascending positions. The
// unmarked run is first compacted into the tail of `order`; the merge
// then fills `order` from the front and never overtakes its read point.
template <typename Policy>
bool MergeResortOrder(const Policy& policy,
                      const std::vector<CacheEntry>& cache,
                      std::vector<std::uint32_t>* marked,
                      std::vector<std::uint32_t>* order) {
  std::vector<std::uint32_t>& m = *marked;
  std::vector<std::uint32_t>& out = *order;
  const std::size_t n = cache.size();
  const std::size_t k = m.size();
  out.resize(n);
  std::sort(m.begin(), m.end());
  std::size_t tail = k;
  for (std::uint32_t p = 0, next = 0; p < n; ++p) {
    if (next < k && m[next] == p) {
      ++next;
    } else {
      out[tail++] = p;
    }
  }
  // (Better, position) order: a strict total order on positions.
  auto before = [&policy, &cache](std::uint32_t a, std::uint32_t b) {
    if (policy.Better(cache[a], cache[b])) return true;
    if (policy.Better(cache[b], cache[a])) return false;
    return a < b;
  };
  std::sort(m.begin(), m.end(), before);
  std::size_t i = 0, j = k, r = 0;
  bool moved = false;
  for (; i < k && j < n; ++r) {
    out[r] = before(m[i], out[j]) ? m[i++] : out[j++];
    moved |= out[r] != r;
  }
  for (; i < k; ++r) {
    out[r] = m[i++];
    moved |= out[r] != r;
  }
  // The rest of the unmarked run is already in place (j == r).
  return moved;
}

}  // namespace

bool StableResortOrder(const SchedulingPolicy& policy,
                       const std::vector<CacheEntry>& cache,
                       std::vector<std::uint32_t>* marked,
                       std::vector<std::uint32_t>* order) {
  if (const auto* p = dynamic_cast<const LeastLoadPolicy*>(&policy)) {
    return MergeResortOrder(*p, cache, marked, order);
  }
  if (const auto* p = dynamic_cast<const MostMemoryPolicy*>(&policy)) {
    return MergeResortOrder(*p, cache, marked, order);
  }
  if (const auto* p = dynamic_cast<const FastestPolicy*>(&policy)) {
    return MergeResortOrder(*p, cache, marked, order);
  }
  return MergeResortOrder(policy, cache, marked, order);
}

Selection SchedulingPolicy::Select(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx) const {
  return LinearSelect(*this, cache, ctx);
}

bool LeastLoadPolicy::Better(const CacheEntry& a, const CacheEntry& b) const {
  if (a.load != b.load) return a.load < b.load;
  return a.effective_speed > b.effective_speed;
}

Selection LeastLoadPolicy::Select(const std::vector<CacheEntry>& cache,
                                  const SelectionContext& ctx) const {
  return LinearSelect(*this, cache, ctx);
}

bool MostMemoryPolicy::Better(const CacheEntry& a, const CacheEntry& b) const {
  if (a.available_memory_mb != b.available_memory_mb) {
    return a.available_memory_mb > b.available_memory_mb;
  }
  return a.load < b.load;
}

Selection MostMemoryPolicy::Select(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx) const {
  return LinearSelect(*this, cache, ctx);
}

bool FastestPolicy::Better(const CacheEntry& a, const CacheEntry& b) const {
  // Speed discounted by current load per cpu: what matters is the speed
  // the new job will actually see.
  const double ea = a.effective_speed /
                    (1.0 + a.load / static_cast<double>(a.num_cpus));
  const double eb = b.effective_speed /
                    (1.0 + b.load / static_cast<double>(b.num_cpus));
  if (ea != eb) return ea > eb;
  return a.load < b.load;
}

Selection FastestPolicy::Select(const std::vector<CacheEntry>& cache,
                                const SelectionContext& ctx) const {
  return LinearSelect(*this, cache, ctx);
}

bool RoundRobinPolicy::Better(const CacheEntry& a, const CacheEntry& b) const {
  // Sorting is a no-op for round-robin; keep stable order.
  (void)a;
  (void)b;
  return false;
}

Selection RoundRobinPolicy::Select(const std::vector<CacheEntry>& cache,
                                   const SelectionContext& ctx) const {
  Selection result;
  const std::size_t n = cache.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (cursor_ + step) % n;
    ++result.examined;
    if (Eligible(cache[i]) && (!ctx.filter || (*ctx.filter)(i, cache[i]))) {
      result.index = i;
      cursor_ = (i + 1) % n;
      return result;
    }
  }
  return result;
}

bool RandomPolicy::Better(const CacheEntry& a, const CacheEntry& b) const {
  (void)a;
  (void)b;
  return false;
}

Selection RandomPolicy::Select(const std::vector<CacheEntry>& cache,
                               const SelectionContext& ctx) const {
  Selection result;
  const std::size_t n = cache.size();
  if (n == 0 || ctx.rng == nullptr) return result;
  // Random probing up to n attempts, then linear sweep; examined counts
  // reflect actual probes so the cost model stays honest.
  auto passes = [&](std::size_t i) {
    return Eligible(cache[i]) && (!ctx.filter || (*ctx.filter)(i, cache[i]));
  };
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t i = ctx.rng->NextBounded(n);
    ++result.examined;
    if (passes(i)) {
      result.index = i;
      return result;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++result.examined;
    if (passes(i)) {
      result.index = i;
      return result;
    }
  }
  return result;
}

Result<std::unique_ptr<SchedulingPolicy>> MakePolicy(const std::string& name) {
  // The bare names are the indexed fast paths; the "linear-" prefix
  // keeps the paper's periodic sort and O(n) scan charge.
  const bool linear = name.rfind("linear-", 0) == 0;
  const std::string base = linear ? name.substr(7) : name;
  if (base == "least-load" || base.empty()) {
    return std::unique_ptr<SchedulingPolicy>(new LeastLoadPolicy(!linear));
  }
  if (base == "most-memory") {
    return std::unique_ptr<SchedulingPolicy>(new MostMemoryPolicy(!linear));
  }
  if (base == "fastest") {
    return std::unique_ptr<SchedulingPolicy>(new FastestPolicy(!linear));
  }
  if (!linear && base == "round-robin") {
    return std::unique_ptr<SchedulingPolicy>(new RoundRobinPolicy());
  }
  if (!linear && base == "random") {
    return std::unique_ptr<SchedulingPolicy>(new RandomPolicy());
  }
  return InvalidArgument("unknown scheduling policy '" + name + "'");
}

}  // namespace actyp::sched
