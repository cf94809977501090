// Tests for the scheduling policies: objective ordering, linear-search
// accounting, eligibility, per-query filters, the Fig. 8 instance-bias
// used by replicated pools, and the incrementally-maintained index's
// exact equivalence with the legacy linear scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"

namespace actyp::sched {
namespace {

CacheEntry Entry(double load, double memory = 256, double speed = 1.0) {
  CacheEntry entry;
  entry.load = load;
  entry.available_memory_mb = memory;
  entry.effective_speed = speed;
  entry.num_cpus = 1;
  entry.max_allowed_load = 1.0;
  return entry;
}

TEST(LeastLoad, PrefersLowestLoad) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.9), Entry(0.1), Entry(0.5)};
  SelectionContext ctx;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
  EXPECT_EQ(sel.examined, 3u);  // linear search touches everything
}

TEST(LeastLoad, SpeedBreaksTies) {
  LeastLoadPolicy policy;
  EXPECT_TRUE(policy.Better(Entry(0.2, 256, 2.0), Entry(0.2, 256, 1.0)));
  EXPECT_FALSE(policy.Better(Entry(0.3, 256, 9.0), Entry(0.2, 256, 1.0)));
}

TEST(MostMemory, PrefersLargestMemory) {
  MostMemoryPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.1, 128), Entry(0.9, 1024),
                                Entry(0.5, 512)};
  auto sel = policy.Select(cache, SelectionContext{});
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
}

TEST(Fastest, DiscountsBySaturation) {
  FastestPolicy policy;
  // 3.0-speed machine at load 2 effectively 1.0; 1.5-speed idle is 1.5.
  CacheEntry busy_fast = Entry(2.0, 256, 3.0);
  busy_fast.max_allowed_load = 4.0;  // keep it eligible
  CacheEntry idle_slow = Entry(0.0, 256, 1.5);
  EXPECT_TRUE(policy.Better(idle_slow, busy_fast));
}

TEST(Eligibility, LoadCeilingExcludes) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(1.0), Entry(2.0)};  // all at/over limit
  auto sel = policy.Select(cache, SelectionContext{});
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, 2u);
}

TEST(Eligibility, MultiCpuRaisesCeiling) {
  LeastLoadPolicy policy;
  CacheEntry smp = Entry(1.5);
  smp.num_cpus = 4;  // ceiling = 1.0 + 4 - 1 = 4.0
  std::vector<CacheEntry> cache{smp};
  EXPECT_TRUE(policy.Select(cache, SelectionContext{}).found());
}

TEST(Filter, ExcludesByIndex) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(0.5)};
  std::function<bool(std::size_t, const CacheEntry&)> filter =
      [](std::size_t i, const CacheEntry&) { return i != 0; };
  SelectionContext ctx;
  ctx.filter = &filter;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
}

TEST(ReplicationBias, InstancesPreferDistinctStrides) {
  // 8 idle machines, 2 instances: instance 0 should pick an even index,
  // instance 1 an odd index (Fig. 8's "instance i prefers every i-th").
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 8; ++i) cache.push_back(Entry(0.1 * i));

  SelectionContext ctx0;
  ctx0.instance = 0;
  ctx0.instance_count = 2;
  SelectionContext ctx1;
  ctx1.instance = 1;
  ctx1.instance_count = 2;

  const auto sel0 = policy.Select(cache, ctx0);
  const auto sel1 = policy.Select(cache, ctx1);
  ASSERT_TRUE(sel0.found());
  ASSERT_TRUE(sel1.found());
  EXPECT_EQ(sel0.index % 2, 0u);
  EXPECT_EQ(sel1.index % 2, 1u);
  EXPECT_NE(sel0.index, sel1.index);
}

TEST(ReplicationBias, FallsBackToOtherStride) {
  LeastLoadPolicy policy;
  // Only index 1 (odd) is eligible; instance 0 must still find it.
  std::vector<CacheEntry> cache{Entry(5.0), Entry(0.1), Entry(5.0),
                                Entry(5.0)};
  SelectionContext ctx;
  ctx.instance = 0;
  ctx.instance_count = 2;
  auto sel = policy.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 1u);
  // Preferred stride (2 entries) + fallback examination.
  EXPECT_GT(sel.examined, 2u);
}

TEST(RoundRobin, CyclesThroughMachines) {
  RoundRobinPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(0.0), Entry(0.0)};
  SelectionContext ctx;
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy.Select(cache, ctx).index);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobin, SkipsIneligible) {
  RoundRobinPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0), Entry(9.0), Entry(0.0)};
  SelectionContext ctx;
  EXPECT_EQ(policy.Select(cache, ctx).index, 0u);
  EXPECT_EQ(policy.Select(cache, ctx).index, 2u);
  EXPECT_EQ(policy.Select(cache, ctx).index, 0u);
}

TEST(Random, FindsEligibleEntry) {
  RandomPolicy policy;
  std::vector<CacheEntry> cache{Entry(9.0), Entry(9.0), Entry(0.0),
                                Entry(9.0)};
  Rng rng(3);
  SelectionContext ctx;
  ctx.rng = &rng;
  for (int i = 0; i < 20; ++i) {
    auto sel = policy.Select(cache, ctx);
    ASSERT_TRUE(sel.found());
    EXPECT_EQ(sel.index, 2u);
  }
}

TEST(Random, RequiresRng) {
  RandomPolicy policy;
  std::vector<CacheEntry> cache{Entry(0.0)};
  EXPECT_FALSE(policy.Select(cache, SelectionContext{}).found());
}

TEST(EmptyCache, NothingFound) {
  LeastLoadPolicy policy;
  std::vector<CacheEntry> cache;
  auto sel = policy.Select(cache, SelectionContext{});
  EXPECT_FALSE(sel.found());
  EXPECT_EQ(sel.examined, 0u);
}

TEST(Factory, CreatesAllPolicies) {
  for (const char* name :
       {"least-load", "most-memory", "fastest", "round-robin", "random",
        "linear-least-load", "linear-most-memory", "linear-fastest"}) {
    auto policy = MakePolicy(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ((*policy)->name(), name);
  }
  EXPECT_TRUE(MakePolicy("").ok());  // default
  EXPECT_FALSE(MakePolicy("quantum").ok());
  EXPECT_FALSE(MakePolicy("linear-random").ok());  // no legacy variant
}

TEST(Factory, BareNamesAreIndexedLinearNamesAreNot) {
  EXPECT_TRUE((*MakePolicy("least-load"))->indexed());
  EXPECT_TRUE((*MakePolicy("fastest"))->indexed());
  EXPECT_FALSE((*MakePolicy("linear-least-load"))->indexed());
  EXPECT_FALSE((*MakePolicy("round-robin"))->indexed());
  EXPECT_FALSE((*MakePolicy("random"))->indexed());
}

TEST(Factory, OrderedPoliciesAreTheIndexableOnes) {
  for (const char* name : {"least-load", "most-memory", "fastest",
                           "linear-least-load", "linear-most-memory",
                           "linear-fastest"}) {
    EXPECT_TRUE((*MakePolicy(name))->ordered()) << name;
  }
  EXPECT_FALSE((*MakePolicy("round-robin"))->ordered());
  EXPECT_FALSE((*MakePolicy("random"))->ordered());
}

// Property sweep: every policy must return an eligible entry whenever one
// exists, and must examine at most 2n entries.
class PolicyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyProperty, AlwaysFindsEligibleWhenPresent) {
  auto policy = MakePolicy(GetParam());
  ASSERT_TRUE(policy.ok());
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(40);
    std::vector<CacheEntry> cache;
    bool any_eligible = false;
    for (std::size_t i = 0; i < n; ++i) {
      const bool eligible = rng.Bernoulli(0.4);
      cache.push_back(Entry(eligible ? rng.Uniform(0, 0.9) : 9.0));
      any_eligible |= eligible;
    }
    SelectionContext ctx;
    ctx.rng = &rng;
    ctx.instance = static_cast<std::uint32_t>(rng.NextBounded(3));
    ctx.instance_count = 3;
    auto sel = (*policy)->Select(cache, ctx);
    EXPECT_EQ(sel.found(), any_eligible);
    if (sel.found()) {
      EXPECT_LT(cache[sel.index].load, 1.0);
    }
    EXPECT_LE(sel.examined, 2 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values("least-load", "most-memory",
                                           "fastest", "round-robin",
                                           "random"));

// --- the scheduling index ---

constexpr const char* kOrderedPolicies[] = {
    "least-load",        "most-memory",        "fastest",
    "linear-least-load", "linear-most-memory", "linear-fastest"};

// A machine with 1-8 CPUs, eligible or at/over its load ceiling. Loads,
// memory and speed are coarse so objective ties (resolved by index) are
// common.
CacheEntry RandomEntry(Rng& rng, double ineligible_share) {
  CacheEntry entry;
  entry.num_cpus = 1 + static_cast<int>(rng.NextBounded(8));
  entry.max_allowed_load = 1.0;
  const double ceiling = static_cast<double>(entry.num_cpus);
  entry.load =
      rng.Bernoulli(ineligible_share)
          ? ceiling + 0.25 * static_cast<double>(rng.NextBounded(12))
          : 0.25 * static_cast<double>(rng.NextBounded(
                       static_cast<std::uint64_t>(4 * ceiling)));
  entry.available_memory_mb =
      64.0 * static_cast<double>(1 + rng.NextBounded(8));
  entry.effective_speed =
      0.5 + 0.25 * static_cast<double>(rng.NextBounded(4));
  return entry;
}

// Implementation-independent oracle for the indexed charge: a best-first
// search visits exactly the searched entries ordered before its answer,
// plus the answer; the whole searched set when nothing passes. The own
// stride class is searched first, the sibling classes only after it.
std::size_t IndexedCharge(const SchedulingPolicy& policy,
                          const std::vector<CacheEntry>& cache,
                          const SelectionContext& ctx) {
  const std::uint32_t stride = std::max<std::uint32_t>(1, ctx.instance_count);
  const std::uint32_t own = ctx.instance % stride;
  auto before = [&](std::size_t a, std::size_t b) {
    if (policy.Better(cache[a], cache[b])) return true;
    if (policy.Better(cache[b], cache[a])) return false;
    return a < b;
  };
  auto passes = [&](std::size_t i) {
    return SchedulingPolicy::Eligible(cache[i]) &&
           (!ctx.filter || (*ctx.filter)(i, cache[i]));
  };
  auto charge = [&](bool own_set, bool* found) {
    std::size_t size = 0;
    std::size_t answer = SIZE_MAX;
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if ((i % stride == own) != own_set) continue;
      ++size;
      if (passes(i) && (answer == SIZE_MAX || before(i, answer))) answer = i;
    }
    *found = answer != SIZE_MAX;
    if (!*found) return size;
    std::size_t ahead = 0;
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if ((i % stride == own) == own_set && before(i, answer)) ++ahead;
    }
    return 1 + ahead;
  };
  bool found = false;
  std::size_t examined = charge(true, &found);
  if (!found && stride > 1) examined += charge(false, &found);
  return examined;
}

// Every instance, with and without a filter: the index must choose the
// linear scan's entry and charge the scan's count (linear-*) or the
// oracle's (indexed).
void ExpectIndexMatchesScan(const SchedulingPolicy& policy,
                            const SchedulingIndex& index,
                            const std::vector<CacheEntry>& cache,
                            std::uint32_t stride, const std::string& where) {
  const std::function<bool(std::size_t, const CacheEntry&)> filter =
      [](std::size_t i, const CacheEntry&) { return (i * 7 + 3) % 4 != 0; };
  for (std::uint32_t instance = 0; instance < stride; ++instance) {
    for (const bool filtered : {false, true}) {
      SelectionContext ctx;
      ctx.instance = instance;
      ctx.instance_count = stride;
      if (filtered) ctx.filter = &filter;
      const Selection scan = policy.Select(cache, ctx);
      const Selection sel = index.Select(cache, ctx);
      const std::size_t charge =
          policy.indexed() ? IndexedCharge(policy, cache, ctx) : scan.examined;
      EXPECT_EQ(sel.index, scan.index)
          << where << " instance=" << instance << " filtered=" << filtered;
      EXPECT_EQ(sel.examined, charge)
          << where << " instance=" << instance << " filtered=" << filtered;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Randomized equivalence on mutating caches: allocations, releases and
// monitor-style load changes through Update, with occasional re-sorts
// (a permutation of the cache followed by Rebuild), on caches from
// idle to fully saturated.
TEST(SchedulingIndex, MatchesLinearScanOnRandomTraces) {
  Rng rng(4242);
  for (const char* name : kOrderedPolicies) {
    auto policy = MakePolicy(name);
    ASSERT_TRUE(policy.ok());
    const SchedulingPolicy& scan = **policy;
    for (int trial = 0; trial < 24; ++trial) {
      const std::uint32_t stride = 1 + static_cast<std::uint32_t>(
                                           rng.NextBounded(4));
      const std::size_t n = 1 + rng.NextBounded(trial % 3 == 0 ? 400 : 40);
      const double ineligible_share = 0.25 * static_cast<double>(trial % 5);
      std::vector<CacheEntry> cache;
      for (std::size_t i = 0; i < n; ++i) {
        cache.push_back(RandomEntry(rng, ineligible_share));
      }
      SchedulingIndex index(&scan, 0, stride);
      index.Rebuild(cache);
      for (int step = 0; step < 40; ++step) {
        ExpectIndexMatchesScan(scan, index, cache, stride,
                               std::string(name) + " trial=" +
                                   std::to_string(trial) + " step=" +
                                   std::to_string(step));
        if (::testing::Test::HasFailure()) return;
        const double roll = rng.NextDouble();
        if (roll < 0.05) {
          // Re-sort: any permutation of the cache, then a rebuild.
          for (std::size_t i = n; i > 1; --i) {
            std::swap(cache[i - 1], cache[rng.NextBounded(i)]);
          }
          index.Rebuild(cache);
          continue;
        }
        std::size_t target = rng.NextBounded(n);
        if (roll < 0.5) {
          SelectionContext ctx;
          ctx.instance = static_cast<std::uint32_t>(rng.NextBounded(stride));
          ctx.instance_count = stride;
          const Selection chosen = scan.Select(cache, ctx);
          if (chosen.found()) target = chosen.index;
          cache[target].load += 1.0;  // allocate
        } else if (roll < 0.75) {
          cache[target].load = std::max(0.0, cache[target].load - 1.0);
        } else {
          cache[target] = RandomEntry(rng, ineligible_share);  // monitor
        }
        index.Update(cache, target);
      }
    }
  }
}

// --- the merge re-sort ---

// StableResortOrder against std::stable_sort, the way a re-sorting pool
// drives it: start from an unsorted cache with every position marked,
// then repeatedly change none, some or all entries, mark exactly those,
// and apply the returned permutation. Values are coarse (many ties in
// load, speed and memory) and some entries carry the pool's unusable
// load sentinel.
TEST(StableResortOrder, MatchesStableSortOnRandomCaches) {
  constexpr double kUnusableLoad = 1e18;
  Rng rng(9001);
  std::vector<std::string> names(std::begin(kOrderedPolicies),
                                 std::end(kOrderedPolicies));
  names.push_back("round-robin");
  names.push_back("random");
  auto random_entry = [&rng](bool coarse) {
    CacheEntry entry = RandomEntry(rng, 0.25);
    if (coarse) {
      entry.load = static_cast<double>(rng.NextBounded(3));
      entry.effective_speed = rng.Bernoulli(0.5) ? 1.0 : 2.0;
      entry.available_memory_mb = rng.Bernoulli(0.5) ? 128.0 : 256.0;
    }
    if (rng.Bernoulli(0.1)) entry.load = kUnusableLoad;
    return entry;
  };
  for (const std::string& name : names) {
    auto policy = MakePolicy(name);
    ASSERT_TRUE(policy.ok());
    const SchedulingPolicy& p = **policy;
    for (int trial = 0; trial < 20; ++trial) {
      const bool coarse = trial % 2 == 0;
      const std::size_t n = rng.NextBounded(trial % 4 == 0 ? 300 : 30);
      std::vector<CacheEntry> cache;
      for (std::size_t i = 0; i < n; ++i) cache.push_back(random_entry(coarse));
      std::vector<std::uint32_t> marked(n);
      for (std::uint32_t i = 0; i < n; ++i) marked[i] = i;
      std::vector<std::uint32_t> order;
      for (int step = 0; step < 12; ++step) {
        std::vector<std::uint32_t> expected(n);
        for (std::uint32_t i = 0; i < n; ++i) expected[i] = i;
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return p.Better(cache[a], cache[b]);
                         });
        const bool moved = StableResortOrder(p, cache, &marked, &order);
        const std::string where = name + " trial=" + std::to_string(trial) +
                                  " step=" + std::to_string(step);
        ASSERT_EQ(order, expected) << where;
        EXPECT_EQ(moved, !std::is_sorted(expected.begin(), expected.end()))
            << where;
        std::vector<CacheEntry> sorted;
        for (const std::uint32_t from : order) sorted.push_back(cache[from]);
        cache = std::move(sorted);

        // Next round's marks: none, a random subset, or everything.
        marked.clear();
        const std::uint64_t shape = rng.NextBounded(4);
        for (std::uint32_t i = 0; i < n; ++i) {
          if (shape == 0) continue;
          if (shape == 3 || rng.Bernoulli(0.2)) {
            if (rng.Bernoulli(0.8)) cache[i] = random_entry(coarse);
            marked.push_back(i);
          }
        }
        for (std::size_t i = marked.size(); i > 1; --i) {
          std::swap(marked[i - 1], marked[rng.NextBounded(i)]);
        }
      }
    }
  }
}

// Edge shapes: a stride class with no eligible entry at all (the
// instance must fall through to its siblings), and a class whose only
// eligible entry sorts after every other entry of the class.
TEST(SchedulingIndex, IneligibleAndLastSortingClasses) {
  for (const char* name : kOrderedPolicies) {
    auto policy = MakePolicy(name);
    ASSERT_TRUE(policy.ok());
    const SchedulingPolicy& scan = **policy;
    std::vector<CacheEntry> cache;
    for (int i = 0; i < 90; ++i) {
      // Class 0 (i % 3 == 0): all at the ceiling. Class 1: only the
      // worst-ranked entry (most loaded, least memory, slowest) is
      // eligible. Class 2: all eligible.
      CacheEntry entry = Entry(i % 3 == 2 ? 0.5 : 1.5, 512, 2.0);
      if (i == 88) {
        entry = Entry(3.5, 64, 0.5);
        entry.num_cpus = 8;
      }
      cache.push_back(entry);
    }
    SchedulingIndex index(&scan, 0, 3);
    index.Rebuild(cache);
    ExpectIndexMatchesScan(scan, index, cache, 3, name);
    SelectionContext ctx;
    ctx.instance = 1;
    ctx.instance_count = 3;
    EXPECT_EQ(index.Select(cache, ctx).index, 88u) << name;
  }
}

// A saturated pool: under least-load every overloaded 1-CPU machine
// sorts ahead of the one eligible 8-CPU machine, so the search runs past
// its budget and the reference scan answers, with the same result.
TEST(SchedulingIndex, SaturatedLinearPoolKeepsTheScanAnswer) {
  auto policy = MakePolicy("linear-least-load");
  ASSERT_TRUE(policy.ok());
  std::vector<CacheEntry> cache(2000, Entry(1.5));
  cache[1999] = Entry(3.0);
  cache[1999].num_cpus = 8;
  SchedulingIndex index(policy->get(), 0, 1);
  index.Rebuild(cache);
  const Selection sel = index.Select(cache, SelectionContext{});
  EXPECT_EQ(sel.index, 1999u);
  EXPECT_EQ(sel.examined, 2000u);
}

// The linear-* charge needs no scan: the own stride class when the
// answer lies in it, else the whole cache.
TEST(SchedulingIndex, LinearChargeIsTheScanCount) {
  auto policy = MakePolicy("linear-least-load");
  ASSERT_TRUE(policy.ok());
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 3200; ++i) cache.push_back(Entry(0.1));
  SchedulingIndex index(policy->get(), 0, 2);
  index.Rebuild(cache);
  SelectionContext ctx;
  ctx.instance = 1;
  ctx.instance_count = 2;
  Selection sel = index.Select(cache, ctx);
  EXPECT_EQ(sel.index, 1u);
  EXPECT_EQ(sel.examined, 1600u);
  for (std::size_t i = 1; i < cache.size(); i += 2) {
    cache[i].load = 5.0;
    index.Update(cache, i);
  }
  sel = index.Select(cache, ctx);
  EXPECT_EQ(sel.index, 0u);
  EXPECT_EQ(sel.examined, 3200u);
  EXPECT_EQ(index.Select(std::vector<CacheEntry>{}, ctx).examined, 0u);
}

// The asymptotic win the refactor is for: a mostly-idle pool answers in
// O(1) examined entries instead of O(n).
TEST(SchedulingIndex, ExaminedStaysConstantOnIdlePool) {
  auto policy = MakePolicy("least-load");
  ASSERT_TRUE(policy.ok());
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 3200; ++i) {
    CacheEntry entry;
    entry.load = 0.1;
    entry.effective_speed = 1.0;
    cache.push_back(entry);
  }
  SchedulingIndex index(policy->get(), 0, 1);
  index.Rebuild(cache);
  SelectionContext ctx;
  const Selection linear = (*policy)->Select(cache, ctx);
  const Selection indexed = index.Select(cache, ctx);
  EXPECT_EQ(indexed.index, linear.index);
  EXPECT_EQ(linear.examined, 3200u);
  EXPECT_LE(indexed.examined, 4u);
}

TEST(SchedulingIndex, FallsBackToSiblingStrides) {
  // Only an off-stride entry is eligible; the index must fall back the
  // way the linear scan's second phase does.
  auto policy = MakePolicy("least-load");
  std::vector<CacheEntry> cache;
  for (int i = 0; i < 6; ++i) {
    CacheEntry entry;
    entry.load = (i == 3) ? 0.2 : 5.0;  // index 3 is odd-stride
    cache.push_back(entry);
  }
  SchedulingIndex index(policy->get(), 0, 2);
  index.Rebuild(cache);
  SelectionContext ctx;
  ctx.instance = 0;
  ctx.instance_count = 2;
  const Selection sel = index.Select(cache, ctx);
  ASSERT_TRUE(sel.found());
  EXPECT_EQ(sel.index, 3u);
}

}  // namespace
}  // namespace actyp::sched
