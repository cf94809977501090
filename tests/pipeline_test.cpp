// Integration tests for the resource management pipeline stages on the
// discrete-event substrate: resource pools (claiming, allocation,
// release, access control, oversubscription, re-sort), pool managers
// (mapping, instance selection, creation via proxy, delegation with
// TTL), and query managers (routing rules, decomposition).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "db/database.hpp"
#include "db/policy.hpp"
#include "db/shadow.hpp"
#include "directory/directory.hpp"
#include "monitor/monitor.hpp"
#include "pipeline/pool_manager.hpp"
#include "pipeline/proxy.hpp"
#include "pipeline/query_manager.hpp"
#include "pipeline/reintegrator.hpp"
#include "pipeline/resource_pool.hpp"
#include "query/parser.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"

namespace actyp::pipeline {
namespace {

// Captures everything sent to it; used as the "client".
class Probe final : public net::Node {
 public:
  void OnMessage(const net::Envelope& env, net::NodeContext& ctx) override {
    messages.push_back(env.message);
    times.push_back(ctx.Now());
  }
  std::vector<net::Message> messages;
  std::vector<SimTime> times;

  [[nodiscard]] int count(std::string_view type) const {
    int n = 0;
    for (const auto& m : messages) n += (m.type == type);
    return n;
  }
  [[nodiscard]] const net::Message* last(std::string_view type) const {
    for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }
};

// Shared fixture: a sim network, a white-pages database, and helpers.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : network_(&kernel_, simnet::Topology::Lan(), /*seed=*/7) {
    network_.AddHost("alpha", 12);
    probe_ = std::make_shared<Probe>();
    network_.AddNode("probe", probe_, {"alpha", 4});
  }

  void AddMachines(int count, const std::string& arch = "sun",
                   const std::vector<std::string>& user_groups = {}) {
    for (int i = 0; i < count; ++i) {
      db::MachineRecord rec;
      rec.name = arch + std::to_string(next_machine_++);
      rec.params["arch"] = arch;
      rec.dyn.available_memory_mb = 512;
      rec.effective_speed = 1.0;
      rec.user_groups = user_groups;
      rec.execution_unit_port = 7000;
      rec.shadow_pool = "shadow." + arch;
      shadows_.GetOrCreate(rec.shadow_pool, 9000, 64);
      ASSERT_TRUE(database_.Add(std::move(rec)).ok());
    }
  }

  std::shared_ptr<ResourcePool> MakePool(
      const std::string& criteria_text,
      const std::function<void(ResourcePoolConfig&)>& tweak = {}) {
    auto criteria = query::Parser::ParseBasic(criteria_text);
    EXPECT_TRUE(criteria.ok());
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.resort_period = 0;  // tests drive ticks explicitly
    if (tweak) tweak(config);
    auto pool = std::make_shared<ResourcePool>(config, &database_, &directory_,
                                               &shadows_, &policies_);
    return pool;
  }

  net::Message QueryMessage(const std::string& body,
                            std::uint64_t request_id = 1) {
    net::Message m{net::msg::kQuery};
    m.SetHeader(net::hdr::kReplyTo, "probe");
    m.SetHeader(net::hdr::kRequestId, std::to_string(request_id));
    m.body = body;
    return m;
  }

  simnet::SimKernel kernel_;
  simnet::SimNetwork network_;
  db::ResourceDatabase database_;
  db::ShadowAccountRegistry shadows_;
  db::PolicyRegistry policies_;
  directory::DirectoryService directory_;
  std::shared_ptr<Probe> probe_;
  int next_machine_ = 0;
};

constexpr const char* kSunQuery =
    "punch.rsrc.arch = sun\npunch.user.accessgroup = ece\n";

// --- resource pool ---

TEST_F(PipelineTest, PoolClaimsAndRegistersOnStart) {
  AddMachines(10, "sun");
  AddMachines(5, "hp");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  EXPECT_EQ(pool->cache_size(), 10u);
  EXPECT_EQ(database_.free_count(), 5u);  // hp machines remain free
  auto instances = directory_.Lookup(pool->config().pool_name);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].address, "pool0");
  EXPECT_EQ(instances[0].machine_count, 10u);
}

TEST_F(PipelineTest, PoolAllocatesAndReleases) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0", QueryMessage(kSunQuery));
  kernel_.Run();

  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  auto allocation = ParseAllocationMessage(*probe_->last(net::msg::kAllocation));
  ASSERT_TRUE(allocation.ok());
  EXPECT_FALSE(allocation->machine_name.empty());
  EXPECT_FALSE(allocation->session_key.empty());
  EXPECT_EQ(allocation->port, 7000);
  EXPECT_GT(allocation->shadow_uid, 0u);
  EXPECT_EQ(allocation->pool_address, "pool0");
  EXPECT_EQ(allocation->request_id, 1u);
  EXPECT_EQ(pool->stats().allocations, 1u);

  // Release and verify the pool's bookkeeping drains.
  network_.Post("probe", "pool0",
                MakeReleaseMessage(allocation->machine_id,
                                   allocation->session_key));
  kernel_.Run();
  EXPECT_EQ(pool->stats().releases, 1u);
}

TEST_F(PipelineTest, PoolSpreadsLoadAcrossMachines) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  for (int i = 0; i < 4; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 4);
  std::set<std::string> machines;
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kAllocation) {
      machines.insert(m.Header(net::hdr::kMachine));
    }
  }
  // Least-load spreads the four jobs over the four idle machines.
  EXPECT_EQ(machines.size(), 4u);
}

TEST_F(PipelineTest, PoolOversubscribesWhenSaturated) {
  AddMachines(2, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  for (int i = 0; i < 5; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 5);
  EXPECT_GT(pool->stats().oversubscribed, 0u);
}

TEST_F(PipelineTest, PoolFailsWhenOversubscriptionDisabled) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 1));
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

TEST_F(PipelineTest, PoolEnforcesUserGroups) {
  AddMachines(3, "sun", {"faculty"});
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = student\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = faculty\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

TEST_F(PipelineTest, PoolEnforcesUsagePolicy) {
  ASSERT_TRUE(
      policies_.Register("public-load", "deny public if load >= 0.5; allow")
          .ok());
  AddMachines(1, "sun");
  database_.Update(1, [](db::MachineRecord& rec) {
    rec.usage_policy = "public-load";
    rec.dyn.load = 0.9;
  });
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = public\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.user.accessgroup = ece\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

TEST_F(PipelineTest, ReplicasShareMachineSet) {
  AddMachines(8, "sun");
  auto pool0 = MakePool("punch.rsrc.arch = sun\n",
                        [](ResourcePoolConfig& c) {
                          c.instance = 0;
                          c.instance_count = 2;
                        });
  auto pool1 = MakePool("punch.rsrc.arch = sun\n",
                        [](ResourcePoolConfig& c) {
                          c.instance = 1;
                          c.instance_count = 2;
                        });
  network_.AddNode("pool0", pool0, {"alpha", 1});
  network_.AddNode("pool1", pool1, {"alpha", 1});
  EXPECT_EQ(pool0->cache_size(), 8u);
  EXPECT_EQ(pool1->cache_size(), 8u);  // adopted, not re-claimed
  EXPECT_EQ(directory_.Lookup(pool0->config().pool_name).size(), 2u);

  // Replicas avoid picking the same machine thanks to the bias.
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 1));
  network_.Post("probe", "pool1", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_NE(probe_->messages[0].Header(net::hdr::kMachine),
            probe_->messages[1].Header(net::hdr::kMachine));
}

TEST_F(PipelineTest, PoolResortRefreshesFromDatabase) {
  AddMachines(3, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.resort_period = Seconds(1);
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  // Bump machine 1's load in the white pages; after the tick the pool
  // must see it and avoid that machine.
  database_.Update(1, [](db::MachineRecord& rec) { rec.dyn.load = 5.0; });
  kernel_.RunUntil(Seconds(3));

  network_.Post("probe", "pool0", QueryMessage(kSunQuery));
  // The resort timer reschedules forever; run a bounded window instead of
  // draining the queue.
  kernel_.RunUntil(Seconds(5));
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_NE(probe_->last(net::msg::kAllocation)->Header(net::hdr::kMachine),
            database_.Get(1)->name);
}

TEST_F(PipelineTest, DownedMachineExcludedAfterRefresh) {
  AddMachines(3, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.resort_period = Seconds(1);
                         c.allow_oversubscribe = true;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  // Machine 2 dies; the next refresh tick must stop handing it out.
  database_.Update(2, [](db::MachineRecord& rec) {
    rec.state = db::MachineState::kDown;
  });
  kernel_.RunUntil(Seconds(3));

  const std::string downed = database_.Get(2)->name;
  for (int i = 0; i < 6; ++i) {
    network_.Post("probe", "pool0", QueryMessage(kSunQuery, 100 + i));
  }
  kernel_.RunUntil(Seconds(4));
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 6);
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kAllocation) {
      EXPECT_NE(m.Header(net::hdr::kMachine), downed);
    }
  }
}

TEST_F(PipelineTest, PoolShutdownUnregistersAndReleasesClaims) {
  AddMachines(5, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  EXPECT_EQ(database_.free_count(), 0u);

  network_.Post("probe", "pool0", net::Message{net::msg::kShutdown});
  kernel_.Run();
  EXPECT_TRUE(directory_.Lookup(pool->config().pool_name).empty());
  EXPECT_EQ(database_.free_count(), 5u);
}

TEST_F(PipelineTest, PoolRejectsMalformedQuery) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  network_.Post("probe", "pool0", QueryMessage("not a query"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

// --- co-allocation (extension; the 2001 prototype lacked it, §8) ---

TEST_F(PipelineTest, CoAllocationGrantsAtomically) {
  AddMachines(6, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.count = 4\n"));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  const auto* allocation = probe_->last(net::msg::kAllocation);
  const auto machines = SplitSkipEmpty(allocation->Header("machines"), ',');
  EXPECT_EQ(machines.size(), 4u);
  EXPECT_EQ(std::set<std::string>(machines.begin(), machines.end()).size(),
            4u);  // distinct machines

  // One release returns the whole set.
  network_.Post("probe", "pool0",
                MakeReleaseMessage(0, allocation->Header(net::hdr::kSessionKey)));
  kernel_.Run();
  EXPECT_EQ(pool->stats().releases, 1u);

  // After release all six machines are idle again: a second co-allocation
  // of 6 succeeds.
  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.count = 6\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
}

TEST_F(PipelineTest, CoAllocationIsAllOrNothing) {
  AddMachines(2, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.allow_oversubscribe = false;
                       });
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.count = 3\n"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  // Nothing was committed: a 2-machine request still succeeds.
  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.count = 2\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
}

// --- advance reservations (extension; future work in the paper) ---

// The indexed policies must grant exactly the allocations the legacy
// linear scans grant on the same trace: same machines, same queries,
// same interleaved releases (re-sort off, so the cache order is fixed
// and the sched-level equivalence applies end to end).
TEST(PoolPolicyEquivalence, IndexedMatchesLinearOnSameTrace) {
  auto run = [](const std::string& policy_name) {
    simnet::SimKernel kernel;
    simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
    network.AddHost("alpha", 12);
    db::ResourceDatabase database;
    db::ShadowAccountRegistry shadows;
    db::PolicyRegistry policies;
    directory::DirectoryService directory;
    auto probe = std::make_shared<Probe>();
    network.AddNode("probe", probe, {"alpha", 4});
    for (int i = 0; i < 24; ++i) {
      db::MachineRecord rec;
      rec.name = "sun" + std::to_string(i);
      rec.params["arch"] = "sun";
      rec.dyn.load = 0.1 * static_cast<double>(i % 7);
      rec.dyn.available_memory_mb = 256 + 64 * (i % 5);
      rec.effective_speed = 1.0 + 0.5 * static_cast<double>(i % 3);
      EXPECT_TRUE(database.Add(std::move(rec)).ok());
    }
    auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
    EXPECT_TRUE(criteria.ok());
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.resort_period = 0;
    config.policy = policy_name;
    auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                               &shadows, &policies);
    network.AddNode("pool0", pool, {"alpha", 1});

    std::vector<std::string> order;
    std::vector<std::pair<db::MachineId, std::string>> held;
    std::uint64_t request_id = 1;
    for (int step = 0; step < 40; ++step) {
      net::Message query{net::msg::kQuery};
      query.SetHeader(net::hdr::kReplyTo, "probe");
      query.SetHeader(net::hdr::kRequestId, std::to_string(request_id++));
      query.body = "punch.rsrc.arch = sun\n";
      network.Post("probe", "pool0", std::move(query));
      kernel.Run();
      if (const auto* m = probe->last(net::msg::kAllocation)) {
        order.push_back(m->Header(net::hdr::kMachine));
        db::MachineId id = 0;
        if (auto parsed = ParseInt(m->Header(net::hdr::kMachineId))) {
          id = static_cast<db::MachineId>(*parsed);
        }
        held.emplace_back(id, m->Header(net::hdr::kSessionKey));
      }
      if (step % 3 == 2 && !held.empty()) {
        const auto [id, session] = held.front();
        held.erase(held.begin());
        network.Post("probe", "pool0", MakeReleaseMessage(id, session));
        kernel.Run();
      }
    }
    EXPECT_EQ(order.size(), 40u) << policy_name;
    return order;
  };

  EXPECT_EQ(run("least-load"), run("linear-least-load"));
  EXPECT_EQ(run("most-memory"), run("linear-most-memory"));
  EXPECT_EQ(run("fastest"), run("linear-fastest"));
}

// The dirty-id incremental refresh must leave the pool indistinguishable
// from the full sweep: same allocations on the same randomized schedule
// of monitor sweeps, direct white-pages updates, machine down/up churn,
// and interleaved queries/releases — while re-reading only the records
// that actually changed. The full sweep is forced through its real
// trigger: before every step, more than the journal's capacity of
// writes to two machines outside the pool push each pool's cursor below
// the journal floor. The linear-* case runs two replicas over one
// machine set, so sessions (one of them a co-allocation) are released
// after re-sorts have moved their entries.
TEST(PoolRefreshEquivalence, IncrementalMatchesFullSweepUnderChurn) {
  struct RunResult {
    std::vector<std::string> allocations;
    std::vector<PoolStats> stats;
  };
  auto run = [](const std::string& policy, std::uint32_t instances,
                bool flood) {
    simnet::SimKernel kernel;
    simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
    network.AddHost("alpha", 12);
    db::ResourceDatabase database;
    db::ShadowAccountRegistry shadows;
    db::PolicyRegistry policies;
    directory::DirectoryService directory;
    auto probe = std::make_shared<Probe>();
    network.AddNode("probe", probe, {"alpha", 4});
    std::vector<db::MachineId> ids;
    for (int i = 0; i < 30; ++i) {
      db::MachineRecord rec;
      rec.name = "sun" + std::to_string(i);
      rec.params["arch"] = "sun";
      rec.num_cpus = (i % 4 == 1) ? 2 : 1;
      rec.dyn.load = 0.05 * static_cast<double>(i % 9);
      rec.dyn.available_memory_mb = 256;
      ids.push_back(*database.Add(std::move(rec)));
    }
    std::vector<db::MachineId> outside;
    for (int i = 0; i < 2; ++i) {
      db::MachineRecord rec;
      rec.name = "hp" + std::to_string(i);
      rec.params["arch"] = "hp";
      outside.push_back(*database.Add(std::move(rec)));
    }
    monitor::MonitorConfig mon_config;
    mon_config.update_period = Seconds(2);
    monitor::ResourceMonitor monitor(&database, mon_config, Rng(99));

    auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
    EXPECT_TRUE(criteria.ok());
    std::vector<std::shared_ptr<ResourcePool>> pools;
    for (std::uint32_t instance = 0; instance < instances; ++instance) {
      ResourcePoolConfig config;
      config.criteria = *criteria;
      config.pool_name = criteria->PoolName();
      config.policy = policy;
      config.instance = instance;
      config.instance_count = instances;
      config.resort_period = Seconds(1);
      pools.push_back(std::make_shared<ResourcePool>(
          config, &database, &directory, &shadows, &policies));
      network.AddNode("pool" + std::to_string(instance), pools.back(),
                      {"alpha", 1});
    }

    // Rewrites of the outside machines' own dynamic state: only their
    // versions move. Alternating ids keeps each write its own entry.
    std::vector<std::pair<db::MachineId, db::DynamicState>> flood_batch;
    if (flood) {
      for (std::size_t i = 0; i <= db::ResourceDatabase::kJournalCapacity;
           ++i) {
        const db::MachineId id = outside[i % 2];
        flood_batch.emplace_back(id, database.Get(id)->dyn);
      }
    }

    Rng churn(4242);  // same schedule for both modes
    RunResult result;
    struct Held {
      std::string pool;
      db::MachineId id;
      std::string session;
    };
    std::vector<Held> held;
    std::vector<db::MachineId> down;
    std::size_t seen = 0;
    for (int step = 0; step < 60; ++step) {
      const SimTime now = Seconds(0.7 * (step + 1));
      if (flood) database.ApplyDynamic(flood_batch);
      // Random churn against the white pages: load nudges, machines
      // flipping down and back up, periodic monitor sweeps.
      if (churn.NextDouble() < 0.4) {
        const db::MachineId id =
            ids[churn.NextBounded(ids.size())];
        database.Update(id, [&churn](db::MachineRecord& rec) {
          rec.dyn.load = 2.0 * churn.NextDouble();
        });
      }
      if (churn.NextDouble() < 0.15) {
        const db::MachineId id = ids[churn.NextBounded(ids.size())];
        database.Update(id, [](db::MachineRecord& rec) {
          rec.state = db::MachineState::kDown;
        });
        down.push_back(id);
      }
      if (!down.empty() && churn.NextDouble() < 0.3) {
        database.Update(down.back(), [](db::MachineRecord& rec) {
          rec.state = db::MachineState::kUp;
        });
        down.pop_back();
      }
      if (step % 3 == 0) monitor.Step(now);

      const std::string pool = "pool" + std::to_string(step % instances);
      net::Message query{net::msg::kQuery};
      query.SetHeader(net::hdr::kReplyTo, "probe");
      query.SetHeader(net::hdr::kRequestId, std::to_string(step + 1));
      query.body = step == 20 ? "punch.rsrc.arch = sun\npunch.appl.count = 2\n"
                              : "punch.rsrc.arch = sun\n";
      network.Post("probe", pool, std::move(query));
      kernel.RunUntil(now);
      for (; seen < probe->messages.size(); ++seen) {
        const net::Message& m = probe->messages[seen];
        if (m.type != net::msg::kAllocation) continue;
        result.allocations.push_back(m.HasHeader("machines")
                                         ? m.Header("machines")
                                         : m.Header(net::hdr::kMachine));
        const auto id = ParseInt(m.Header(net::hdr::kMachineId));
        held.push_back(Held{pool, static_cast<db::MachineId>(id.value_or(0)),
                            m.Header(net::hdr::kSessionKey)});
      }
      if (held.size() > 4) {
        network.Post("probe", held.front().pool,
                     MakeReleaseMessage(held.front().id, held.front().session));
        held.erase(held.begin());
        kernel.RunUntil(now + Millis(100));
      }
    }
    for (const auto& p : pools) result.stats.push_back(p->stats());
    return result;
  };

  for (const auto& [policy, instances] :
       {std::pair<std::string, std::uint32_t>{"least-load", 1},
        std::pair<std::string, std::uint32_t>{"linear-least-load", 2}}) {
    const RunResult inc = run(policy, instances, false);
    const RunResult full = run(policy, instances, true);
    EXPECT_EQ(inc.allocations, full.allocations) << policy;
    EXPECT_GT(inc.allocations.size(), 30u) << policy;
    ASSERT_EQ(inc.stats.size(), instances);
    ASSERT_EQ(full.stats.size(), instances);
    for (std::uint32_t i = 0; i < instances; ++i) {
      const PoolStats& a = inc.stats[i];
      const PoolStats& b = full.stats[i];
      EXPECT_EQ(a.allocations, b.allocations) << policy << " " << i;
      EXPECT_EQ(a.releases, b.releases) << policy << " " << i;
      EXPECT_EQ(a.entries_examined, b.entries_examined) << policy << " " << i;
      EXPECT_EQ(a.refresh_ticks, b.refresh_ticks) << policy << " " << i;
      ASSERT_GT(b.refresh_ticks, 0u) << policy;
      // The full sweep re-reads the whole 30-entry cache every tick; the
      // dirty-id sweep re-reads only what changed.
      EXPECT_EQ(b.entries_refreshed, b.refresh_ticks * 30u) << policy;
      EXPECT_LT(a.entries_refreshed, b.entries_refreshed / 2) << policy;
    }
  }
}

// A quiet fleet costs a quiet refresh: with no monitor sweeps and no
// white-pages writes, the dirty-id refresh touches zero entries no
// matter how many ticks elapse.
TEST(PoolRefreshEquivalence, QuietTicksRefreshNothing) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("alpha", 12);
  db::ResourceDatabase database;
  directory::DirectoryService directory;
  for (int i = 0; i < 20; ++i) {
    db::MachineRecord rec;
    rec.name = "sun" + std::to_string(i);
    rec.params["arch"] = "sun";
    database.Add(std::move(rec));
  }
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(criteria.ok());
  ResourcePoolConfig config;
  config.criteria = *criteria;
  config.pool_name = criteria->PoolName();
  config.policy = "least-load";
  config.resort_period = Seconds(1);
  auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                             nullptr, nullptr);
  network.AddNode("pool0", pool, {"alpha", 1});
  kernel.RunUntil(Seconds(10));
  EXPECT_GE(pool->stats().refresh_ticks, 9u);
  EXPECT_EQ(pool->stats().entries_refreshed, 0u);
}

// Ids far apart: the pool's slot lookup keeps ids above its bitmap in a
// sorted list. A refresh must still route their changes to the right
// entries and skip the ids of machines it does not own.
TEST(PoolRefreshEquivalence, SparseIdsRefreshLikeDenseOnes) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("alpha", 12);
  db::ResourceDatabase database;
  directory::DirectoryService directory;
  auto probe = std::make_shared<Probe>();
  network.AddNode("probe", probe, {"alpha", 4});
  const std::vector<std::pair<db::MachineId, std::string>> machines = {
      {1, "sun"},      {2, "hp"},           {3, "sun"},
      {70000, "hp"},   {100000, "sun"},     {0xFFFFFFFE, "hp"},
      {0xFFFFFFFF, "sun"}};
  for (const auto& [id, arch] : machines) {
    db::MachineRecord rec;
    rec.id = id;
    rec.name = arch + std::to_string(id);
    rec.params["arch"] = arch;
    rec.dyn.load = 0.5;
    ASSERT_TRUE(database.Add(std::move(rec)).ok());
  }
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(criteria.ok());
  ResourcePoolConfig config;
  config.criteria = *criteria;
  config.pool_name = criteria->PoolName();
  config.policy = "least-load";
  config.resort_period = Seconds(1);
  auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                             nullptr, nullptr);
  network.AddNode("pool0", pool, {"alpha", 1});
  kernel.RunUntil(Millis(500));
  ASSERT_EQ(pool->cache_size(), 4u);

  auto set_load = [&database](db::MachineId id, double load) {
    ASSERT_TRUE(database
                    .Update(id, [load](db::MachineRecord& rec) {
                      rec.dyn.load = load;
                    })
                    .ok());
  };
  std::size_t seen = 0;
  auto allocate = [&]() {
    net::Message query{net::msg::kQuery};
    query.SetHeader(net::hdr::kReplyTo, "probe");
    query.body = "punch.rsrc.arch = sun\n";
    network.Post("probe", "pool0", std::move(query));
    kernel.RunUntil(kernel.Now() + Millis(100));
    std::string machine;
    for (; seen < probe->messages.size(); ++seen) {
      if (probe->messages[seen].type == net::msg::kAllocation) {
        machine = probe->messages[seen].Header(net::hdr::kMachine);
      }
    }
    return machine;
  };
  for (const db::MachineId id : {2u, 70000u, 0xFFFFFFFEu}) set_load(id, 0.0);
  for (const db::MachineId id : {1u, 3u, 100000u}) set_load(id, 0.9);
  set_load(0xFFFFFFFF, 0.1);
  kernel.RunUntil(Millis(1500));  // one tick
  EXPECT_EQ(pool->stats().entries_refreshed, 4u);
  EXPECT_EQ(allocate(), "sun4294967295");

  set_load(100000, 0.0);
  kernel.RunUntil(Millis(2500));
  EXPECT_EQ(pool->stats().entries_refreshed, 5u);
  EXPECT_EQ(allocate(), "sun100000");
}

// A refresh can change what is eligible without moving anything: here
// the 4-CPU machine drops below its load ceiling but still sorts after
// the overloaded 1-CPU one. The re-sort is the identity, yet the
// linear-* pool must rebuild the index the refresh left stale, or the
// query is answered as if every machine were still full.
TEST(PoolRefreshEquivalence, LinearPoolSeesEligibilityChangesThatMoveNothing) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("alpha", 12);
  db::ResourceDatabase database;
  directory::DirectoryService directory;
  auto probe = std::make_shared<Probe>();
  network.AddNode("probe", probe, {"alpha", 4});
  std::vector<db::MachineId> ids;
  for (const auto& [cpus, load] : {std::pair<int, double>{1, 1.5},
                                   std::pair<int, double>{4, 4.5}}) {
    db::MachineRecord rec;
    rec.name = "sun" + std::to_string(ids.size());
    rec.params["arch"] = "sun";
    rec.num_cpus = cpus;
    rec.dyn.load = load;
    ids.push_back(*database.Add(std::move(rec)));
  }
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(criteria.ok());
  ResourcePoolConfig config;
  config.criteria = *criteria;
  config.pool_name = criteria->PoolName();
  config.policy = "linear-least-load";
  config.resort_period = Seconds(1);
  auto pool = std::make_shared<ResourcePool>(config, &database, &directory,
                                             nullptr, nullptr);
  network.AddNode("pool0", pool, {"alpha", 1});
  kernel.RunUntil(Millis(1500));  // first re-sort: sun0, sun1
  ASSERT_TRUE(database
                  .Update(ids[1],
                          [](db::MachineRecord& rec) { rec.dyn.load = 3.5; })
                  .ok());
  kernel.RunUntil(Millis(2500));  // refresh + identity re-sort

  net::Message query{net::msg::kQuery};
  query.SetHeader(net::hdr::kReplyTo, "probe");
  query.body = "punch.rsrc.arch = sun\n";
  network.Post("probe", "pool0", std::move(query));
  kernel.RunUntil(Millis(2600));
  const auto* allocation = probe->last(net::msg::kAllocation);
  ASSERT_NE(allocation, nullptr);
  EXPECT_EQ(allocation->Header(net::hdr::kMachine), "sun1");
  EXPECT_EQ(pool->stats().oversubscribed, 0u);
}

// A saturated pair of linear-least-load replicas, pinned to golden
// allocations and accounting: more clients than capacity, the Fig. 8
// stride bias over a mix of 1- and 4-CPU machines (overloaded 1-CPU
// machines sort ahead of eligible 4-CPU ones), periodic re-sorts that
// reorder the cache between queries, and one co-allocation. Both the
// chosen machines and the modelled scan charge must stay exactly these.
TEST(PoolGolden, SaturatedLinearReplicasKeepTheirAllocations) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), 7);
  network.AddHost("alpha", 12);
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  db::PolicyRegistry policies;
  directory::DirectoryService directory;
  auto probe = std::make_shared<Probe>();
  network.AddNode("probe", probe, {"alpha", 4});
  for (int i = 0; i < 8; ++i) {
    db::MachineRecord rec;
    rec.name = "sun" + std::to_string(i);
    rec.params["arch"] = "sun";
    rec.num_cpus = (i % 4 == 1) ? 4 : 1;
    rec.dyn.load = 0.15 * static_cast<double>(i % 5);
    rec.dyn.available_memory_mb = 256;
    rec.effective_speed = 1.0 + 0.25 * static_cast<double>(i % 3);
    ASSERT_TRUE(database.Add(std::move(rec)).ok());
  }
  auto criteria = query::Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(criteria.ok());
  std::vector<std::shared_ptr<ResourcePool>> pools;
  for (std::uint32_t instance = 0; instance < 2; ++instance) {
    ResourcePoolConfig config;
    config.criteria = *criteria;
    config.pool_name = criteria->PoolName();
    config.policy = "linear-least-load";
    config.instance = instance;
    config.instance_count = 2;
    config.resort_period = Seconds(1);
    pools.push_back(std::make_shared<ResourcePool>(
        config, &database, &directory, &shadows, &policies));
    network.AddNode("pool" + std::to_string(instance), pools.back(),
                    {"alpha", 1});
  }

  struct Held {
    std::string pool;
    db::MachineId id;
    std::string session;
  };
  std::vector<std::string> machines;
  std::vector<Held> held;
  std::size_t seen = 0;
  for (int step = 0; step < 80; ++step) {
    const std::string pool = "pool" + std::to_string(step % 2);
    net::Message query{net::msg::kQuery};
    query.SetHeader(net::hdr::kReplyTo, "probe");
    query.SetHeader(net::hdr::kRequestId, std::to_string(step + 1));
    query.body = step == 20 ? "punch.rsrc.arch = sun\npunch.appl.count = 2\n"
                            : "punch.rsrc.arch = sun\n";
    network.Post("probe", pool, std::move(query));
    kernel.RunUntil(Millis(300) * (step + 1));
    for (; seen < probe->messages.size(); ++seen) {
      const net::Message& m = probe->messages[seen];
      if (m.type != net::msg::kAllocation) continue;
      machines.push_back(m.HasHeader("machines")
                             ? m.Header("machines")
                             : m.Header(net::hdr::kMachine));
      const auto id = ParseInt(m.Header(net::hdr::kMachineId));
      held.push_back(Held{pool, static_cast<db::MachineId>(id.value_or(0)),
                          m.Header(net::hdr::kSessionKey)});
    }
    if (held.size() > 40) {
      network.Post("probe", held.front().pool,
                   MakeReleaseMessage(held.front().id, held.front().session));
      held.erase(held.begin());
    }
  }
  const std::vector<std::string> golden = {
      "sun0", "sun5", "sun6", "sun1", "sun5", "sun6", "sun2", "sun2",
      "sun1", "sun3", "sun3", "sun7", "sun7", "sun5", "sun4", "sun4",
      "sun5", "sun1", "sun1", "sun5", "sun5,sun1", "sun5", "sun5", "sun0",
      "sun1", "sun1", "sun0", "sun1", "sun6", "sun0", "sun2", "sun6",
      "sun7", "sun2", "sun3", "sun7", "sun4", "sun3", "sun0", "sun4",
      "sun6", "sun0", "sun0", "sun5", "sun6", "sun1", "sun5", "sun6",
      "sun2", "sun2", "sun1", "sun3", "sun3", "sun7", "sun7", "sun5",
      "sun4", "sun4", "sun5", "sun1", "sun1", "sun5", "sun5", "sun5",
      "sun5", "sun0", "sun1", "sun1", "sun1", "sun1", "sun0", "sun0",
      "sun2", "sun6", "sun7", "sun2", "sun3", "sun7", "sun4", "sun3"};
  EXPECT_EQ(machines, golden);
  struct Golden {
    std::uint64_t queries, allocations, failures, oversubscribed, examined,
        releases;
  };
  const Golden stats[] = {{40, 40, 0, 19, 420, 20}, {40, 40, 0, 18, 404, 19}};
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const PoolStats& got = pools[i]->stats();
    EXPECT_EQ(got.queries, stats[i].queries) << i;
    EXPECT_EQ(got.allocations, stats[i].allocations) << i;
    EXPECT_EQ(got.failures, stats[i].failures) << i;
    EXPECT_EQ(got.oversubscribed, stats[i].oversubscribed) << i;
    EXPECT_EQ(got.entries_examined, stats[i].examined) << i;
    EXPECT_EQ(got.releases, stats[i].releases) << i;
  }
}

TEST(ReservationBookUnit, BookConflictCancelPrune) {
  ReservationBook book;
  EXPECT_TRUE(book.IsFree(1, Seconds(10), Seconds(20)));
  ASSERT_TRUE(book.Book(1, Seconds(10), Seconds(20), "sess-a").ok());
  // Overlapping windows conflict; touching windows do not.
  EXPECT_FALSE(book.IsFree(1, Seconds(15), Seconds(25)));
  EXPECT_FALSE(book.Book(1, Seconds(19), Seconds(21), "sess-b").ok());
  EXPECT_TRUE(book.Book(1, Seconds(20), Seconds(30), "sess-b").ok());
  EXPECT_TRUE(book.Book(2, Seconds(10), Seconds(20), "sess-b").ok());
  EXPECT_EQ(book.total(), 3u);
  EXPECT_EQ(book.CountFor(1), 2u);

  EXPECT_EQ(book.Cancel("sess-b"), 2u);
  EXPECT_TRUE(book.IsFree(1, Seconds(20), Seconds(30)));

  EXPECT_EQ(book.Prune(Seconds(20)), 1u);  // sess-a's window ended
  EXPECT_EQ(book.total(), 0u);
}

TEST(ReservationBookUnit, RejectsBadWindows) {
  ReservationBook book;
  EXPECT_FALSE(book.Book(1, Seconds(10), Seconds(10), "s").ok());
  EXPECT_FALSE(book.Book(1, Seconds(20), Seconds(10), "s").ok());
  EXPECT_FALSE(book.Book(1, Seconds(10), Seconds(20), "").ok());
}

TEST_F(PipelineTest, AdvanceReservationBooksFutureWindow) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  auto reserve = [&](double start_s, std::uint64_t id) {
    return QueryMessage("punch.rsrc.arch = sun\n"
                        "punch.appl.starttime = " +
                            std::to_string(start_s) +
                            "\n"
                            "punch.appl.duration = 100\n",
                        id);
  };
  network_.Post("probe", "pool0", reserve(1000, 1));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  const auto* granted = probe_->last(net::msg::kAllocation);
  EXPECT_EQ(granted->Header("reserved-start"), "1000.000000");
  EXPECT_EQ(pool->stats().reservations, 1u);

  // The single machine is booked for [1000, 1100): an overlapping
  // reservation fails, a later one succeeds.
  network_.Post("probe", "pool0", reserve(1050, 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  network_.Post("probe", "pool0", reserve(1100, 3));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);

  // Reservations do not consume present capacity: an immediate query
  // still allocates now.
  network_.Post("probe", "pool0", QueryMessage(kSunQuery, 4));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 3);
}

TEST_F(PipelineTest, ReservationCancelFreesWindow) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.starttime = 500\n"
                             "punch.appl.duration = 1000\n",
                             1));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  const std::string session =
      probe_->last(net::msg::kAllocation)->Header(net::hdr::kSessionKey);

  network_.Post("probe", "pool0", MakeReleaseMessage(0, session));
  kernel_.Run();

  // The freed window can be rebooked.
  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.starttime = 600\n"
                             "punch.appl.duration = 100\n",
                             2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(probe_->count(net::msg::kFailure), 0);
}

TEST_F(PipelineTest, PastReservationRejected) {
  AddMachines(1, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});
  kernel_.RunUntil(Seconds(100));
  network_.Post("probe", "pool0",
                QueryMessage("punch.rsrc.arch = sun\n"
                             "punch.appl.starttime = 50\n"
                             "punch.appl.duration = 10\n"));
  kernel_.RunUntil(Seconds(101));
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

// --- pool manager ---

TEST_F(PipelineTest, PoolManagerForwardsToExistingPool) {
  AddMachines(4, "sun");
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage(kSunQuery));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(pm->stats().forwarded, 1u);
}

TEST_F(PipelineTest, PoolManagerCreatesPoolThroughProxy) {
  AddMachines(6, "sun");

  ProxyConfig proxy_config;
  proxy_config.host = "alpha";
  proxy_config.pool_resort_period = 0;  // keep the event queue drainable
  auto proxy = std::make_shared<ProxyServer>(proxy_config, &network_,
                                             &database_, &directory_,
                                             &shadows_, &policies_);
  network_.AddNode("proxy", proxy, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.proxies = {"proxy"};
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage(kSunQuery));
  kernel_.Run();

  // The pool was created on the fly, answered the query, and is now
  // registered for future queries.
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(proxy->stats().pools_created, 1u);
  EXPECT_EQ(directory_.pool_count(), 1u);

  // Second query hits the existing pool (no second creation).
  network_.Post("probe", "pm0", QueryMessage(kSunQuery, 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(proxy->stats().pools_created, 1u);
}

TEST_F(PipelineTest, DistinctSignaturesCreateDistinctPools) {
  AddMachines(4, "sun");
  AddMachines(4, "hp");

  ProxyConfig proxy_config;
  proxy_config.host = "alpha";
  proxy_config.pool_resort_period = 0;  // keep the event queue drainable
  network_.AddNode("proxy",
                   std::make_shared<ProxyServer>(proxy_config, &network_,
                                                 &database_, &directory_,
                                                 &shadows_, &policies_),
                   {"alpha", 1});
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.proxies = {"proxy"};
  network_.AddNode("pm0", std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  network_.Post("probe", "pm0", QueryMessage("punch.rsrc.arch = sun\n", 1));
  network_.Post("probe", "pm0", QueryMessage("punch.rsrc.arch = hp\n", 2));
  network_.Post("probe", "pm0",
                QueryMessage("punch.rsrc.arch = sun\npunch.rsrc.memory = >=256\n", 3));
  kernel_.Run();
  // Three distinct pool names: arch==sun, arch==hp, arch+memory.
  EXPECT_EQ(directory_.PoolNames().size(), 3u);
  // The first two queries allocate. The third maps to a new pool whose
  // criteria overlap arch==sun — but those machines are already marked
  // taken, so its white-pages walk comes up empty and the query fails:
  // claims are exclusive (§5.2.3).
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
}

TEST_F(PipelineTest, DelegationReachesPeerPoolManager) {
  AddMachines(4, "sun");
  // pm1 owns the pool; pm0 cannot create and must delegate to pm1.
  auto pool = MakePool("punch.rsrc.arch = sun\n");
  network_.AddNode("pool0", pool, {"alpha", 1});

  PoolManagerConfig pm0_config;
  pm0_config.name = "pm0";
  pm0_config.allow_create = false;
  auto pm0 = std::make_shared<PoolManager>(pm0_config, &directory_);

  PoolManagerConfig pm1_config;
  pm1_config.name = "pm1";
  pm1_config.allow_create = false;
  auto pm1 = std::make_shared<PoolManager>(pm1_config, &directory_);

  network_.AddNode("pm0", pm0, {"alpha", 1});
  network_.AddNode("pm1", pm1, {"alpha", 1});

  // Make pm0 blind to the pool: use a second directory for it.
  // (Simpler: both share the directory here, so instead verify the
  // delegation path by sending a query that maps to a missing pool and
  // checking it bounces pm0 -> pm1 -> failure with both visited.)
  network_.Post("probe", "pm0",
                QueryMessage("punch.rsrc.arch = vax\n"));
  kernel_.Run();
  ASSERT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(pm0->stats().delegated + pm1->stats().delegated, 1u);
  const std::string error =
      probe_->last(net::msg::kFailure)->Header(net::hdr::kError);
  EXPECT_NE(error.find("no unvisited pool manager"), std::string::npos);
}

TEST_F(PipelineTest, TtlBoundsDelegationChain) {
  // Ring of pool managers, none able to create: the query's TTL must
  // stop the walk.
  for (int i = 0; i < 12; ++i) {
    PoolManagerConfig config;
    config.name = "pm" + std::to_string(i);
    config.allow_create = false;
    network_.AddNode(config.name,
                     std::make_shared<PoolManager>(config, &directory_),
                     {"alpha", 1});
  }
  auto q = query::Parser::ParseBasic("punch.rsrc.arch = vax\n");
  ASSERT_TRUE(q.ok());
  q->set_ttl(3);
  net::Message m{net::msg::kQuery};
  m.SetHeader(net::hdr::kReplyTo, "probe");
  m.SetHeader(net::hdr::kRequestId, "9");
  m.body = q->ToText();
  network_.Post("probe", "pm0", std::move(m));
  kernel_.Run();

  ASSERT_EQ(probe_->count(net::msg::kFailure), 1);
  const std::string error =
      probe_->last(net::msg::kFailure)->Header(net::hdr::kError);
  EXPECT_NE(error.find("TTL expired"), std::string::npos);
}

// --- query manager ---

// Fragment bookkeeping travels on headers: QoS duplicates of one
// alternative share a single serialized body (no per-fragment
// actyp.meta.* rewrite), with fragment coordinates, sched hints, and
// the TTL all carried as message headers.
TEST_F(PipelineTest, QueryManagerCarriesFragmentStateOnHeaders) {
  QueryManagerConfig config;
  config.name = "qm";
  config.default_pool_managers = {"probe"};
  config.reintegrator = "probe";
  config.qos_fanout = 2;
  auto qm = std::make_shared<QueryManager>(config);
  network_.AddNode("qm", qm, {"alpha", 1});

  network_.Post("probe", "qm", QueryMessage(kSunQuery, 7));
  kernel_.Run();

  std::vector<const net::Message*> fragments;
  for (const auto& m : probe_->messages) {
    if (m.type == net::msg::kQuery) fragments.push_back(&m);
  }
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0]->Header(phdr::kFragment), "0/2");
  EXPECT_EQ(fragments[1]->Header(phdr::kFragment), "1/2");
  EXPECT_EQ(fragments[0]->Header(phdr::kSchedHints), "1");
  EXPECT_EQ(fragments[0]->Header(phdr::kTtl), "8");
  EXPECT_EQ(fragments[0]->Header(phdr::kAccessGroup), "ece");
  // A basic query's body is forwarded verbatim — shared across the
  // duplicates, no actyp.meta.* stamped in.
  EXPECT_EQ(fragments[0]->body, fragments[1]->body);
  EXPECT_EQ(fragments[0]->body, kSunQuery);
  EXPECT_EQ(fragments[0]->body.find("actyp.meta."), std::string::npos);
}

// Delegation state travels on headers too: each hop appends itself to
// the visited header, decrements the TTL header, and forwards the body
// untouched.
TEST_F(PipelineTest, DelegationTracksTtlAndVisitedOnHeaders) {
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});
  // A probe masquerading as the peer pool manager captures the
  // delegated message.
  directory::PoolManagerEntry peer;
  peer.name = "pm-peer";
  peer.address = "probe";
  ASSERT_TRUE(directory_.RegisterPoolManager(peer).ok());

  const std::string body = "punch.rsrc.arch = vax\n";
  network_.Post("probe", "pm0", QueryMessage(body, 5));
  kernel_.Run();

  const auto* delegated = probe_->last(net::msg::kQuery);
  ASSERT_NE(delegated, nullptr);
  EXPECT_EQ(delegated->Header(phdr::kTtl), "7");  // default 8, one hop
  EXPECT_EQ(delegated->Header(phdr::kVisited), "pm0");
  EXPECT_EQ(delegated->body, body);  // no re-serialization
}

TEST_F(PipelineTest, QueryManagerRoutesByParameterRule) {
  AddMachines(3, "sun");
  AddMachines(3, "hp");
  auto sun_pool = MakePool("punch.rsrc.arch = sun\n");
  auto hp_pool = MakePool("punch.rsrc.arch = hp\n");
  network_.AddNode("pool.sun", sun_pool, {"alpha", 1});
  network_.AddNode("pool.hp", hp_pool, {"alpha", 1});

  PoolManagerConfig pm_sun;
  pm_sun.name = "pm.sun";
  pm_sun.allow_create = false;
  pm_sun.allow_delegate = false;
  PoolManagerConfig pm_hp;
  pm_hp.name = "pm.hp";
  pm_hp.allow_create = false;
  pm_hp.allow_delegate = false;
  auto pm_sun_node = std::make_shared<PoolManager>(pm_sun, &directory_);
  auto pm_hp_node = std::make_shared<PoolManager>(pm_hp, &directory_);
  network_.AddNode("pm.sun", pm_sun_node, {"alpha", 1});
  network_.AddNode("pm.hp", pm_hp_node, {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.rules = {{"arch", "sun", {"pm.sun"}}, {"arch", "hp", {"pm.hp"}}};
  qm_config.default_pool_managers = {"pm.sun"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});

  network_.Post("probe", "qm0", QueryMessage("punch.rsrc.arch = hp\n", 1));
  network_.Post("probe", "qm0", QueryMessage("punch.rsrc.arch = sun\n", 2));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 2);
  EXPECT_EQ(pm_hp_node->stats().queries, 1u);
  EXPECT_EQ(pm_sun_node->stats().queries, 1u);
}

TEST_F(PipelineTest, CompositeQueryReintegrates) {
  AddMachines(3, "sun");
  AddMachines(3, "hp");
  network_.AddNode("pool.sun", MakePool("punch.rsrc.arch = sun\n"),
                   {"alpha", 1});
  network_.AddNode("pool.hp", MakePool("punch.rsrc.arch = hp\n"),
                   {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  ReintegratorConfig reint_config;
  reint_config.name = "reint";
  reint_config.sweep_period = 0;
  auto reint = std::make_shared<Reintegrator>(reint_config);
  network_.AddNode("reint", reint, {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  qm_config.reintegrator = "reint";
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});

  // "sun or hp": both fragments allocate; the reintegrator forwards the
  // better one and releases the loser.
  network_.Post("probe", "qm0",
                QueryMessage("punch.rsrc.arch = sun|hp\n", 42));
  kernel_.Run();

  EXPECT_EQ(qm->stats().composites, 1u);
  EXPECT_EQ(qm->stats().fragments, 2u);
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(reint->stats().completed, 1u);
  EXPECT_EQ(reint->stats().released_duplicates, 1u);
  EXPECT_EQ(reint->open_requests(), 0u);
  // The released machine's pool got its release message.
  EXPECT_EQ(probe_->last(net::msg::kAllocation)
                ->Header(net::hdr::kRequestId),
            "42");
}

TEST_F(PipelineTest, QueryManagerFailsUnroutableQuery) {
  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  // No rules, no defaults.
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});
  network_.Post("probe", "qm0", QueryMessage(kSunQuery));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(qm->stats().routing_failures, 1u);
}

TEST_F(PipelineTest, QueryManagerReportsParseErrors) {
  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  network_.AddNode("qm0", qm, {"alpha", 1});
  network_.Post("probe", "qm0", QueryMessage("garbage query text"));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 1);
  EXPECT_EQ(qm->stats().parse_failures, 1u);
}

TEST_F(PipelineTest, QueryManagerTranslatorHook) {
  AddMachines(2, "sun");
  network_.AddNode("pool.sun", MakePool("punch.rsrc.arch = sun\n"),
                   {"alpha", 1});
  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  network_.AddNode("pm0",
                   std::make_shared<PoolManager>(pm_config, &directory_),
                   {"alpha", 1});

  QueryManagerConfig qm_config;
  qm_config.name = "qm0";
  qm_config.default_pool_managers = {"pm0"};
  auto qm = std::make_shared<QueryManager>(qm_config);
  qm->RegisterTranslator("toy", [](const std::string& text) -> Result<std::string> {
    if (text == "want sun") return std::string("punch.rsrc.arch = sun\n");
    return InvalidArgument("toy: cannot translate");
  });
  network_.AddNode("qm0", qm, {"alpha", 1});

  net::Message m = QueryMessage("want sun");
  m.SetHeader("language", "toy");
  network_.Post("probe", "qm0", std::move(m));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kAllocation), 1);

  net::Message bad = QueryMessage("want vax", 2);
  bad.SetHeader("language", "toy");
  network_.Post("probe", "qm0", std::move(bad));
  net::Message unknown = QueryMessage("x", 3);
  unknown.SetHeader("language", "martian");
  network_.Post("probe", "qm0", std::move(unknown));
  kernel_.Run();
  EXPECT_EQ(probe_->count(net::msg::kFailure), 2);
  EXPECT_EQ(qm->stats().translation_failures, 2u);
}

// --- split pools (Fig. 7 machinery) ---

TEST_F(PipelineTest, SplitPoolFansOutAndAggregates) {
  AddMachines(8, "sun");
  auto seg0 = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.instance = 0;
                         c.segment = true;
                         c.claim_name = c.pool_name + "#0";
                         c.claim_limit = 4;
                       });
  network_.AddNode("pool.s0", seg0, {"alpha", 1});
  auto seg1 = MakePool("punch.rsrc.arch = sun\n",
                       [](ResourcePoolConfig& c) {
                         c.instance = 1;
                         c.segment = true;
                         c.claim_name = c.pool_name + "#1";
                         c.claim_limit = 0;
                       });
  network_.AddNode("pool.s1", seg1, {"alpha", 1});
  EXPECT_EQ(seg0->cache_size(), 4u);
  EXPECT_EQ(seg1->cache_size(), 4u);  // disjoint partition

  ReintegratorConfig reint_config;
  reint_config.name = "reint";
  reint_config.sweep_period = 0;
  auto reint = std::make_shared<Reintegrator>(reint_config);
  network_.AddNode("reint", reint, {"alpha", 1});

  PoolManagerConfig pm_config;
  pm_config.name = "pm0";
  pm_config.allow_create = false;
  pm_config.allow_delegate = false;
  pm_config.reintegrator = "reint";
  auto pm = std::make_shared<PoolManager>(pm_config, &directory_);
  network_.AddNode("pm0", pm, {"alpha", 1});

  net::Message m = QueryMessage(kSunQuery, 7);
  m.SetHeader(phdr::kFinalReplyTo, "probe");
  network_.Post("probe", "pm0", std::move(m));
  kernel_.Run();

  EXPECT_EQ(pm->stats().fanouts, 1u);
  EXPECT_EQ(seg0->stats().queries + seg1->stats().queries, 2u);
  ASSERT_EQ(probe_->count(net::msg::kAllocation), 1);
  EXPECT_EQ(reint->stats().released_duplicates, 1u);
}

}  // namespace
}  // namespace actyp::pipeline
