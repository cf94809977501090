// punch_session: the full Fig. 1 user journey, end to end.
//
// A user logs into the network desktop through a browser, picks
// TSUPREM-4 (the paper's example tool) and submits an input deck. The
// application-management component (Fig. 2) extracts parameters,
// estimates the run, ranks algorithms, composes the ActYP query; the
// pipeline aggregates a pool on the fly, allocates a machine + shadow
// account + session key; the virtual file system mounts the application
// and data disks; the run completes and everything is relinquished.
//
//   ./build/examples/punch_session
#include <cstdio>
#include <vector>

#include "actyp/scenario.hpp"
#include "punch/desktop.hpp"

using namespace actyp;

namespace {

// Bridges the synchronous desktop API onto the simulated pipeline: each
// submit posts the query and runs the kernel until the answer arrives.
class SimSubmitter {
 public:
  explicit SimSubmitter(SimScenario* scenario) : scenario_(scenario) {}

  Result<pipeline::Allocation> Submit(const std::string& query_text) {
    struct Inbox final : net::Node {
      void OnMessage(const net::Envelope& env, net::NodeContext&) override {
        replies.push_back(env.message);
      }
      std::vector<net::Message> replies;
    };
    const std::string address = "desktop." + std::to_string(++seq_);
    auto inbox = std::make_shared<Inbox>();
    scenario_->network().AddNode(address, inbox, {"clients", 1});

    net::Message message{net::msg::kQuery};
    message.SetHeader(net::hdr::kReplyTo, address);
    message.SetHeader(net::hdr::kRequestId, std::to_string(seq_));
    message.body = query_text;
    scenario_->network().Post(address, "qm0", std::move(message));
    // Step until the reply lands (the deployment has periodic timers, so
    // the event queue never drains on its own).
    const SimTime deadline = scenario_->kernel().Now() + Seconds(120);
    while (inbox->replies.empty() && scenario_->kernel().Now() < deadline &&
           scenario_->kernel().Step()) {
    }

    if (inbox->replies.empty()) return Unavailable("no reply from pipeline");
    if (inbox->replies[0].type == net::msg::kFailure) {
      return Unavailable(inbox->replies[0].Header(net::hdr::kError));
    }
    return pipeline::ParseAllocationMessage(inbox->replies[0]);
  }

  void Release(const pipeline::Allocation& allocation) {
    scenario_->network().Post(
        "desktop.release", allocation.pool_address,
        pipeline::MakeReleaseMessage(allocation.machine_id,
                                     allocation.session_key));
    scenario_->kernel().RunUntil(scenario_->kernel().Now() + Seconds(1));
  }

 private:
  SimScenario* scenario_;
  int seq_ = 0;
};

}  // namespace

int main() {
  // A 256-machine campus grid; pools are created on demand by the
  // pipeline (the "active" yellow pages at work).
  ScenarioConfig config;
  config.machines = 256;
  config.clusters = 1;
  config.clients = 0;
  config.precreate_pools = false;
  config.seed = 11;
  SimScenario scenario(config);

  // Give the fleet the attributes the demo tools need. The walk holds
  // the database lock, so collect ids first and update after.
  std::vector<db::MachineId> ids;
  scenario.database().ForEach(
      [&ids](const db::MachineRecord& rec) { ids.push_back(rec.id); });
  for (const db::MachineId id : ids) {
    scenario.database().Update(id, [](db::MachineRecord& r) {
      r.params["license"] = "tsuprem4";
      r.params["domain"] = "purdue";
      r.params["memory"] = "1024";
      r.params["arch"] = r.id % 3 == 0 ? "hp" : "sun";
    });
  }

  punch::KnowledgeBase kb = punch::KnowledgeBase::Demo();
  punch::UserRegistry users;
  punch::UserAccount account;
  account.login = "kapadia";
  account.access_group = "ece";
  account.storage_provider = "warehouse";  // remote storage provider (§2)
  users.AddUser(account);
  punch::VirtualFileSystem vfs;

  SimSubmitter submitter(&scenario);
  punch::NetworkDesktop desktop(
      &kb, &users, &vfs,
      [&submitter](const std::string& text) { return submitter.Submit(text); },
      [&submitter](const pipeline::Allocation& a) { submitter.Release(a); });

  std::printf("PUNCH session — user 'kapadia' runs TSUPREM-4\n\n");

  punch::RunRequest request;
  request.tool = "tsuprem4";
  request.user_login = "kapadia";
  request.domain = "purdue";
  request.input_deck =
      "# carrier transport for the given device specs\n"
      "nodes = 20000\n"
      "carriers = 50000\n"
      "devicesize = 0.25\n"
      "norm = 1e-6\n";

  auto outcome = desktop.StartRun(request);
  if (!outcome.ok()) {
    std::printf("run failed: %s\n", outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("algorithm selected : %s\n",
              outcome->estimate.algorithm.c_str());
  std::printf("estimated cpu      : %.0f reference seconds\n",
              outcome->estimate.cpu_units);
  std::printf("estimated memory   : %.0f MB\n", outcome->estimate.memory_mb);
  std::printf("machine            : %s (execution port %u)\n",
              outcome->allocation.machine_name.c_str(),
              outcome->allocation.port);
  std::printf("shadow uid         : %u\n", outcome->allocation.shadow_uid);
  std::printf("session key        : %s\n",
              outcome->allocation.session_key.c_str());
  std::printf("pool               : %s\n",
              outcome->allocation.pool_name.c_str());
  for (const auto& mount : outcome->mounts) {
    std::printf("mounted            : %s -> %s\n", mount.disk.c_str(),
                mount.mount_point.c_str());
  }

  // ... application executes; display routed to the browser via VNC ...

  desktop.FinishRun(*outcome);
  std::printf("\nrun complete: disks unmounted, shadow account and machine "
              "relinquished\n");
  std::printf("directory now holds %zu dynamically created pool(s)\n",
              scenario.directory().PoolNames().size());
  return 0;
}
