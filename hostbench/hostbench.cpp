// hostbench: host cost of the simulator that produces the paper's
// figures. It drives the library from outside — builds a
// ScenarioConfig from a workload name and a seed, constructs a
// SimScenario, calls Measure — and times what the host pays for it.
//
//   hostbench --workload <wan_lp|lan_indexed|wan_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--expect <digest>]
//
// --trace 0 repeats the cell single-threaded until --seconds have
// passed and reports the end-to-end metrics as medians over the
// repetitions. --trace 1 runs the layer pass instead: untraced, traced
// (flight recorder on, sampled window) and 2-worker repetitions of the same cell, then replays that time the
// public entry points of each module in isolation. Every repetition is
// checked (timer accounting, request accounting, identical sim report
// across repetitions, tracing modes and worker counts); --expect also
// pins the sim report's digest. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a failed check prints
// correct false (and ok_ratio 0 in the end-to-end pass) and exits 1.
// Host times are scaled to a reference machine speed (see
// CalibrationSeconds). See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "actyp/scenario.hpp"
#include "chaos/invariants.hpp"
#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/shadow.hpp"
#include "net/message.hpp"
#include "pipeline/protocol.hpp"
#include "profile/stage_profiler.hpp"
#include "query/parser.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"
#include "simnet/kernel.hpp"
#include "simnet/sim_network.hpp"
#include "workload/generator.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator new in the process lands
// here; end-to-end runs are single-threaded, so counts are exact.
// ---------------------------------------------------------------------------
namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment *
      alignment;
  return std::aligned_alloc(alignment, rounded);
}

// Out of line so the compiler does not pair the inlined free() with the
// inlined operator new and flag a malloc/delete mismatch.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace actyp::hostbench {
namespace {

using WallClock = std::chrono::steady_clock;

// Median time of CalibrationSeconds() on the reference box (4-vCPU
// Intel Xeon VM, g++ 12 -O3). End-to-end host times are reported at
// this reference speed; see CalibrationSeconds.
constexpr double kReferenceCalibrationS = 0.02;
// Chunks the measure window of a traced repetition is advanced in.
constexpr std::size_t kTracedChunks = 50;

std::uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

double Elapsed(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

// A fixed loop shaped like the simulator's hot paths: small string
// allocations, string-keyed hash lookups, heap push/pop. On a shared
// host the speed of the machine drifts by tens of percent over minutes
// (co-tenant load, clock changes), moving every host time of a run in
// the same direction. Each repetition is bracketed by this loop and its
// host times are scaled by kReferenceCalibrationS / (loop time), which
// cancels that drift; the raw times are printed beside them. The loop
// is the benchmark's own code, so a change to the program never moves
// it.
double CalibrationSeconds() {
  const auto t0 = WallClock::now();
  std::unordered_map<std::string, std::uint64_t> counts;
  std::vector<std::uint64_t> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 150000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += ++counts["machine-" + std::to_string(x % 5000)];
    heap.push_back(x >> 20);
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 256) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  const double seconds = Elapsed(t0);
  // Keeps the loop's result live.
  return acc == 0 ? seconds + 1 : seconds;
}

// ---------------------------------------------------------------------------
// Workloads. Each is a closed-loop simulated deployment; host-side it is
// a batch job whose size is fixed by the config below.
// ---------------------------------------------------------------------------
struct Workload {
  std::string name;
  ScenarioConfig config;
  SimDuration warmup = 0;
  SimDuration measure = 0;
};

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  Workload w;
  w.name = name;
  ScenarioConfig& c = w.config;
  std::uint64_t state = seed;
  c.seed = SplitMix64(state);
  if (name == "wan_lp") {
    // big_wan's shape: 8 LP sites, 40k machines, 32 clusters, the
    // paper's O(n) scan; run on one worker.
    c.machines = 40000;
    c.clusters = 32;
    c.wan_sites = 8;
    c.query_managers = 2;
    c.pool_managers = 2;
    c.clients = 96;
    c.policy = "linear-least-load";
    w.warmup = Seconds(3);
    w.measure = Seconds(15);
  } else if (name == "lan_indexed") {
    // One LAN site, indexed selection, several QMs/PMs, no faults.
    c.machines = 20000;
    c.clusters = 8;
    c.query_managers = 4;
    c.pool_managers = 4;
    c.clients = 64;
    c.policy = "least-load";
    w.warmup = Seconds(2);
    w.measure = Seconds(4);
  } else if (name == "wan_churn") {
    // Serial two-host WAN build with a replicated directory, machine and
    // pool churn, a loss window, retries and client give-up timers.
    c.machines = 16000;
    c.clusters = 4;
    c.pool_replicas = 2;
    c.wan = true;
    c.directory_replicas = 2;
    c.clients = 96;
    c.retry_max = 8;
    c.retry_backoff = Millis(250);
    c.client_request_timeout = Seconds(3);
    c.fault_plan.AddChurn(1.0, Seconds(5), "machines");
    c.fault_plan.AddChurn(0.1, Seconds(2), "pool.*", Seconds(4));
    c.fault_plan.AddLossWindow(0.02, Seconds(6), Seconds(12));
    w.warmup = Seconds(3);
    w.measure = Seconds(20);
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// One repetition of a workload cell.
// ---------------------------------------------------------------------------

// The deterministic part of a run: equal for every repetition of one
// seed, traced or not, at any LP worker count.
struct SimReport {
  std::uint64_t attempts = 0;  // interactions that ended in the window
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  std::uint64_t events = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::array<std::uint64_t, profile::kStageCount> stage_count{};
  std::array<double, profile::kStageCount> stage_p99_ms{};

  [[nodiscard]] std::string Text() const {
    std::string out;
    char buf[96];
    auto add = [&](const char* key, double value) {
      std::snprintf(buf, sizeof(buf), "%s%s=%.17g", out.empty() ? "" : ";",
                    key, value);
      out += buf;
    };
    add("attempts", static_cast<double>(attempts));
    add("completed", static_cast<double>(completed));
    add("failures", static_cast<double>(failures));
    add("events", static_cast<double>(events));
    add("p50_ms", p50_ms);
    add("p99_ms", p99_ms);
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      const std::string stage(
          profile::StageName(static_cast<profile::Stage>(i)));
      add((stage + "_n").c_str(), static_cast<double>(stage_count[i]));
      add((stage + "_p99_ms").c_str(), stage_p99_ms[i]);
    }
    return out;
  }

  // FNV-1a over Text(): the digest pinned for the default seed.
  [[nodiscard]] std::string Digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : Text()) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

struct Rep {
  SimReport report;
  std::vector<std::string> violations;
  // Host cost.
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  double warmup_s = 0;
  double measure_s = 0;
  double teardown_s = 0;
  // Mean CalibrationSeconds() just before and after the repetition, and
  // the factor that scales its host times to the reference speed.
  double calibration_s = 0;
  double speed = 1;
  std::uint64_t build_allocs = 0;
  std::uint64_t run_allocs = 0;     // warmup + measure window
  std::uint64_t window_allocs = 0;  // measure window only
  // Layer counters (whole run unless noted).
  std::uint64_t scheduled = 0;  // shard-0 kernel
  std::uint64_t cancelled = 0;  // shard-0 kernel
  double pending_mean = 0;      // sampled over the window
  std::uint64_t messages = 0;   // delivered, summed over known nodes
  std::uint64_t lost = 0;
  std::uint64_t interactions = 0;  // client allocations + failures
  std::uint64_t sent = 0;
  std::uint64_t retries = 0;
  pipeline::PoolStats pool;
  replica::ReplicaGroupStats replica;
  std::uint64_t fault_strikes = 0;
};

// Every node address the scenario's Build paths use; unknown ones read as
// zero, so listing a superset is harmless.
std::vector<std::string> NodeAddresses(SimScenario& scenario) {
  const ScenarioConfig& c = scenario.config();
  std::vector<std::string> prefixes;
  if (scenario.lp_mode()) {
    for (std::size_t k = 0; k < c.wan_sites; ++k) {
      prefixes.push_back("site" + std::to_string(k) + ".");
    }
  } else {
    prefixes.push_back("");
  }
  std::vector<std::string> out;
  for (const std::string& p : prefixes) {
    out.push_back(p + "monitor");
    out.push_back(p + "reint");
    out.push_back(p + "proxy");
    for (std::size_t i = 0; i < std::max<std::size_t>(1, c.query_managers);
         ++i) {
      out.push_back(p + "qm" + std::to_string(i));
    }
    for (std::size_t i = 0; i < std::max<std::size_t>(1, c.pool_managers);
         ++i) {
      out.push_back(p + "pm" + std::to_string(i));
    }
  }
  for (const auto& [address, pool] : scenario.LivePools()) {
    out.push_back(address);
  }
  for (std::size_t i = 0; i < c.clients; ++i) {
    out.push_back("client" + std::to_string(i));
  }
  return out;
}

std::uint64_t ClientTerminals(const SimScenario& scenario) {
  std::uint64_t n = 0;
  for (const auto& client : scenario.clients()) {
    n += client->stats().allocations + client->stats().failures;
  }
  return n;
}

// Runs one repetition. A traced repetition turns the flight recorder
// on and advances the measure window in kTracedChunks chunks, sampling
// the pending-event depth between them; an untraced one samples only
// the window's two ends.
Rep RunRep(const Workload& workload, std::size_t cell_jobs, bool traced) {
  Rep rep;
  ScenarioConfig config = workload.config;
  config.cell_jobs = cell_jobs;
  config.flight_recorder = traced;
  const std::size_t chunks = traced ? kTracedChunks : 1;

  const std::uint64_t allocs_before_build = Allocs();
  auto t0 = WallClock::now();
  auto scenario = std::make_unique<SimScenario>(std::move(config));
  rep.setup_s = Elapsed(t0);
  rep.build_allocs = Allocs() - allocs_before_build;

  std::uint64_t window_start_terminals = 0;
  double pending_sum = 0;
  std::size_t pending_samples = 0;
  WallClock::time_point window_start;
  std::uint64_t window_allocs = 0;
  const SimDuration interval = std::max<SimDuration>(
      1, workload.measure / static_cast<SimDuration>(chunks));
  const std::uint64_t allocs_before_run = Allocs();
  const double cpu_before = ProcessCpuSeconds();
  t0 = WallClock::now();
  scenario->Measure(
      workload.warmup, workload.measure, interval, [&](SimTime) {
        if (pending_samples == 0) {
          window_start = WallClock::now();
          window_allocs = Allocs();
          window_start_terminals = ClientTerminals(*scenario);
        }
        pending_sum +=
            static_cast<double>(scenario->network().pending_events());
        ++pending_samples;
      });
  rep.run_s = Elapsed(t0);
  rep.cpu_s = ProcessCpuSeconds() - cpu_before;
  rep.run_allocs = Allocs() - allocs_before_run;
  rep.window_allocs = Allocs() - window_allocs;
  rep.warmup_s = std::chrono::duration<double>(window_start - t0).count();
  rep.measure_s = rep.run_s - rep.warmup_s;
  rep.pending_mean = Ratio(pending_sum, static_cast<double>(pending_samples));

  // --- the deterministic report ---
  SimScenario& s = *scenario;
  workload::ResponseCollector& collector = s.collector();
  SimReport& r = rep.report;
  r.completed = collector.completed();
  r.failures = collector.failures();
  r.attempts = ClientTerminals(s) - window_start_terminals;
  r.events = s.total_events();
  r.p50_ms = collector.QuantileSeconds(0.50) * 1e3;
  r.p99_ms = collector.QuantileSeconds(0.99) * 1e3;
  if (const profile::StageProfiler* profiler = s.profiler()) {
    for (std::size_t i = 0; i < profile::kStageCount; ++i) {
      const profile::StageSummary summary =
          profiler->Summary(static_cast<profile::Stage>(i));
      r.stage_count[i] = summary.count;
      r.stage_p99_ms[i] = summary.p99_s * 1e3;
    }
  }

  // --- correctness checks ---
  simnet::SimKernel& kernel = s.kernel();
  if (auto violation = chaos::InvariantChecker::CheckTimerAccounting(
          kernel.scheduled(), kernel.executed(), kernel.cancelled(),
          kernel.pending())) {
    rep.violations.push_back(violation->invariant + ": " + violation->detail);
  }
  if (r.completed + r.failures != r.attempts) {
    rep.violations.push_back(
        "request-accounting: completed " + std::to_string(r.completed) +
        " + failures " + std::to_string(r.failures) + " != attempts " +
        std::to_string(r.attempts));
  }
  for (const auto& client : s.clients()) {
    const workload::ClientStatsLocal& st = client->stats();
    const std::uint64_t open = client->inflight_request() != 0 ? 1 : 0;
    if (st.sent != st.allocations + st.failures + open) {
      rep.violations.push_back(
          "client-accounting: client " + std::to_string(client->client_id()) +
          " sent " + std::to_string(st.sent) + " != allocations " +
          std::to_string(st.allocations) + " + failures " +
          std::to_string(st.failures) + " + open " + std::to_string(open));
    }
    rep.sent += st.sent;
    rep.retries += st.retries;
  }
  if (r.attempts == 0) rep.violations.push_back("no interactions completed");

  // --- layer counters ---
  rep.scheduled = kernel.scheduled();
  rep.cancelled = kernel.cancelled();
  for (const std::string& address : NodeAddresses(s)) {
    rep.messages += s.network().StatsFor(address).messages;
  }
  rep.lost = s.network().lost_messages() + s.network().partition_dropped();
  rep.interactions = ClientTerminals(s);
  rep.pool = s.TotalPoolStats();
  rep.replica = s.replica_stats();
  const fault::FaultStats& f = s.fault_stats();
  rep.fault_strikes = f.loss_windows_opened + f.latency_spikes +
                      f.partitions_cut + f.machines_crashed +
                      f.services_crashed + f.pools_killed + f.sites_crashed;

  t0 = WallClock::now();
  scenario.reset();
  rep.teardown_s = Elapsed(t0);
  return rep;
}

// ---------------------------------------------------------------------------
// Layer replays: time one module's public entry point in isolation on
// inputs shaped like the workload's. Each returns the median over
// batches of the per-operation cost.
// ---------------------------------------------------------------------------
constexpr int kBatches = 5;

template <typename Fn>
double MedianNsPerOp(std::size_t ops, Fn&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = WallClock::now();
    batch();
    samples.push_back(Elapsed(t0) * 1e9 / static_cast<double>(ops));
  }
  return Median(samples);
}

// Schedule + Step against a kernel holding `depth` pending events.
double KernelOpNs(std::size_t depth, std::uint64_t seed) {
  simnet::SimKernel kernel;
  kernel.Reserve(depth + 16);
  Rng rng(seed);
  auto delay = [&rng] {
    return static_cast<SimDuration>(1 + rng.Next() % 1000000);
  };
  for (std::size_t i = 0; i < depth; ++i) kernel.Schedule(delay(), [] {});
  constexpr std::size_t kOps = 200000;
  return MedianNsPerOp(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      kernel.Schedule(delay(), [] {});
      kernel.Step();
    }
  });
}

// Two nodes bouncing one message on a fresh SimNetwork: the cost of one
// Post + delivery + dispatch.
class EchoNode final : public net::Node {
 public:
  explicit EchoNode(std::uint64_t* budget) : budget_(budget) {}
  void OnMessage(const net::Envelope& envelope,
                 net::NodeContext& ctx) override {
    if (*budget_ == 0) return;
    --*budget_;
    ctx.Send(envelope.from, envelope.message);
  }

 private:
  std::uint64_t* budget_;
};

double PostDeliverNs(const std::string& body, std::uint64_t seed) {
  simnet::SimKernel kernel;
  simnet::SimNetwork network(&kernel, simnet::Topology::Lan(), seed);
  network.AddHost("h", 2);
  std::uint64_t budget = 0;
  network.AddNode("a", std::make_shared<EchoNode>(&budget),
                  net::NodePlacement{"h", 1});
  network.AddNode("b", std::make_shared<EchoNode>(&budget),
                  net::NodePlacement{"h", 1});
  kernel.Run();
  constexpr std::size_t kHops = 100000;
  return MedianNsPerOp(kHops, [&] {
    budget = kHops - 1;
    net::Message message{net::msg::kQuery};
    message.SetHeader(net::hdr::kReplyTo, "a");
    message.SetHeader(net::hdr::kRequestId, "4294967297");
    message.body = body;
    network.Post("a", "b", std::move(message));
    kernel.Run();
  });
}

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  double wire_bytes = 0;
  double allocs = 0;  // per Encode + Decode pair
  bool ok = true;
};

CodecCost Codec(const std::vector<std::string>& queries) {
  CodecCost cost;
  std::vector<net::Message> messages;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto q = query::Parser::ParseBasic(queries[i]);
    if (!q.ok()) {
      cost.ok = false;
      return cost;
    }
    messages.push_back(pipeline::MakeQueryMessage(*q, "qm0", "client0",
                                                  (1ull << 32) | (i + 1)));
  }
  std::vector<std::string> wires(messages.size());
  std::uint64_t bytes = 0;
  cost.encode_ns = MedianNsPerOp(messages.size(), [&] {
    bytes = 0;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      wires[i] = messages[i].Encode();
      bytes += wires[i].size();
    }
  });
  cost.wire_bytes = Ratio(static_cast<double>(bytes),
                          static_cast<double>(messages.size()));
  std::size_t decoded = 0;
  cost.decode_ns = MedianNsPerOp(wires.size(), [&] {
    decoded = 0;
    for (const std::string& wire : wires) {
      decoded += net::Message::Decode(wire).ok() ? 1 : 0;
    }
  });
  if (decoded != wires.size()) cost.ok = false;
  const std::uint64_t before = Allocs();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const std::string wire = messages[i].Encode();
    auto back = net::Message::Decode(wire);
    if (!back.ok() || back->body != messages[i].body) cost.ok = false;
  }
  cost.allocs = Ratio(static_cast<double>(Allocs() - before),
                      static_cast<double>(messages.size()));
  return cost;
}

struct ParseCost {
  double ns = 0;
  double allocs = 0;
  bool ok = true;
};

ParseCost Parse(const std::vector<std::string>& queries) {
  ParseCost cost;
  std::size_t parsed = 0;
  cost.ns = MedianNsPerOp(queries.size(), [&] {
    parsed = 0;
    for (const std::string& text : queries) {
      parsed += query::Parser::Parse(text).ok() ? 1 : 0;
    }
  });
  cost.ok = parsed == queries.size();
  const std::uint64_t before = Allocs();
  for (const std::string& text : queries) {
    (void)query::Parser::Parse(text);
  }
  cost.allocs = Ratio(static_cast<double>(Allocs() - before),
                      static_cast<double>(queries.size()));
  return cost;
}

// One pool's cache, from the workload's fleet: every clusters-th
// machine, as the pool for cluster 0 would load it.
std::vector<sched::CacheEntry> PoolCache(const db::ResourceDatabase& database,
                                         std::size_t clusters) {
  std::vector<sched::CacheEntry> cache;
  std::size_t index = 0;
  database.ForEach([&](const db::MachineRecord& rec) {
    if (index++ % clusters != 0) return;
    sched::CacheEntry entry;
    entry.id = rec.id;
    entry.load = rec.dyn.load;
    entry.available_memory_mb = rec.dyn.available_memory_mb;
    entry.effective_speed = rec.effective_speed;
    entry.num_cpus = rec.num_cpus;
    entry.max_allowed_load = rec.max_allowed_load;
    cache.push_back(entry);
  });
  return cache;
}

// Least-load selection followed by the load bump an allocation causes,
// so successive selections walk the cache like a pool under load.
double SelectNs(std::vector<sched::CacheEntry> cache, bool indexed) {
  if (cache.empty()) return 0;
  const sched::LeastLoadPolicy policy(indexed);
  sched::SchedulingIndex index(&policy, 0, 1);
  index.Rebuild(cache);
  sched::SelectionContext ctx;
  const std::size_t ops = indexed ? 200000 : 20000;
  std::uint64_t examined = 0;
  const double ns = MedianNsPerOp(ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      const sched::Selection sel =
          indexed ? index.Select(cache, ctx) : policy.Select(cache, ctx);
      if (!sel.found()) continue;
      examined += sel.examined;
      sched::CacheEntry& entry = cache[sel.index];
      entry.load += 1e-4;
      if (indexed) index.Update(cache, sel.index);
    }
  });
  return examined == 0 ? 0 : ns;
}

double ShadowFindNs(db::ShadowAccountRegistry& shadows,
                    const std::vector<std::string>& names) {
  std::size_t found = 0;
  const double ns = MedianNsPerOp(names.size(), [&] {
    found = 0;
    for (const std::string& name : names) {
      found += shadows.Find(name) != nullptr ? 1 : 0;
    }
  });
  return found == names.size() ? ns : 0;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string expect;
};

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <wan_lp|lan_indexed|wan_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--expect <digest>]\n");
  return 2;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (value.empty()) return std::nullopt;
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--expect") {
      args.expect = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (args.workload.empty() || !args.seed) return std::nullopt;
  return args;
}

// Folds one repetition's checks into the run's verdict.
struct Verdict {
  std::optional<SimReport> first;
  std::vector<std::string> problems;

  void Check(const Rep& rep, const char* mode) {
    for (const std::string& v : rep.violations) {
      problems.push_back(std::string(mode) + ": " + v);
    }
    if (!first) {
      first = rep.report;
    } else if (rep.report.Text() != first->Text()) {
      problems.push_back(std::string(mode) +
                         ": sim report differs from the first repetition: " +
                         rep.report.Text() + " vs " + first->Text());
    }
  }
};

int Run(const Args& args) {
  const std::optional<Workload> workload =
      MakeWorkload(args.workload, *args.seed);
  if (!workload) {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return Usage();
  }
  const auto start = WallClock::now();
  Verdict verdict;
  std::vector<Rep> reps;         // untraced, 1 worker
  std::vector<Rep> traced;       // sampled window, 1 worker
  std::vector<Rep> two_workers;  // untraced, 2 LP workers
  do {
    const double calibration_before = CalibrationSeconds();
    reps.push_back(RunRep(*workload, 1, false));
    Rep& rep = reps.back();
    rep.calibration_s = (calibration_before + CalibrationSeconds()) / 2;
    rep.speed = kReferenceCalibrationS / rep.calibration_s;
    verdict.Check(rep, "untraced");
    std::printf(
        "rep %zu: raw setup_s=%.6f run_s=%.6f cpu_s=%.6f calibration_s=%.6f\n",
        reps.size(), rep.setup_s, rep.run_s, rep.cpu_s, rep.calibration_s);
    if (args.trace) {
      traced.push_back(RunRep(*workload, 1, true));
      verdict.Check(traced.back(), "traced");
      two_workers.push_back(RunRep(*workload, 2, false));
      verdict.Check(two_workers.back(), "2-worker");
    }
  } while (Elapsed(start) < args.seconds);

  const SimReport& report = *verdict.first;
  const std::string digest = report.Digest();
  std::printf("sim_report %s seed=%llu digest=%s %s\n", workload->name.c_str(),
              static_cast<unsigned long long>(*args.seed), digest.c_str(),
              report.Text().c_str());
  if (!args.expect.empty() && args.expect != digest) {
    verdict.problems.push_back("sim report digest " + digest +
                               " != expected " + args.expect);
  }
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].run_allocs != reps[0].run_allocs ||
        reps[i].window_allocs != reps[0].window_allocs) {
      verdict.problems.push_back("run-phase allocations differ across "
                                 "repetitions of one seed");
      break;
    }
  }
  const bool correct = verdict.problems.empty();
  for (const std::string& p : verdict.problems) {
    std::fprintf(stderr, "hostbench: CHECK FAILED: %s\n", p.c_str());
  }

  auto median_of = [](const std::vector<Rep>& rs, auto field) {
    std::vector<double> v;
    for (const Rep& r : rs) v.push_back(field(r));
    return Median(v);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.report.attempts;
    failed += r.report.failures;
  }
  const double completed = static_cast<double>(report.completed);
  // Host times at the reference speed (see CalibrationSeconds).
  const double run_s =
      median_of(reps, [](const Rep& r) { return r.run_s * r.speed; });

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("%s seed=%llu: %zu repetitions in %.2f s\n",
                workload->name.c_str(),
                static_cast<unsigned long long>(*args.seed), reps.size(),
                Elapsed(start));
    metrics = {
        {"setup_s",
         median_of(reps, [](const Rep& r) { return r.setup_s * r.speed; }),
         "s"},
        {"run_s", run_s, "s"},
        {"cpu_s",
         median_of(reps, [](const Rep& r) { return r.cpu_s * r.speed; }),
         "s"},
        {"events_per_s",
         median_of(reps,
                   [](const Rep& r) {
                     return Ratio(static_cast<double>(r.report.events),
                                  r.run_s * r.speed);
                   }),
         "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"allocs_per_query",
         Ratio(static_cast<double>(reps.front().window_allocs), completed),
         "count"},
        {"ok_ratio",
         correct ? Ratio(completed, static_cast<double>(report.attempts)) : 0,
         "ratio"},
        {"sim_p50_ms", report.p50_ms, "ms"},
        {"sim_p99_ms", report.p99_ms, "ms"},
        {"sim_samples", completed, "count"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // ----- traced (layer) pass -----
  const Rep& t = traced.front();
  const ScenarioConfig& c = workload->config;
  // Ratios of raw times taken in the same rounds need no calibration.
  const double raw_run_s =
      median_of(reps, [](const Rep& r) { return r.run_s; });
  const double traced_run_s =
      median_of(traced, [](const Rep& r) { return r.run_s; });
  const double run_2w_s =
      median_of(two_workers, [](const Rep& r) { return r.run_s; });
  const double cpu_2w_s =
      median_of(two_workers, [](const Rep& r) { return r.cpu_s; });

  // Replay inputs shaped like the workload's: its fleet and its queries.
  Rng rng(workload->config.seed ^ 0x7265706c6179ULL);
  db::ResourceDatabase database;
  db::ShadowAccountRegistry shadows;
  workload::FleetSpec fleet;
  fleet.machine_count = c.machines;
  fleet.cluster_count = std::max<std::size_t>(1, c.clusters);
  workload::BuildFleet(fleet, rng, &database, &shadows);
  std::vector<std::string> shadow_names;
  database.ForEach([&](const db::MachineRecord& rec) {
    shadow_names.push_back(rec.shadow_pool);
  });
  std::shuffle(shadow_names.begin(), shadow_names.end(), rng);
  workload::QuerySpec query_spec;
  query_spec.cluster_count = fleet.cluster_count;
  query_spec.hot_fraction = c.hot_fraction;
  const workload::QueryGenerator generator(query_spec);
  std::vector<std::string> queries;
  for (int i = 0; i < 20000; ++i) queries.push_back(generator.Next(rng));

  const CodecCost codec = Codec(queries);
  const ParseCost parse = Parse(queries);
  const std::vector<sched::CacheEntry> cache =
      PoolCache(database, fleet.cluster_count);
  const double pending_mean =
      median_of(traced, [](const Rep& r) { return r.pending_mean; });
  if (!codec.ok) {
    std::fprintf(stderr, "hostbench: CHECK FAILED: codec replay round trip\n");
  }
  if (!parse.ok) {
    std::fprintf(stderr, "hostbench: CHECK FAILED: parse replay rejected a "
                         "generated query\n");
  }
  const bool layers_correct = correct && codec.ok && parse.ok;

  const double events = static_cast<double>(t.report.events);
  metrics = {
      {"actyp.warmup_s",
       median_of(reps, [](const Rep& r) { return r.warmup_s; }), "s"},
      {"actyp.measure_s",
       median_of(reps, [](const Rep& r) { return r.measure_s; }), "s"},
      {"actyp.build_allocs",
       static_cast<double>(reps.front().build_allocs), "count"},
      {"actyp.teardown_s",
       median_of(reps, [](const Rep& r) { return r.teardown_s; }), "s"},
      {"simnet.events", events, "count"},
      {"simnet.cancel_ratio",
       Ratio(static_cast<double>(t.cancelled),
             static_cast<double>(t.scheduled)),
       "ratio"},
      {"simnet.ns_per_event", Ratio(run_s * 1e9, events), "ns"},
      {"simnet.pending_mean", pending_mean, "count"},
      {"simnet.kernel_op_ns",
       KernelOpNs(static_cast<std::size_t>(std::llround(pending_mean)),
                  c.seed),
       "ns"},
      {"simnet.post_deliver_ns", PostDeliverNs(queries.front(), c.seed),
       "ns"},
      {"simnet.msgs_per_query",
       Ratio(static_cast<double>(t.messages),
             static_cast<double>(t.interactions)),
       "count"},
      {"simnet.lost_ratio",
       Ratio(static_cast<double>(t.lost),
             static_cast<double>(t.messages + t.lost)),
       "ratio"},
      {"simnet.lp_speedup_2w", Ratio(raw_run_s, run_2w_s), "ratio"},
      {"simnet.lp_cpu_per_wall_2w", Ratio(cpu_2w_s, run_2w_s), "ratio"},
      {"net.encode_ns", codec.encode_ns, "ns"},
      {"net.decode_ns", codec.decode_ns, "ns"},
      {"net.wire_bytes", codec.wire_bytes, "bytes"},
      {"net.codec_allocs", codec.allocs, "count"},
      {"query.parse_ns", parse.ns, "ns"},
      {"query.parse_allocs", parse.allocs, "count"},
      {"sched.index_select_ns", SelectNs(cache, true), "ns"},
      {"sched.linear_select_ns", SelectNs(cache, false), "ns"},
      {"db.shadow_find_ns", ShadowFindNs(shadows, shadow_names), "ns"},
      {"pipeline.examined_per_alloc",
       Ratio(static_cast<double>(t.pool.entries_examined),
             static_cast<double>(t.pool.allocations)),
       "count"},
      {"pipeline.refresh_entries_per_tick",
       Ratio(static_cast<double>(t.pool.entries_refreshed),
             static_cast<double>(t.pool.refresh_ticks)),
       "count"},
  };
  for (std::size_t i = 0; i < profile::kStageCount; ++i) {
    metrics.push_back(
        {"pipeline." +
             std::string(profile::StageName(static_cast<profile::Stage>(i))) +
             "_p99_ms",
         t.report.stage_p99_ms[i], "ms"});
  }
  const std::vector<Metric> tail = {
      {"workload.retry_ratio",
       Ratio(static_cast<double>(t.retries), static_cast<double>(t.sent)),
       "ratio"},
      {"replica.sync_bytes", static_cast<double>(t.replica.sync_bytes),
       "bytes"},
      {"replica.full_sync_ratio",
       Ratio(static_cast<double>(t.replica.full_syncs),
             static_cast<double>(t.replica.sync_rounds)),
       "ratio"},
      {"replica.failovers", static_cast<double>(t.replica.failovers),
       "count"},
      {"fault.strikes", static_cast<double>(t.fault_strikes), "count"},
      {"alloc.per_event",
       Ratio(static_cast<double>(reps.front().run_allocs), events), "count"},
      {"trace.overhead_ratio", Ratio(traced_run_s, raw_run_s), "ratio"},
      {"host.calibration_s",
       median_of(reps, [](const Rep& r) { return r.calibration_s; }), "s"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());
  std::printf("%s seed=%llu: layer pass, %zu rounds in %.2f s\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(*args.seed), reps.size(),
              Elapsed(start));
  PrintResult(layers_correct, attempted, failed, metrics);
  return layers_correct ? 0 : 1;
}

}  // namespace
}  // namespace actyp::hostbench

int main(int argc, char** argv) {
  const auto args = actyp::hostbench::ParseArgs(argc, argv);
  if (!args) return actyp::hostbench::Usage();
  return actyp::hostbench::Run(*args);
}
