#include "db/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/strings.hpp"

namespace actyp::db {

std::string_view MachineStateName(MachineState s) {
  switch (s) {
    case MachineState::kUp: return "up";
    case MachineState::kDown: return "down";
    case MachineState::kBlocked: return "blocked";
  }
  return "down";
}

std::optional<MachineState> ParseMachineState(std::string_view text) {
  const std::string lower = ToLower(text);
  if (lower == "up") return MachineState::kUp;
  if (lower == "down") return MachineState::kDown;
  if (lower == "blocked") return MachineState::kBlocked;
  return std::nullopt;
}

namespace {
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
}  // namespace

std::optional<std::string> MachineRecord::Attribute(
    const std::string& name) const {
  // Administrator-defined parameters take precedence (field 20); this is
  // what makes aggregation criteria extensible "on the fly".
  auto it = params.find(name);
  if (it != params.end()) return it->second;

  if (name == "state") return std::string(MachineStateName(state));
  if (name == "load") return FormatDouble(dyn.load);
  if (name == "activejobs") return std::to_string(dyn.active_jobs);
  if (name == "memory") return FormatDouble(dyn.available_memory_mb);
  if (name == "swap") return FormatDouble(dyn.available_swap_mb);
  if (name == "speed") return FormatDouble(effective_speed);
  if (name == "cpus" || name == "ncpus") return std::to_string(num_cpus);
  if (name == "maxload") return FormatDouble(max_allowed_load);
  if (name == "name" || name == "machine") return this->name;
  if (name == "sharedaccount") {
    return shared_account.empty() ? std::optional<std::string>()
                                  : std::optional<std::string>(shared_account);
  }
  return std::nullopt;
}

bool MachineRecord::AllowsUserGroup(const std::string& group) const {
  if (user_groups.empty()) return true;  // unrestricted
  const std::string lower = ToLower(group);
  return std::any_of(user_groups.begin(), user_groups.end(),
                     [&](const std::string& g) { return ToLower(g) == lower; });
}

bool MachineRecord::SupportsToolGroup(const std::string& group) const {
  if (tool_groups.empty()) return true;
  const std::string lower = ToLower(group);
  return std::any_of(tool_groups.begin(), tool_groups.end(),
                     [&](const std::string& g) { return ToLower(g) == lower; });
}

std::string MachineRecord::Serialize() const {
  // Order mirrors Fig. 3. Lists use ','; params use 'k=v' joined by ','.
  std::vector<std::string> fields;
  fields.emplace_back(std::to_string(id));
  fields.emplace_back(MachineStateName(state));
  fields.emplace_back(FormatDouble(dyn.load));
  fields.emplace_back(std::to_string(dyn.active_jobs));
  fields.emplace_back(FormatDouble(dyn.available_memory_mb));
  fields.emplace_back(FormatDouble(dyn.available_swap_mb));
  fields.emplace_back(std::to_string(dyn.last_update));
  fields.emplace_back(std::to_string(dyn.service_flags));
  fields.emplace_back(FormatDouble(effective_speed));
  fields.emplace_back(std::to_string(num_cpus));
  fields.emplace_back(FormatDouble(max_allowed_load));
  fields.emplace_back(name);
  fields.emplace_back(object_path);
  fields.emplace_back(shared_account);
  fields.emplace_back(std::to_string(execution_unit_port));
  fields.emplace_back(std::to_string(pvfs_mount_port));
  fields.emplace_back(Join(user_groups, ","));
  fields.emplace_back(Join(tool_groups, ","));
  fields.emplace_back(shadow_pool);
  fields.emplace_back(usage_policy);
  std::vector<std::string> kv;
  kv.reserve(params.size());
  for (const auto& [k, v] : params) kv.push_back(k + "=" + v);
  fields.emplace_back(Join(kv, ","));
  return Join(fields, ";");
}

Result<MachineRecord> MachineRecord::Deserialize(std::string_view line) {
  const auto fields = Split(line, ';');
  if (fields.size() != 21) {
    return InvalidArgument("machine record has " +
                           std::to_string(fields.size()) +
                           " fields, expected 21");
  }
  MachineRecord rec;
  // Integers are range-checked against their field's type (and the
  // field's meaning) so that no value is narrowed silently.
  auto want_int = [](const std::string& s, std::string_view what,
                     std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                     std::int64_t hi = std::numeric_limits<std::int64_t>::max())
      -> Result<std::int64_t> {
    auto v = ParseInt(s);
    if (!v) return InvalidArgument("bad integer for " + std::string(what));
    if (*v < lo || *v > hi) {
      return InvalidArgument(std::string(what) + " " + s + " out of range [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
    }
    return *v;
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  auto want_double = [](const std::string& s,
                        std::string_view what) -> Result<double> {
    auto v = ParseDouble(s);
    if (!v) return InvalidArgument("bad number for " + std::string(what));
    return *v;
  };

  auto id = want_int(fields[0], "id", 0,
                     std::numeric_limits<MachineId>::max());
  if (!id.ok()) return id.status();
  rec.id = static_cast<MachineId>(*id);

  auto state = ParseMachineState(fields[1]);
  if (!state) return InvalidArgument("bad machine state '" + fields[1] + "'");
  rec.state = *state;

  auto load = want_double(fields[2], "load");
  if (!load.ok()) return load.status();
  rec.dyn.load = *load;
  auto jobs = want_int(fields[3], "active_jobs", 0, kIntMax);
  if (!jobs.ok()) return jobs.status();
  rec.dyn.active_jobs = static_cast<int>(*jobs);
  auto mem = want_double(fields[4], "memory");
  if (!mem.ok()) return mem.status();
  rec.dyn.available_memory_mb = *mem;
  auto swap = want_double(fields[5], "swap");
  if (!swap.ok()) return swap.status();
  rec.dyn.available_swap_mb = *swap;
  auto upd = want_int(fields[6], "last_update");
  if (!upd.ok()) return upd.status();
  rec.dyn.last_update = *upd;
  auto flags = want_int(fields[7], "service_flags", 0,
                        std::numeric_limits<std::uint32_t>::max());
  if (!flags.ok()) return flags.status();
  rec.dyn.service_flags = static_cast<std::uint32_t>(*flags);

  auto speed = want_double(fields[8], "effective_speed");
  if (!speed.ok()) return speed.status();
  rec.effective_speed = *speed;
  auto cpus = want_int(fields[9], "num_cpus", 1, kIntMax);
  if (!cpus.ok()) return cpus.status();
  rec.num_cpus = static_cast<int>(*cpus);
  auto maxload = want_double(fields[10], "max_allowed_load");
  if (!maxload.ok()) return maxload.status();
  rec.max_allowed_load = *maxload;

  rec.name = fields[11];
  rec.object_path = fields[12];
  rec.shared_account = fields[13];

  auto eport = want_int(fields[14], "execution_unit_port", 0,
                        std::numeric_limits<std::uint16_t>::max());
  if (!eport.ok()) return eport.status();
  rec.execution_unit_port = static_cast<std::uint16_t>(*eport);
  auto pport = want_int(fields[15], "pvfs_mount_port", 0,
                        std::numeric_limits<std::uint16_t>::max());
  if (!pport.ok()) return pport.status();
  rec.pvfs_mount_port = static_cast<std::uint16_t>(*pport);

  rec.user_groups = SplitSkipEmpty(fields[16], ',');
  rec.tool_groups = SplitSkipEmpty(fields[17], ',');
  rec.shadow_pool = fields[18];
  rec.usage_policy = fields[19];

  for (const auto& pair : SplitSkipEmpty(fields[20], ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("bad admin param '" + pair + "'");
    }
    rec.params[ToLower(Trim(pair.substr(0, eq)))] = Trim(pair.substr(eq + 1));
  }
  return rec;
}

}  // namespace actyp::db
