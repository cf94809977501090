#include "db/database.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/strings.hpp"

namespace actyp::db {

void ResourceDatabase::MarkDirtyLocked(MachineRecord& rec) {
  rec.version = ++version_;
  if (!journal_.empty() && journal_.back().second == rec.id) {
    // Same record mutated again before anyone read the journal entry:
    // advancing the tail entry's version keeps every cursor correct
    // (cursors below the new version still see the id) without growing
    // the journal — the common case for job-start/-end double updates.
    journal_.back().first = version_;
    return;
  }
  if (journal_.size() >= kJournalCapacity) {
    // Drop the oldest half; consumers whose cursor predates the floor
    // get a full-refresh signal from ForEachChangeSince.
    const std::size_t keep = kJournalCapacity / 2;
    journal_floor_ = journal_[journal_.size() - keep - 1].first;
    journal_.erase(journal_.begin(),
                   journal_.end() - static_cast<std::ptrdiff_t>(keep));
  }
  journal_.emplace_back(version_, rec.id);
}

std::uint64_t ResourceDatabase::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::optional<std::uint64_t> ResourceDatabase::ChangesSince(
    std::uint64_t since, std::vector<MachineId>* out) const {
  const std::size_t mark = out->size();
  const auto cursor =
      ForEachChangeSince(since, [out](MachineId id) { out->push_back(id); });
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(mark), out->end());
  out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(mark),
                         out->end()),
             out->end());
  return cursor;
}

MachineRecord* ResourceDatabase::FindLocked(MachineId id) const {
  if (id < dense_.size()) return dense_[id];
  const auto it = sparse_.find(id);
  return it == sparse_.end() ? nullptr : it->second;
}

template <typename Fn>
void ResourceDatabase::WalkLocked(Fn&& fn) const {
  for (MachineRecord* rec : dense_) {
    if (rec != nullptr) fn(*rec);
  }
  for (const auto& [id, rec] : sparse_) fn(*rec);
}

Result<MachineId> ResourceDatabase::ResolveIdLocked(
    const MachineRecord& record, std::uint64_t next_id) const {
  if (record.name.empty()) {
    return InvalidArgument("machine record must have a name");
  }
  if (by_name_.count(record.name)) {
    return AlreadyExists("machine '" + record.name + "' already registered");
  }
  if (record.id != kInvalidMachine) {
    if (FindLocked(record.id) != nullptr) {
      return AlreadyExists("machine id " + std::to_string(record.id) +
                           " already registered");
    }
    return record.id;
  }
  if (next_id > std::numeric_limits<MachineId>::max()) {
    return Exhausted("machine id space exhausted");
  }
  return static_cast<MachineId>(next_id);
}

void ResourceDatabase::InsertLocked(MachineRecord record) {
  const MachineId id = record.id;
  next_id_ = std::max<std::uint64_t>(next_id_, std::uint64_t{id} + 1);
  MachineRecord* stored = &store_.emplace_back(std::move(record));
  by_name_.emplace(stored->name, id);
  const std::uint64_t dense_limit = 2 * std::uint64_t{store_.size()} + 64;
  if (id < dense_.size()) {
    dense_[id] = stored;
  } else if (id < dense_limit) {
    dense_.resize(std::size_t{id} + 1, nullptr);
    dense_[id] = stored;
    // Sparse ids the dense part now covers move into it.
    while (!sparse_.empty() && sparse_.begin()->first < dense_.size()) {
      dense_[sparse_.begin()->first] = sparse_.begin()->second;
      sparse_.erase(sparse_.begin());
    }
  } else {
    sparse_.emplace(id, stored);
  }
  MarkDirtyLocked(*stored);
}

Result<MachineId> ResourceDatabase::Add(MachineRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto id = ResolveIdLocked(record, next_id_);
  if (!id.ok()) return id.status();
  record.id = *id;
  InsertLocked(std::move(record));
  return *id;
}

Result<MachineRecord> ResourceDatabase::Get(MachineId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const MachineRecord* rec = FindLocked(id);
  if (rec == nullptr) return NotFound("machine id " + std::to_string(id));
  return *rec;
}

Result<MachineRecord> ResourceDatabase::GetByName(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return NotFound("machine '" + name + "'");
  return *FindLocked(it->second);
}

Status ResourceDatabase::Update(
    MachineId id, const std::function<void(MachineRecord&)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  MachineRecord* rec = FindLocked(id);
  if (rec == nullptr) return NotFound("machine id " + std::to_string(id));
  // The index entry owns a copy of the name, so a rename is detected
  // against it without copying the name on every update.
  const auto name_it = by_name_.find(rec->name);
  mutate(*rec);
  rec->id = id;  // id is immutable
  if (rec->name != name_it->first) {
    auto node = by_name_.extract(name_it);
    node.key() = rec->name;
    by_name_.insert(std::move(node));
  }
  MarkDirtyLocked(*rec);
  return Status::Ok();
}

Status ResourceDatabase::UpdateDynamic(MachineId id, const DynamicState& dyn) {
  return Update(id, [&dyn](MachineRecord& rec) { rec.dyn = dyn; });
}

void ResourceDatabase::ApplyDynamic(
    const std::vector<std::pair<MachineId, DynamicState>>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, dyn] : batch) {
    MachineRecord* rec = FindLocked(id);
    if (rec == nullptr) continue;
    rec->dyn = dyn;
    MarkDirtyLocked(*rec);
  }
}

std::vector<MachineId> ResourceDatabase::ClaimMatching(
    const query::Query& query, const std::string& pool_name,
    std::size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> claimed;
  WalkLocked([&](MachineRecord& rec) {
    if (limit > 0 && claimed.size() >= limit) return;
    if (!rec.taken_by.empty() || !rec.IsUsable()) return;
    if (!query.Matches(
            [&rec](const std::string& name) { return rec.Attribute(name); })) {
      return;
    }
    rec.taken_by = pool_name;
    MarkDirtyLocked(rec);
    claimed.push_back(rec.id);
  });
  return claimed;
}

std::size_t ResourceDatabase::ReleaseAllFrom(const std::string& pool_name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t released = 0;
  WalkLocked([&](MachineRecord& rec) {
    if (rec.taken_by == pool_name) {
      rec.taken_by.clear();
      MarkDirtyLocked(rec);
      ++released;
    }
  });
  return released;
}

Status ResourceDatabase::Release(MachineId id, const std::string& pool_name) {
  std::lock_guard<std::mutex> lock(mu_);
  MachineRecord* rec = FindLocked(id);
  if (rec == nullptr) return NotFound("machine id " + std::to_string(id));
  if (rec->taken_by != pool_name) {
    return PermissionDenied("machine " + std::to_string(id) +
                            " is not taken by '" + pool_name + "'");
  }
  rec->taken_by.clear();
  MarkDirtyLocked(*rec);
  return Status::Ok();
}

std::vector<MachineId> ResourceDatabase::ListTakenBy(
    const std::string& pool_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MachineId> out;
  WalkLocked([&](const MachineRecord& rec) {
    if (rec.taken_by == pool_name) out.push_back(rec.id);
  });
  return out;
}

void ResourceDatabase::VisitRecords(
    const std::vector<MachineId>& ids,
    const std::function<void(std::size_t, const MachineRecord*)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < ids.size(); ++i) fn(i, FindLocked(ids[i]));
}

void ResourceDatabase::ForEach(
    const std::function<void(const MachineRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  WalkLocked(fn);
}

std::size_t ResourceDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

std::size_t ResourceDatabase::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  WalkLocked([&n](const MachineRecord& rec) {
    if (rec.taken_by.empty() && rec.IsUsable()) ++n;
  });
  return n;
}

std::string ResourceDatabase::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  WalkLocked([&out](const MachineRecord& rec) {
    out += rec.Serialize();
    out += '\n';
  });
  return out;
}

Status ResourceDatabase::LoadFrom(std::string_view text) {
  std::vector<MachineRecord> batch;
  for (const auto& line : Split(text, '\n')) {
    if (TrimView(line).empty()) continue;
    auto rec = MachineRecord::Deserialize(line);
    if (!rec.ok()) return rec.status();
    batch.push_back(std::move(rec).value());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Resolve every id and check every name before inserting any record,
  // replaying the id counter, so a bad line leaves the table untouched.
  std::unordered_set<std::string_view> names;
  std::unordered_set<MachineId> ids;
  std::uint64_t next_id = next_id_;
  for (MachineRecord& rec : batch) {
    auto id = ResolveIdLocked(rec, next_id);
    if (!id.ok()) return id.status();
    if (!names.insert(rec.name).second || !ids.insert(*id).second) {
      return AlreadyExists("machine '" + rec.name + "' (id " +
                           std::to_string(*id) + ") appears twice");
    }
    rec.id = *id;
    next_id = std::max<std::uint64_t>(next_id, std::uint64_t{*id} + 1);
  }
  for (MachineRecord& rec : batch) InsertLocked(std::move(rec));
  return Status::Ok();
}

}  // namespace actyp::db
