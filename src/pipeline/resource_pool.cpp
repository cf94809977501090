#include "pipeline/resource_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "query/parser.hpp"

namespace actyp::pipeline {
namespace {
// Sentinel load marking a cache entry whose machine is down/blocked;
// large enough that no policy (or oversubscribe fallback) picks it.
constexpr double kUnusableLoad = 1e18;
}  // namespace

void ResourcePool::SlotIndex::Build(const std::vector<db::MachineId>& ids) {
  // The bitmap stops at 64 bits per owned id, so a pool of a few
  // machines spread over a large fleet pays for its ids, not the fleet's.
  const std::uint64_t end =
      ids.empty() ? 0
                  : std::min<std::uint64_t>(std::uint64_t{ids.back()} + 1,
                                            64 * (ids.size() + 1));
  words_.assign((end + 63) / 64, 0);
  bits_end_ = 64 * words_.size();
  rank_.assign(words_.size(), 0);
  above_.clear();
  for (const db::MachineId id : ids) {
    if (id < bits_end_) {
      words_[id >> 6] |= std::uint64_t{1} << (id & 63);
    } else {
      above_.push_back(id);
    }
  }
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    rank_[w] = count;
    count += static_cast<std::uint32_t>(std::popcount(words_[w]));
  }
  above_first_slot_ = count;
}

std::size_t ResourcePool::SlotIndex::FindAbove(db::MachineId id) const {
  const auto it = std::lower_bound(above_.begin(), above_.end(), id);
  if (it == above_.end() || *it != id) return kNone;
  return above_first_slot_ + static_cast<std::size_t>(it - above_.begin());
}

ResourcePool::ResourcePool(ResourcePoolConfig config,
                           db::ResourceDatabase* database,
                           directory::DirectoryApi* directory,
                           db::ShadowAccountRegistry* shadows,
                           db::PolicyRegistry* policies)
    : config_(std::move(config)),
      database_(database),
      directory_(directory),
      shadows_(shadows),
      policies_(policies) {
  auto policy = sched::MakePolicy(config_.policy);
  policy_ = policy.ok() ? std::move(policy.value())
                        : std::make_unique<sched::LeastLoadPolicy>();
  if (policy_->ordered()) {
    index_ = std::make_unique<sched::SchedulingIndex>(
        policy_.get(), config_.instance, config_.instance_count);
  }
}

ResourcePool::~ResourcePool() = default;

void ResourcePool::OnStart(net::NodeContext& ctx) {
  Initialize(ctx);
  if (config_.resort_period > 0) {
    ctx.ScheduleSelf(config_.resort_period, net::Message{net::msg::kTick});
  }
}

void ResourcePool::Initialize(net::NodeContext& ctx) {
  const std::string claim_name =
      config_.claim_name.empty() ? config_.pool_name : config_.claim_name;
  // First instance claims machines; replicas adopt the existing claim so
  // all instances of a pool see the same machine set (Fig. 8).
  std::vector<db::MachineId> ids = database_->ListTakenBy(claim_name);
  if (ids.empty()) {
    ids = database_->ClaimMatching(config_.criteria, claim_name,
                                   config_.claim_limit);
  }

  cache_.clear();
  meta_.clear();
  slot_ids_.clear();
  cache_.reserve(ids.size());
  meta_.reserve(ids.size());
  slot_ids_.reserve(ids.size());
  any_user_groups_ = false;
  any_usage_policy_ = false;
  // Cursor first, read second: changes landing between the two are
  // re-applied by the first refresh tick, which is idempotent; taking
  // the cursor after the read could silently skip them.
  db_cursor_ = database_->version();
  database_->VisitRecords(ids, [this](std::size_t, const db::MachineRecord*
                                                      rec) {
    if (rec == nullptr) return;
    sched::CacheEntry entry;
    entry.id = rec->id;
    entry.load = rec->dyn.load;
    entry.available_memory_mb = rec->dyn.available_memory_mb;
    entry.effective_speed = rec->effective_speed;
    entry.num_cpus = rec->num_cpus;
    entry.max_allowed_load = rec->max_allowed_load;
    entry.active_jobs = 0;
    entry.updated = rec->dyn.last_update;
    cache_.push_back(std::move(entry));
    slot_ids_.push_back(rec->id);

    EntryMeta meta;
    meta.name = rec->name;
    meta.user_groups = rec->user_groups;
    meta.usage_policy = rec->usage_policy;
    meta.shadow_pool = rec->shadow_pool;
    meta.execution_port = rec->execution_unit_port;
    any_user_groups_ |= !meta.user_groups.empty();
    any_usage_policy_ |= !meta.usage_policy.empty();
    meta_.push_back(std::move(meta));
  });
  // Slots follow the claim order, which is ascending id.
  const std::size_t n = cache_.size();
  slots_.Build(slot_ids_);
  pos_slot_.resize(n);
  slot_pos_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) pos_slot_[i] = slot_pos_[i] = i;
  fetch_seen_.assign(n, 0);
  marked_.clear();
  is_marked_.assign(n, 0);
  if (!policy_->indexed()) {
    // The first Resort sorts everything.
    for (std::size_t i = 0; i < n; ++i) Mark(i);
  }
  if (index_) index_->Rebuild(cache_);

  initialized_ = true;
  if (config_.register_in_directory && directory_ != nullptr) {
    directory::PoolInstance instance;
    instance.pool_name = config_.pool_name;
    instance.instance = config_.instance;
    instance.address = ctx.self();
    instance.machine_count = cache_.size();
    instance.segment = config_.segment;
    const Status status = directory_->RegisterPool(instance);
    registered_ = status.ok();
    if (!status.ok()) {
      ACTYP_WARN << "pool '" << config_.pool_name
                 << "' failed directory registration: " << status.ToString();
    }
  }
}

void ResourcePool::OnMessage(const net::Envelope& envelope,
                             net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  if (message.type == net::msg::kQuery) {
    HandleQuery(envelope, ctx);
    if (config_.profiler != nullptr) {
      config_.profiler->Record(profile::Stage::kPoolSelect,
                               RequestIdOf(message), envelope.sent_at,
                               ctx.Now() + ctx.Consumed());
    }
  } else if (message.type == net::msg::kRelease) {
    HandleRelease(envelope, ctx);
  } else if (message.type == net::msg::kTick) {
    HandleTick(ctx);
  } else if (message.type == net::msg::kShutdown) {
    if (registered_ && directory_ != nullptr) {
      directory_->UnregisterPool(config_.pool_name, config_.instance);
      registered_ = false;
    }
    database_->ReleaseAllFrom(
        config_.claim_name.empty() ? config_.pool_name : config_.claim_name);
  } else {
    ACTYP_DEBUG << "pool '" << config_.pool_name
                << "': ignoring message type '" << message.type << "'";
  }
}

void ResourcePool::HandleQuery(const net::Envelope& envelope,
                               net::NodeContext& ctx) {
  ++stats_.queries;
  const net::Message& message = envelope.message;
  const net::Address reply_to = message.Header(net::hdr::kReplyTo);
  const std::uint64_t request_id = RequestIdOf(message);

  ctx.Consume(config_.costs.pool_fixed);

  // Facts selection needs: the access group, the co-allocation count,
  // the reservation window, and the fragment coordinates. When the
  // query manager attached its sched hints (§6 — parsed state travels
  // with the message) they are read from headers; queries injected
  // mid-pipeline parse the body as before.
  std::string access_group;
  std::size_t want = 1;
  std::optional<double> resv_start_s;
  double resv_duration_s = 3600.0;
  std::uint32_t frag_index = 0, frag_total = 1;
  ParseFragmentHeader(message, &frag_index, &frag_total);
  if (message.HasHeader(phdr::kSchedHints)) {
    access_group = message.Header(phdr::kAccessGroup);
    if (auto count = ParseInt(message.Header(phdr::kCoAlloc));
        count && *count > 1) {
      want = static_cast<std::size_t>(*count);
    }
    if (auto start = ParseDouble(message.Header(phdr::kResvStart))) {
      resv_start_s = *start;
      resv_duration_s =
          ParseDouble(message.Header(phdr::kResvDuration)).value_or(3600.0);
    }
  } else {
    auto parsed = query::Parser::ParseBasic(message.body);
    if (!parsed.ok()) {
      ++stats_.failures;
      if (!reply_to.empty()) {
        ctx.Send(reply_to,
                 MakeFailureMessage(request_id, parsed.status().ToString()));
      }
      return;
    }
    const query::Query& q = parsed.value();
    access_group = q.GetUser("accessgroup");
    if (auto count = ParseInt(q.GetAppl("count")); count && *count > 1) {
      want = static_cast<std::size_t>(*count);
    }
    if (auto start = ParseDouble(q.GetAppl("starttime"))) {
      resv_start_s = *start;
      resv_duration_s = ParseDouble(q.GetAppl("duration")).value_or(3600.0);
    }
    // The fragment header is authoritative when present (split pools
    // stamp it without rewriting the body); body meta only covers
    // queries injected with neither hints nor a fragment header.
    if (!message.HasHeader(phdr::kFragment)) {
      if (const query::FragmentInfo frag = q.fragment(); frag.is_fragment()) {
        frag_index = frag.index;
        frag_total = frag.total;
      }
    }
  }
  const std::string access_group_lower = ToLower(access_group);

  // Per-query eligibility: user group lists (Fig. 3 field 16) and usage
  // policies (field 19) applied to the pool's cached view. Most pools
  // carry no such metadata — the selection scan must not pay an
  // indirect filter call per entry for a check that always passes.
  const bool needs_meta_filter =
      (any_user_groups_ && !access_group.empty()) ||
      (policies_ != nullptr && any_usage_policy_);
  auto meta_allows = [this, &access_group, &access_group_lower](
                         std::size_t i, const sched::CacheEntry& entry) {
    const EntryMeta& meta = meta_[pos_slot_[i]];
    if (!meta.user_groups.empty() && !access_group_lower.empty()) {
      const bool allowed =
          std::any_of(meta.user_groups.begin(), meta.user_groups.end(),
                      [&access_group_lower](const std::string& g) {
                        return ToLower(g) == access_group_lower;
                      });
      if (!allowed) return false;
    }
    if (policies_ != nullptr && !meta.usage_policy.empty()) {
      // Evaluate the policy against the cached dynamic view.
      db::MachineRecord synth;
      synth.name = meta.name;
      synth.dyn.load = entry.load;
      synth.dyn.available_memory_mb = entry.available_memory_mb;
      synth.effective_speed = entry.effective_speed;
      synth.num_cpus = entry.num_cpus;
      synth.max_allowed_load = entry.max_allowed_load;
      synth.usage_policy = meta.usage_policy;
      if (!policies_->Allows(synth, access_group)) return false;
    }
    return true;
  };

  // Co-allocation and advance reservations (extensions beyond the 2001
  // prototype, which the paper lists as unsupported): `punch.appl.count
  // = N` machines granted atomically or not at all; `punch.appl.
  // starttime` (absolute seconds) + `punch.appl.duration` turn the
  // request into a booking of that future window.
  SimTime resv_start = 0, resv_end = 0;
  bool is_reservation = false;
  if (resv_start_s.has_value()) {
    resv_start = Seconds(*resv_start_s);
    resv_end = resv_start + Seconds(resv_duration_s);
    is_reservation = resv_end > resv_start && resv_start >= ctx.Now();
    if (!is_reservation) {
      ++stats_.failures;
      if (!reply_to.empty()) {
        ctx.Send(reply_to, MakeFailureMessage(
                               request_id, "invalid reservation window"));
      }
      return;
    }
  }

  sched::SelectionContext sel_ctx;
  sel_ctx.instance = config_.instance;
  sel_ctx.instance_count = config_.instance_count;
  sel_ctx.rng = &ctx.rng();

  // Select `want` distinct machines; already-picked indices are excluded
  // through the filter. A plain single allocation with no access-control
  // metadata in play needs no filter at all — the common fast path.
  std::vector<std::size_t> picked;
  std::size_t examined = 0;
  bool oversubscribed = false;
  std::function<bool(std::size_t, const sched::CacheEntry&)> pick_filter;
  if (needs_meta_filter || is_reservation || want > 1) {
    pick_filter = [this, &meta_allows, &picked, is_reservation,
                   needs_meta_filter, resv_start, resv_end](
                      std::size_t i, const sched::CacheEntry& entry) {
      if (std::find(picked.begin(), picked.end(), i) != picked.end()) {
        return false;
      }
      if (is_reservation &&
          !reservations_.IsFree(entry.id, resv_start, resv_end)) {
        return false;
      }
      return !needs_meta_filter || meta_allows(i, entry);
    };
    sel_ctx.filter = &pick_filter;
  }
  while (picked.size() < want) {
    sched::Selection selection = index_ ? index_->Select(cache_, sel_ctx)
                                        : policy_->Select(cache_, sel_ctx);
    if (!selection.found() && config_.allow_oversubscribe &&
        !is_reservation) {
      // Every machine is at its ceiling: time-share the least-loaded one
      // that passes access control.
      double best_load = 0.0;
      for (std::size_t i = 0; i < cache_.size(); ++i) {
        ++selection.examined;
        if (cache_[i].load >= kUnusableLoad) continue;  // machine is down
        if (pick_filter && !pick_filter(i, cache_[i])) continue;
        if (!selection.found() || cache_[i].load < best_load) {
          selection.index = i;
          best_load = cache_[i].load;
        }
      }
      oversubscribed |= selection.found();
    }
    examined += selection.examined;
    if (!selection.found()) break;
    picked.push_back(selection.index);
  }

  sched::Selection selection;  // summary view for the reply logic below
  if (picked.size() == want) selection.index = picked.front();
  selection.examined = examined;

  stats_.entries_examined += selection.examined;
  ctx.Consume(config_.costs.pool_per_machine *
              static_cast<SimDuration>(selection.examined));

  if (!selection.found() && !picked.empty()) {
    // Partial co-allocation: all-or-nothing, so nothing was committed
    // (loads are only bumped once the full set is granted below).
    picked.clear();
  }

  // Aggregation metadata that must survive this stage: the reintegrator
  // needs the final client address and the QoS mode on every fragment
  // result (all state travels with the messages, §6).
  auto propagate = [&message](net::Message& out) {
    for (const auto key : {phdr::kFinalReplyTo, phdr::kQosFirstMatch}) {
      if (message.HasHeader(key)) {
        out.SetHeader(key, message.Header(key));
      }
    }
  };

  if (!selection.found()) {
    ++stats_.failures;
    if (!reply_to.empty()) {
      net::Message failure =
          MakeFailureMessage(request_id,
                             "no machine available in pool '" +
                                 config_.pool_name + "'",
                             frag_index, frag_total);
      propagate(failure);
      ctx.Send(reply_to, std::move(failure));
    }
    return;
  }
  if (oversubscribed) ++stats_.oversubscribed;

  const std::string session_key = MakeSessionKey(ctx);
  if (is_reservation) {
    // A booking promises future capacity; present load is untouched.
    for (const std::size_t index : picked) {
      reservations_.Book(cache_[index].id, resv_start, resv_end, session_key);
    }
    reservation_sessions_.insert(session_key);
    ++stats_.reservations;
  } else {
    for (const std::size_t index : picked) {
      cache_[index].active_jobs += 1;
      cache_[index].load += 1.0;
      Touch(index);
    }
  }

  const sched::CacheEntry& chosen = cache_[picked.front()];
  const EntryMeta& primary = meta_[pos_slot_[picked.front()]];
  Allocation allocation;
  allocation.machine_name = primary.name;
  allocation.machine_id = chosen.id;
  allocation.port = primary.execution_port;
  allocation.session_key = session_key;
  allocation.pool_name = config_.pool_name;
  allocation.pool_address = ctx.self();
  allocation.machine_load = chosen.load;
  allocation.request_id = request_id;
  allocation.fragment_index = frag_index;
  allocation.fragment_total = frag_total;

  if (shadows_ != nullptr && !primary.shadow_pool.empty()) {
    auto* pool = shadows_->Find(primary.shadow_pool);
    if (pool != nullptr) {
      auto uid = pool->Acquire(allocation.session_key);
      if (uid.ok()) {
        allocation.shadow_uid = *uid;
        session_uid_[allocation.session_key] = *uid;
      }
    }
  }

  std::vector<std::uint32_t>& session_slots =
      session_entry_[allocation.session_key];
  session_slots.clear();
  for (const std::size_t index : picked) {
    session_slots.push_back(pos_slot_[index]);
  }
  ++stats_.allocations;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(ctx.Now(), obs::FlightKind::kPoolClaim,
                             request_id, ctx.self(),
                             config_.pool_name + " -> " + primary.name);
  }
  if (!reply_to.empty()) {
    net::Message out = MakeAllocationMessage(allocation);
    if (is_reservation) {
      out.SetHeader("reserved-start", std::to_string(ToSeconds(resv_start)));
      out.SetHeader("reserved-end", std::to_string(ToSeconds(resv_end)));
    }
    if (picked.size() > 1) {
      // Co-allocated set: full machine list rides in one header so the
      // client can reach every member.
      std::vector<std::string> names;
      names.reserve(picked.size());
      for (const std::size_t index : picked) {
        names.push_back(meta_[pos_slot_[index]].name);
      }
      out.SetHeader("machines", Join(names, ","));
    }
    propagate(out);
    ctx.Send(reply_to, std::move(out));
  }
}

void ResourcePool::HandleRelease(const net::Envelope& envelope,
                                 net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  const std::string session = message.Header(net::hdr::kSessionKey);
  ctx.Consume(config_.costs.pool_fixed / 2);

  auto it = session_entry_.find(session);
  if (it == session_entry_.end()) {
    ACTYP_DEBUG << "pool '" << config_.pool_name
                << "': release for unknown session";
    return;
  }
  if (reservation_sessions_.erase(session) > 0) {
    // Cancelling a booking frees the future window, not present load.
    reservations_.Cancel(session);
  } else {
    for (const std::uint32_t slot : it->second) {
      const std::size_t pos = slot_pos_[slot];
      sched::CacheEntry& entry = cache_[pos];
      entry.active_jobs = std::max(0, entry.active_jobs - 1);
      entry.load = std::max(0.0, entry.load - 1.0);
      Touch(pos);
    }
  }

  auto uid_it = session_uid_.find(session);
  if (uid_it != session_uid_.end()) {
    if (shadows_ != nullptr && !it->second.empty()) {
      auto* pool = shadows_->Find(meta_[it->second.front()].shadow_pool);
      if (pool != nullptr) pool->Release(uid_it->second, session);
    }
    session_uid_.erase(uid_it);
  }
  session_entry_.erase(it);
  ++stats_.releases;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(ctx.Now(), obs::FlightKind::kPoolRelease, 0,
                             ctx.self(), "session " + session);
  }
}

void ResourcePool::HandleTick(net::NodeContext& ctx) {
  const std::size_t refreshed = RefreshFromDatabase();
  if (policy_->indexed()) {
    // Indexed policies never reorder the cache. The dirty-id refresh
    // already re-positioned each touched entry in O(log n), so the tick
    // costs O(changed machines); only a full sweep (a stale cursor) pays
    // the O(n) heapify inside RefreshFromDatabase.
    ctx.Consume(config_.costs.pool_sort_per_machine *
                static_cast<SimDuration>(refreshed));
  } else {
    // The linear-* model re-sorts: the cache order decides the stride
    // classes and the tie-breaks the scan resolves.
    Resort(ctx);
  }
  reservations_.Prune(ctx.Now());
  ctx.ScheduleSelf(config_.resort_period, net::Message{net::msg::kTick});
}

void ResourcePool::ApplyRecord(std::size_t pos, const db::MachineRecord& rec) {
  sched::CacheEntry& entry = cache_[pos];
  if (!rec.IsUsable()) {
    // The machine went down or was blocked since the last sweep: make
    // it unselectable (by any policy, including the oversubscribe
    // fallback) until it comes back.
    entry.load = kUnusableLoad;
    entry.updated = rec.dyn.last_update;
    return;
  }
  // Background load from the monitor plus this pool's own allocations.
  entry.load = rec.dyn.load + static_cast<double>(entry.active_jobs);
  entry.available_memory_mb = rec.dyn.available_memory_mb;
  entry.updated = rec.dyn.last_update;
}

std::size_t ResourcePool::RefreshFromDatabase() {
  ++stats_.refresh_ticks;
  // One pass over the journal entries after the cursor, in place: only
  // this pool's ids are kept, once each.
  fetch_slots_.clear();
  const auto cursor =
      database_->ForEachChangeSince(db_cursor_, [this](db::MachineId id) {
        const std::size_t slot = slots_.Find(id);
        if (slot == SlotIndex::kNone || fetch_seen_[slot] != 0) return;
        fetch_seen_[slot] = 1;
        fetch_slots_.push_back(static_cast<std::uint32_t>(slot));
      });
  if (cursor.has_value()) {
    db_cursor_ = *cursor;
    if (!fetch_slots_.empty()) {
      fetch_ids_.clear();
      for (const std::uint32_t slot : fetch_slots_) {
        fetch_ids_.push_back(slot_ids_[slot]);
        fetch_seen_[slot] = 0;
      }
      // A re-sorting pool leaves its index stale for the Resort that
      // follows to rebuild: a per-entry update would be wasted.
      database_->VisitRecords(
          fetch_ids_, [this](std::size_t i, const db::MachineRecord* rec) {
            if (rec == nullptr) return;
            const std::size_t pos = slot_pos_[fetch_slots_[i]];
            ApplyRecord(pos, *rec);
            if (policy_->indexed()) {
              index_->Update(cache_, pos);
            } else {
              Mark(pos);
            }
          });
      index_stale_ = !policy_->indexed();
    }
    stats_.entries_refreshed += fetch_slots_.size();
    return fetch_slots_.size();
  }
  // The cursor predates the db's retained change journal: re-anchor and
  // sweep every cached record once.
  db_cursor_ = database_->version();
  database_->VisitRecords(
      slot_ids_, [this](std::size_t slot, const db::MachineRecord* rec) {
        if (rec != nullptr) ApplyRecord(slot_pos_[slot], *rec);
      });
  if (policy_->indexed()) {
    index_->Rebuild(cache_);
  } else {
    for (std::size_t pos = 0; pos < cache_.size(); ++pos) Mark(pos);
    index_stale_ = true;
  }
  stats_.entries_refreshed += cache_.size();
  return cache_.size();
}

void ResourcePool::Touch(std::size_t pos) {
  if (index_) index_->Update(cache_, pos);
  if (!policy_->indexed()) Mark(pos);
}

void ResourcePool::Mark(std::size_t pos) {
  if (is_marked_[pos] != 0) return;
  is_marked_[pos] = 1;
  marked_.push_back(static_cast<std::uint32_t>(pos));
}

void ResourcePool::Resort(net::NodeContext& ctx) {
  ctx.Consume(config_.costs.pool_sort_per_machine *
              static_cast<SimDuration>(cache_.size()));
  // Unmarked entries are still in order: nothing marked, nothing moves.
  if (marked_.empty()) return;
  for (const std::uint32_t pos : marked_) is_marked_[pos] = 0;
  const bool moved =
      sched::StableResortOrder(*policy_, cache_, &marked_, &sort_order_);
  marked_.clear();
  if (moved) {
    // Apply the permutation in place, one cycle at a time: position j
    // takes the entry at sort_order_[j], which is then reset to j so a
    // later start skips the finished cycle. Only cache_ and the two
    // position <-> slot maps move.
    for (std::uint32_t start = 0; start < sort_order_.size(); ++start) {
      if (sort_order_[start] == start) continue;
      const sched::CacheEntry entry = cache_[start];
      const std::uint32_t slot = pos_slot_[start];
      std::uint32_t j = start;
      for (std::uint32_t from = sort_order_[j]; from != start;
           from = sort_order_[j]) {
        cache_[j] = cache_[from];
        pos_slot_[j] = pos_slot_[from];
        slot_pos_[pos_slot_[j]] = j;
        sort_order_[j] = j;
        j = from;
      }
      cache_[j] = entry;
      pos_slot_[j] = slot;
      slot_pos_[slot] = j;
      sort_order_[j] = j;
    }
  }
  // Allocations and releases kept the index current; a move or the
  // refresh's skipped updates need a rebuild.
  if (index_ && (moved || index_stale_)) index_->Rebuild(cache_);
  index_stale_ = false;
}

std::string ResourcePool::MakeSessionKey(net::NodeContext& ctx) {
  static const char kHex[] = "0123456789abcdef";
  std::string key = "sess-";
  for (int i = 0; i < 4; ++i) {
    std::uint64_t word = ctx.rng().Next();
    for (int j = 0; j < 8; ++j) {
      key += kHex[word & 0xF];
      word >>= 4;
    }
  }
  return key;
}

}  // namespace actyp::pipeline
