#include "mergeable/frequency/deamortized_space_saving.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

DeamortizedSpaceSaving::DeamortizedSpaceSaving(int capacity) {
  MERGEABLE_CHECK_MSG(capacity >= 2,
                      "DeamortizedSpaceSaving capacity must be >= 2");
  guarantee_ = std::max(2, (capacity + 1) / 2);
  table_capacity_ = 2 * guarantee_;
  // Cap the pre-reserve: `capacity` can come off the wire (DecodeFrom),
  // and a hostile header must not pre-allocate gigabytes. Vectors grow
  // geometrically past the cap, so large legitimate capacities stay fast.
  const size_t reserve = std::min<size_t>(
      static_cast<size_t>(table_capacity_), size_t{1} << 16);
  active_.reserve(reserve);
  passive_.reserve(reserve);
  active_index_.Reserve(reserve);
  passive_index_.Reserve(reserve);
  select_heap_.reserve(std::min<size_t>(
      static_cast<size_t>(guarantee_) + 1, size_t{1} << 16));
}

DeamortizedSpaceSaving DeamortizedSpaceSaving::ForEpsilon(double epsilon) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon <= 1.0,
                      "epsilon must be in (0, 1]");
  const int k = std::max(2, static_cast<int>(std::ceil(1.0 / epsilon)));
  return DeamortizedSpaceSaving(2 * k);
}

void DeamortizedSpaceSaving::PushSelect(uint64_t count) {
  const size_t keep = static_cast<size_t>(guarantee_) + 1;
  if (select_heap_.size() < keep) {
    select_heap_.push_back(count);
    std::push_heap(select_heap_.begin(), select_heap_.end(),
                   std::greater<uint64_t>());
    return;
  }
  if (count <= select_heap_.front()) return;
  std::pop_heap(select_heap_.begin(), select_heap_.end(),
                std::greater<uint64_t>());
  select_heap_.back() = count;
  std::push_heap(select_heap_.begin(), select_heap_.end(),
                 std::greater<uint64_t>());
}

void DeamortizedSpaceSaving::AppendActive(uint64_t item, uint64_t count,
                                          uint64_t over) {
  active_.push_back(Entry{item, count, over});
  active_index_.Insert(item, static_cast<uint32_t>(active_.size() - 1));
}

void DeamortizedSpaceSaving::CopySurvivor(const Entry& entry) {
  const uint64_t pending = entry.count - m_;
  const uint64_t over = std::min(entry.over, pending);
  if (const uint32_t* slot = active_index_.Find(entry.item)) {
    // The item re-entered the active table while frozen: the survivor's
    // mass joins additively, exactly the value queries already reported
    // through the effective view.
    Entry& live = active_[*slot];
    live.count += pending;
    live.over = std::min(live.over + over, live.count);
    return;
  }
  AppendActive(entry.item, pending, over);
}

bool DeamortizedSpaceSaving::MaintenanceStep(size_t steps) {
  while (steps > 0 && phase_ != Phase::kIdle) {
    if (phase_ == Phase::kSelect) {
      if (select_pos_ < passive_.size()) {
        PushSelect(passive_[select_pos_].count);
        ++select_pos_;
        --steps;
      } else {
        // Fewer than k+1 entries would mean no decrement; unreachable
        // (a swap requires a full table, C = 2k > k), but harmless.
        m_ = select_heap_.size() == static_cast<size_t>(guarantee_) + 1
                 ? select_heap_.front()
                 : 0;
        phase_ = Phase::kCopy;
      }
    } else {
      if (drain_pos_ < passive_.size()) {
        const Entry& entry = passive_[drain_pos_];
        if (entry.count > m_) CopySurvivor(entry);
        ++drain_pos_;
        --steps;
      } else {
        theta_ += m_;
        m_ = 0;
        passive_.clear();
        passive_index_.Clear();
        phase_ = Phase::kIdle;
      }
    }
  }
  // Zero-cost epilogues (the phase transitions above) may still be due
  // even when the visit budget ran out exactly at a boundary.
  if (phase_ == Phase::kSelect && select_pos_ == passive_.size()) {
    m_ = select_heap_.size() == static_cast<size_t>(guarantee_) + 1
             ? select_heap_.front()
             : 0;
    phase_ = Phase::kCopy;
  }
  if (phase_ == Phase::kCopy && drain_pos_ == passive_.size()) {
    theta_ += m_;
    m_ = 0;
    passive_.clear();
    passive_index_.Clear();
    phase_ = Phase::kIdle;
  }
  return phase_ == Phase::kIdle;
}

void DeamortizedSpaceSaving::FinishMaintenance() {
  while (phase_ != Phase::kIdle) {
    MaintenanceStep(passive_.size() + 2);
  }
}

void DeamortizedSpaceSaving::Swap() {
  MERGEABLE_DCHECK(phase_ == Phase::kIdle);
  std::swap(active_, passive_);
  std::swap(active_index_, passive_index_);
  active_.clear();        // Trivial elements: O(1).
  active_index_.Clear();  // Generation bump: O(1).
  select_heap_.clear();
  phase_ = Phase::kSelect;
  select_pos_ = 0;
  drain_pos_ = 0;
  m_ = 0;
  select_m_cached_ = false;
  ++swaps_;
}

void DeamortizedSpaceSaving::Update(uint64_t item, uint64_t weight) {
  if (weight == 0) return;
  // Maintenance first: the quota arithmetic (header comment) then
  // guarantees the drain completes before the active table refills.
  if (phase_ != Phase::kIdle) MaintenanceStep(kMaintenanceQuota);
  n_ += weight;
  if (const uint32_t* slot = active_index_.Find(item)) {
    // The hot path: one probe, one add.
    active_[*slot].count += weight;
    return;
  }
  AppendActive(item, weight, 0);
  if (active_.size() >= static_cast<size_t>(table_capacity_)) {
    if (phase_ != Phase::kIdle) {
      // Unreachable by the quota arithmetic; kept so a future constant
      // change degrades to amortized behavior instead of corruption.
      FinishMaintenance();
      ++stalls_;
    }
    Swap();
  }
}

void DeamortizedSpaceSaving::UpdateBatch(const uint64_t* items, size_t count) {
  for (size_t i = 0; i < count; ++i) Update(items[i]);
}

uint64_t DeamortizedSpaceSaving::EffectiveM() const {
  switch (phase_) {
    case Phase::kIdle:
      return 0;
    case Phase::kCopy:
      return m_;
    case Phase::kSelect:
      break;
  }
  // SELECT still running: compute the same (k+1)-th-largest order
  // statistic directly. The passive table is frozen for the whole
  // phase, so the value is cached until the next swap.
  if (select_m_cached_) return cached_select_m_;
  const size_t keep = static_cast<size_t>(guarantee_) + 1;
  if (passive_.size() < keep) {
    cached_select_m_ = 0;
  } else {
    std::vector<uint64_t> counts;
    counts.reserve(passive_.size());
    for (const Entry& entry : passive_) counts.push_back(entry.count);
    const size_t rank = counts.size() - keep;  // Ascending-order index.
    std::nth_element(counts.begin(),
                     counts.begin() + static_cast<ptrdiff_t>(rank),
                     counts.end());
    cached_select_m_ = counts[rank];
  }
  select_m_cached_ = true;
  return cached_select_m_;
}

uint64_t DeamortizedSpaceSaving::PassivePending(uint64_t item, uint64_t m,
                                                uint64_t* over) const {
  *over = 0;
  if (phase_ == Phase::kIdle) return 0;
  const uint32_t* slot = passive_index_.Find(item);
  if (slot == nullptr || *slot < drain_pos_) return 0;
  const Entry& entry = passive_[*slot];
  if (entry.count <= m) return 0;
  const uint64_t pending = entry.count - m;
  *over = std::min(entry.over, pending);
  return pending;
}

std::vector<DeamortizedSpaceSaving::Entry>
DeamortizedSpaceSaving::EffectiveEntries() const {
  const uint64_t m = EffectiveM();
  std::vector<Entry> result;
  result.reserve(active_.size() + static_cast<size_t>(guarantee_));
  for (const Entry& entry : active_) {
    Entry effective = entry;
    uint64_t over = 0;
    const uint64_t pending = PassivePending(entry.item, m, &over);
    effective.count += pending;
    effective.over = std::min(effective.over + over, effective.count);
    result.push_back(effective);
  }
  if (phase_ != Phase::kIdle) {
    for (size_t i = drain_pos_; i < passive_.size(); ++i) {
      const Entry& entry = passive_[i];
      if (entry.count <= m) continue;
      if (active_index_.Find(entry.item) != nullptr) continue;  // Combined.
      const uint64_t pending = entry.count - m;
      result.push_back(Entry{entry.item, pending, std::min(entry.over, pending)});
    }
  }
  return result;
}

size_t DeamortizedSpaceSaving::size() const {
  if (phase_ == Phase::kIdle) return active_.size();
  return EffectiveEntries().size();
}

uint64_t DeamortizedSpaceSaving::Count(uint64_t item) const {
  uint64_t total = 0;
  if (const uint32_t* slot = active_index_.Find(item)) {
    total += active_[*slot].count;
  }
  uint64_t over = 0;
  total += PassivePending(item, EffectiveM(), &over);
  return total;
}

uint64_t DeamortizedSpaceSaving::UpperEstimate(uint64_t item) const {
  return Count(item) + UnderSlack();
}

uint64_t DeamortizedSpaceSaving::LowerEstimate(uint64_t item) const {
  uint64_t count = 0;
  uint64_t over = 0;
  if (const uint32_t* slot = active_index_.Find(item)) {
    count = active_[*slot].count;
    over = active_[*slot].over;
  }
  uint64_t pending_over = 0;
  const uint64_t pending =
      PassivePending(item, EffectiveM(), &pending_over);
  count += pending;
  over = std::min(over + pending_over, count);
  return count - over;
}

std::vector<Counter> DeamortizedSpaceSaving::Counters() const {
  std::vector<Counter> result;
  const std::vector<Entry> entries = EffectiveEntries();
  result.reserve(entries.size());
  for (const Entry& entry : entries) {
    result.push_back(Counter{entry.item, entry.count});
  }
  SortByCountDescending(result);
  return result;
}

std::vector<Counter> DeamortizedSpaceSaving::FrequentItems(
    uint64_t threshold) const {
  const uint64_t slack = UnderSlack();
  std::vector<Counter> result;
  for (const Entry& entry : EffectiveEntries()) {
    if (entry.count + slack >= threshold) {
      result.push_back(Counter{entry.item, entry.count});
    }
  }
  SortByCountDescending(result);
  return result;
}

void DeamortizedSpaceSaving::Resize(int new_capacity) {
  MERGEABLE_CHECK_MSG(new_capacity >= 2,
                      "DeamortizedSpaceSaving capacity must be >= 2");
  const int new_guarantee = std::max(2, (new_capacity + 1) / 2);
  if (new_guarantee == guarantee_) return;
  // Work from the effective state (drain-progress-independent), so a
  // resize mid-drain gives the same result as one after FinishMaintenance.
  std::vector<Entry> entries = EffectiveEntries();
  const uint64_t slack = UnderSlack();
  uint64_t v = 0;
  if (new_guarantee < guarantee_) {
    // Shrink: prune with the (k'+1)-th largest effective count, the
    // same cut one side of Merge takes. At most k' counters can exceed
    // v, so the survivors fit the new half-full table.
    const size_t keep = static_cast<size_t>(new_guarantee);
    if (entries.size() > keep) {
      const auto nth = entries.begin() + static_cast<ptrdiff_t>(keep);
      std::nth_element(entries.begin(), nth, entries.end(),
                       [](const Entry& a, const Entry& b) {
                         return a.count > b.count;
                       });
      v = nth->count;
    }
  }
  guarantee_ = new_guarantee;
  table_capacity_ = 2 * new_guarantee;
  active_.clear();
  active_index_.Clear();
  passive_.clear();
  passive_index_.Clear();
  select_heap_.clear();
  phase_ = Phase::kIdle;
  select_pos_ = 0;
  drain_pos_ = 0;
  m_ = 0;
  select_m_cached_ = false;
  for (const Entry& entry : entries) {
    if (entry.count > v) {
      const uint64_t count = entry.count - v;
      AppendActive(entry.item, count, std::min(entry.over, count));
    }
  }
  theta_ = slack + v;
}

std::vector<DeamortizedSpaceSaving> DeamortizedSpaceSaving::Split(
    size_t parts, const std::function<size_t(uint64_t)>& partition) const {
  MERGEABLE_CHECK_MSG(parts >= 1, "Split needs at least one part");
  std::vector<DeamortizedSpaceSaving> result;
  result.reserve(parts);
  for (size_t i = 0; i < parts; ++i) {
    result.emplace_back(table_capacity_);
  }
  // θ floor: an item this summary is not tracking — whichever part it
  // belongs to — could have frequency up to UnderSlack().
  const uint64_t floor = UnderSlack();
  uint64_t attributed = 0;
  for (const Entry& entry : EffectiveEntries()) {
    const size_t part = partition(entry.item);
    MERGEABLE_CHECK_MSG(part < parts, "partition index out of range");
    result[part].AppendActive(entry.item, entry.count, entry.over);
    attributed += entry.count;
  }
  MERGEABLE_DCHECK(attributed <= n_);
  const uint64_t residual = n_ - attributed;
  const uint64_t share = residual / parts;
  const uint64_t remainder = residual % parts;
  for (size_t i = 0; i < parts; ++i) {
    DeamortizedSpaceSaving& part = result[i];
    uint64_t base = 0;
    for (const Entry& entry : part.active_) base += entry.count;
    part.n_ = base + share + (i < remainder ? 1 : 0);
    part.theta_ = floor;
  }
  return result;
}

void DeamortizedSpaceSaving::Merge(const DeamortizedSpaceSaving& other) {
  if (guarantee_ != other.guarantee_) {
    // Fold the larger-k operand down to the smaller lattice first; the
    // fold's θ widening lands in that side's slack before the symmetric
    // equal-guarantee merge, so merge order cannot change bytes.
    const int target = std::min(guarantee_, other.guarantee_);
    if (guarantee_ > target) Resize(2 * target);
    if (other.guarantee_ > target) {
      DeamortizedSpaceSaving folded = other;
      folded.Resize(2 * target);
      Merge(folded);
      return;
    }
  }
  const auto to_counters = [](const std::vector<Entry>& entries) {
    std::vector<Counter> counters;
    counters.reserve(entries.size());
    for (const Entry& entry : entries) {
      counters.push_back(Counter{entry.item, entry.count});
    }
    return counters;
  };
  std::vector<Counter> combined = CombineCounters(
      to_counters(EffectiveEntries()), to_counters(other.EffectiveEntries()));

  // Prune to k counters with the Frequent merge through the MG
  // isomorphism: subtract the (k+1)-th largest combined value from
  // every counter. At least k+1 counters each lose v, so the decrement
  // telescopes like the streaming one.
  uint64_t v = 0;
  const size_t keep = static_cast<size_t>(guarantee_);
  if (combined.size() > keep) {
    const auto nth = combined.begin() + static_cast<ptrdiff_t>(keep);
    std::nth_element(combined.begin(), nth, combined.end(),
                     [](const Counter& a, const Counter& b) {
                       return a.count > b.count;
                     });
    v = nth->count;
  }

  const uint64_t total_n = n_ + other.n_;
  const uint64_t total_theta = UnderSlack() + other.UnderSlack() + v;
  active_.clear();
  active_index_.Clear();
  passive_.clear();
  passive_index_.Clear();
  phase_ = Phase::kIdle;
  m_ = 0;
  select_m_cached_ = false;
  for (const Counter& counter : combined) {
    if (counter.count > v) {
      AppendActive(counter.item, counter.count - v, 0);
    }
  }
  n_ = total_n;
  theta_ = total_theta;
}

namespace {
constexpr uint32_t kSpaceSavingMagic = 0x31305353;  // "SS01"

// Canonical order (descending count, ties by item): the bytes depend
// only on the effective state, not on drain progress or table layout.
constexpr auto kWireOrder = [](const auto& a, const auto& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.item < b.item;
};
}  // namespace

void DeamortizedSpaceSaving::Canonicalize() {
  std::vector<Entry> entries = EffectiveEntries();
  std::sort(entries.begin(), entries.end(), kWireOrder);
  // Read before the reset below zeroes the pending decrement m.
  const uint64_t under_slack = UnderSlack();
  active_.clear();
  active_index_.Clear();
  passive_.clear();
  passive_index_.Clear();
  select_heap_.clear();
  phase_ = Phase::kIdle;
  select_pos_ = 0;
  drain_pos_ = 0;
  m_ = 0;
  select_m_cached_ = false;
  theta_ = under_slack;
  // DecodeFrom treats a full table as a SpaceSaving state (R2 branch);
  // this class never holds one: an update that fills the active table
  // swaps it out, and the effective view is what the active table holds
  // once the pending drain finishes, which always has room (see the
  // header comment).
  MERGEABLE_DCHECK(entries.size() < static_cast<size_t>(table_capacity_));
  for (const Entry& entry : entries) {
    AppendActive(entry.item, entry.count, entry.over);
  }
}

void DeamortizedSpaceSaving::EncodeTo(ByteWriter& writer) const {
  std::vector<Entry> entries = EffectiveEntries();
  std::sort(entries.begin(), entries.end(), kWireOrder);
  writer.PutU32(kSpaceSavingMagic);
  writer.PutU32(static_cast<uint32_t>(table_capacity_));
  writer.PutU64(n_);
  writer.PutU64(UnderSlack());
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Entry& entry : entries) {
    writer.PutU64(entry.item);
    writer.PutU64(entry.count);
    writer.PutU64(entry.over);
  }
}

std::optional<DeamortizedSpaceSaving> DeamortizedSpaceSaving::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t capacity = 0;
  uint64_t n = 0;
  uint64_t under_slack = 0;
  uint32_t count = 0;
  if (!reader.GetU32(&magic) || magic != kSpaceSavingMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&capacity) || capacity < 2 || capacity > (1u << 30)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&n) || !reader.GetU64(&under_slack) ||
      !reader.GetU32(&count) || count > capacity) {
    return std::nullopt;
  }
  // Each entry needs 24 encoded bytes; reject counts the input cannot
  // back before building the summary.
  if (static_cast<uint64_t>(count) * 24 > reader.remaining()) {
    return std::nullopt;
  }
  std::vector<Entry> entries;
  entries.reserve(count);
  FlatMap<uint32_t> seen(count);
  uint64_t total = 0;
  uint64_t min_count = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    if (!reader.GetU64(&entry.item) || !reader.GetU64(&entry.count) ||
        !reader.GetU64(&entry.over)) {
      return std::nullopt;
    }
    if (entry.count == 0 || entry.over > entry.count) return std::nullopt;
    if (seen.Find(entry.item) != nullptr) return std::nullopt;
    seen.Insert(entry.item, i);
    // Invariant for every reachable state: counters never outweigh the
    // stream. Checked before the add, so the running sum cannot wrap.
    if (entry.count > n - total) return std::nullopt;
    total += entry.count;
    min_count = i == 0 ? entry.count : std::min(min_count, entry.count);
    entries.push_back(entry);
  }
  if (!reader.Exhausted()) return std::nullopt;

  DeamortizedSpaceSaving summary(static_cast<int>(capacity));
  if (count == capacity) {
    // A full table is (potentially) a SpaceSaving state, whose counts
    // overestimate. Apply the Agarwal et al. R2 isomorphism — subtract
    // the minimum counter from every counter, fold it into theta — so
    // the counts obey this class's lower-bound invariants. Payloads
    // this class produces always carry fewer entries than the capacity
    // field, so its own encodings round-trip without renormalizing.
    under_slack += min_count;
    for (Entry& entry : entries) {
      entry.count -= min_count;
      entry.over = std::min(entry.over, entry.count);
    }
  }
  for (const Entry& entry : entries) {
    if (entry.count == 0) continue;  // Dropped by the isomorphism.
    summary.AppendActive(entry.item, entry.count, entry.over);
  }
  summary.n_ = n;
  summary.theta_ = under_slack;
  return summary;
}

// ---- ConcurrentDeamortizedSpaceSaving ----

ConcurrentDeamortizedSpaceSaving::ConcurrentDeamortizedSpaceSaving(
    int capacity, ThreadPool* pool)
    : core_(capacity), pool_(pool), group_(*pool) {
  MERGEABLE_CHECK_MSG(pool != nullptr,
                      "ConcurrentDeamortizedSpaceSaving needs a pool");
}

ConcurrentDeamortizedSpaceSaving::ConcurrentDeamortizedSpaceSaving(
    DeamortizedSpaceSaving core, ThreadPool* pool)
    : core_(std::move(core)), pool_(pool), group_(*pool) {
  MERGEABLE_CHECK_MSG(pool != nullptr,
                      "ConcurrentDeamortizedSpaceSaving needs a pool");
}

ConcurrentDeamortizedSpaceSaving ConcurrentDeamortizedSpaceSaving::ForEpsilon(
    double epsilon, ThreadPool* pool) {
  return ConcurrentDeamortizedSpaceSaving(
      DeamortizedSpaceSaving::ForEpsilon(epsilon), pool);
}

ConcurrentDeamortizedSpaceSaving::~ConcurrentDeamortizedSpaceSaving() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // group_'s destructor waits for the drain task, which observes
  // stopping_ and exits. Members are destroyed in reverse declaration
  // order, so the group outlives nothing it uses — mu_ and core_ are
  // destroyed after it.
}

void ConcurrentDeamortizedSpaceSaving::KickLocked() {
  if (drain_running_ || stopping_ || !core_.maintenance_pending()) return;
  if (pool_->num_threads() <= 1) return;  // No workers: inline quota only.
  drain_running_ = true;
  ++drain_tasks_;
}

void ConcurrentDeamortizedSpaceSaving::DrainLoop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || !core_.maintenance_pending()) {
        drain_running_ = false;
        return;
      }
      core_.MaintenanceStep(kDrainChunk);
    }
    // Release the mutex between chunks so updates interleave; the
    // chunk size bounds how long any single acquisition blocks them.
    std::this_thread::yield();
  }
}

void ConcurrentDeamortizedSpaceSaving::Update(uint64_t item, uint64_t weight) {
  bool kick = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool was_running = drain_running_;
    core_.Update(item, weight);
    KickLocked();
    kick = drain_running_ && !was_running;
  }
  if (kick) {
    group_.Submit([this] { DrainLoop(); });
  }
}

void ConcurrentDeamortizedSpaceSaving::UpdateBatch(const uint64_t* items,
                                                   size_t count) {
  for (size_t i = 0; i < count; ++i) Update(items[i]);
}

void ConcurrentDeamortizedSpaceSaving::Resize(int new_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  // The core resize consumes any pending drain through the effective
  // state; a background DrainLoop chunk that wakes afterwards sees no
  // pending maintenance and exits.
  core_.Resize(new_capacity);
}

uint64_t ConcurrentDeamortizedSpaceSaving::Count(uint64_t item) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.Count(item);
}

uint64_t ConcurrentDeamortizedSpaceSaving::UpperEstimate(uint64_t item) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.UpperEstimate(item);
}

uint64_t ConcurrentDeamortizedSpaceSaving::LowerEstimate(uint64_t item) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.LowerEstimate(item);
}

uint64_t ConcurrentDeamortizedSpaceSaving::UnderSlack() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.UnderSlack();
}

uint64_t ConcurrentDeamortizedSpaceSaving::n() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.n();
}

int ConcurrentDeamortizedSpaceSaving::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.capacity();
}

std::vector<Counter> ConcurrentDeamortizedSpaceSaving::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.Counters();
}

std::vector<Counter> ConcurrentDeamortizedSpaceSaving::FrequentItems(
    uint64_t threshold) const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.FrequentItems(threshold);
}

void ConcurrentDeamortizedSpaceSaving::EncodeTo(ByteWriter& writer) const {
  std::lock_guard<std::mutex> lock(mu_);
  core_.EncodeTo(writer);
}

void ConcurrentDeamortizedSpaceSaving::Flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    core_.FinishMaintenance();
  }
  // The drain task (if any) sees no pending work and exits.
  group_.Wait();
}

DeamortizedSpaceSaving ConcurrentDeamortizedSpaceSaving::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_;
}

uint64_t ConcurrentDeamortizedSpaceSaving::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.swaps();
}

uint64_t ConcurrentDeamortizedSpaceSaving::maintenance_stalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return core_.maintenance_stalls();
}

uint64_t ConcurrentDeamortizedSpaceSaving::drain_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drain_tasks_;
}

}  // namespace mergeable
