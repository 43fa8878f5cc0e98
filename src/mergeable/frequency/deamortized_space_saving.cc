#include "mergeable/frequency/deamortized_space_saving.h"

#include <algorithm>
#include <cmath>
#include <functional>
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

void DeamortizedSpaceSaving::ResetTo(const std::vector<Entry>& entries,
                                     uint64_t v, uint64_t theta) {
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
  theta_ = theta;
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
  ResetTo(entries, v, slack + v);
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

  std::vector<Entry> merged;
  merged.reserve(combined.size());
  for (const Counter& counter : combined) {
    merged.push_back(Entry{counter.item, counter.count, 0});
  }
  n_ += other.n_;
  ResetTo(merged, v, UnderSlack() + other.UnderSlack() + v);
}

void DeamortizedSpaceSaving::Canonicalize() {
  std::vector<Entry> entries = EffectiveEntries();
  SpaceSaving::SortInWireOrder(entries);
  // DecodeFrom treats a full table as a SpaceSaving state (R2 branch);
  // this class never holds one: an update that fills the active table
  // swaps it out, and the effective view is what the active table holds
  // once the pending drain finishes, which always has room (see the
  // header comment).
  MERGEABLE_DCHECK(entries.size() < static_cast<size_t>(table_capacity_));
  ResetTo(entries, 0, UnderSlack());
}

void DeamortizedSpaceSaving::EncodeTo(ByteWriter& writer) const {
  SpaceSaving::WriteWire(writer, table_capacity_, n_, UnderSlack(),
                         EffectiveEntries());
}

std::optional<DeamortizedSpaceSaving> DeamortizedSpaceSaving::DecodeFrom(
    ByteReader& reader) {
  const std::optional<SpaceSaving> decoded = SpaceSaving::DecodeFrom(reader);
  if (!decoded.has_value()) return std::nullopt;
  DeamortizedSpaceSaving summary(decoded->capacity());
  // A full table is (potentially) a SpaceSaving state, whose counts
  // overestimate. Apply the Agarwal et al. R2 isomorphism — subtract
  // the minimum counter from every counter (ScanMinCount is 0 unless
  // the table is full), fold it into theta — so the counts obey this
  // class's lower-bound invariants. Payloads this class produces always
  // carry fewer entries than the capacity field, so its own encodings
  // round-trip without renormalizing.
  const uint64_t min = decoded->ScanMinCount();
  for (const Entry& entry : decoded->entries_) {
    if (entry.count == min) continue;  // Dropped by the isomorphism.
    const uint64_t count = entry.count - min;
    summary.AppendActive(entry.item, count, std::min(entry.over, count));
  }
  summary.n_ = decoded->n();
  summary.theta_ = decoded->UnderSlack() + min;
  return summary;
}

}  // namespace mergeable
