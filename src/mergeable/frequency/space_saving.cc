#include "mergeable/frequency/space_saving.h"

#include <cstddef>

#include <algorithm>
#include <cmath>

#include "mergeable/util/check.h"

namespace mergeable {

namespace {
// Cap the pre-reserves: `capacity` can come off the wire (DecodeFrom),
// and a hostile header must not pre-allocate gigabytes. Vectors grow
// geometrically past the cap, so large legitimate capacities stay fast.
size_t ReserveFor(int capacity) {
  return std::min<size_t>(static_cast<size_t>(capacity), size_t{1} << 16);
}
}  // namespace

SpaceSaving::SpaceSaving(int capacity)
    : capacity_(capacity), index_(ReserveFor(capacity)) {
  MERGEABLE_CHECK_MSG(capacity >= 2, "SpaceSaving capacity must be >= 2");
  // The min-heap is reserved where it is built (RebuildMinHeap, the
  // replay): a summary that is only merged and encoded never needs one.
  entries_.reserve(ReserveFor(capacity));
}

SpaceSaving SpaceSaving::ForEpsilon(double epsilon) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon <= 1.0,
                      "epsilon must be in (0, 1]");
  const int capacity = std::max(2, static_cast<int>(std::ceil(1.0 / epsilon)));
  return SpaceSaving(capacity);
}

void SpaceSaving::AppendEntry(uint64_t item, uint64_t count, uint64_t over) {
  entries_.push_back(Entry{item, count, over});
  index_.Insert(item, static_cast<uint32_t>(entries_.size() - 1));
  MERGEABLE_DCHECK(min_heap_.empty());
}

void SpaceSaving::RebuildMinHeap() const {
  min_heap_.clear();
  min_heap_.reserve(entries_.size());
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& entry = entries_[slot];
    min_heap_.push_back(
        MinRef{entry.count, entry.item, static_cast<uint32_t>(slot)});
  }
  std::make_heap(min_heap_.begin(), min_heap_.end(), MinRefGreater);
}

uint64_t SpaceSaving::ScanMinCount() const {
  if (entries_.size() != static_cast<size_t>(capacity_)) return 0;
  uint64_t min = entries_.front().count;
  for (const Entry& entry : entries_) min = std::min(min, entry.count);
  return min;
}

uint32_t SpaceSaving::EnsureMinTop() const {
  MERGEABLE_DCHECK(!entries_.empty());
  // Bulk rebuild when the deferred maintenance ran the heap dry or let
  // dead snapshots pile up. Both happen at most once per O(k) updates,
  // so the O(k) scan amortizes to O(1).
  if (min_heap_.empty() || min_heap_.size() > 4 * entries_.size()) {
    RebuildMinHeap();
  }
  while (true) {
    if (min_heap_.empty()) {
      RebuildMinHeap();
      continue;
    }
    const MinRef top = min_heap_.front();
    const Entry& entry = entries_[top.slot];
    if (entry.item == top.item && entry.count == top.count) return top.slot;
    std::pop_heap(min_heap_.begin(), min_heap_.end(), MinRefGreater);
    min_heap_.pop_back();
    if (entry.item == top.item) {
      // The entry grew since this snapshot was taken. Refresh instead of
      // dropping: the refreshed copy keeps the entry reachable, and every
      // remaining heap key is a lower bound of its entry's count — so
      // when a snapshot validates at the top, it is the exact minimum
      // (same (count, item) tie-break as a strictly maintained heap).
      min_heap_.push_back(MinRef{entry.count, entry.item, top.slot});
      std::push_heap(min_heap_.begin(), min_heap_.end(), MinRefGreater);
    }
    // Otherwise the slot was reassigned to a different item, which pushed
    // its own fresh snapshot at eviction time; drop the dead copy.
  }
}

void SpaceSaving::Update(uint64_t item, uint64_t weight) {
  if (weight == 0) return;
  n_ += weight;
  if (const uint32_t* slot = index_.Find(item)) {
    // The hot path: one probe, one add. The entry's heap snapshots go
    // stale-low; EnsureMinTop repairs them if an eviction ever needs to.
    entries_[*slot].count += weight;
    return;
  }
  if (entries_.size() < static_cast<size_t>(capacity_)) {
    AppendEntry(item, weight, 0);
    return;
  }
  // Evict the minimum counter: the incoming item inherits its count (the
  // defining SpaceSaving move) and records it as potential overestimation.
  const uint32_t slot = EnsureMinTop();
  std::pop_heap(min_heap_.begin(), min_heap_.end(), MinRefGreater);
  min_heap_.pop_back();
  Entry& victim = entries_[slot];
  index_.Erase(victim.item);
  const uint64_t evicted = victim.count;
  victim = Entry{item, evicted + weight, evicted};
  index_.Insert(item, slot);
  min_heap_.push_back(MinRef{victim.count, item, slot});
  std::push_heap(min_heap_.begin(), min_heap_.end(), MinRefGreater);
}

void SpaceSaving::UpdateBatch(const uint64_t* items, size_t count) {
  for (size_t i = 0; i < count; ++i) Update(items[i]);
}

uint64_t SpaceSaving::Count(uint64_t item) const {
  const uint32_t* slot = index_.Find(item);
  return slot != nullptr ? entries_[*slot].count : 0;
}

uint64_t SpaceSaving::MinCount() const {
  if (entries_.size() != static_cast<size_t>(capacity_)) return 0;
  return entries_[EnsureMinTop()].count;
}

uint64_t SpaceSaving::UpperEstimate(uint64_t item) const {
  const uint32_t* slot = index_.Find(item);
  const uint64_t base =
      slot != nullptr ? entries_[*slot].count : MinCount();
  return base + under_slack_;
}

uint64_t SpaceSaving::LowerEstimate(uint64_t item) const {
  const uint32_t* slot = index_.Find(item);
  if (slot == nullptr) return 0;
  const Entry& entry = entries_[*slot];
  return entry.count - entry.over;
}

std::vector<Counter> SpaceSaving::Counters() const {
  std::vector<Counter> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    result.push_back(Counter{entry.item, entry.count});
  }
  SortByCountDescending(result);
  return result;
}

std::vector<Counter> SpaceSaving::FrequentItems(uint64_t threshold) const {
  std::vector<Counter> result;
  for (const Entry& entry : entries_) {
    if (entry.count + under_slack_ >= threshold) {
      result.push_back(Counter{entry.item, entry.count});
    }
  }
  SortByCountDescending(result);
  return result;
}

std::vector<Counter> SpaceSaving::MgDomainCounters(
    uint64_t* subtracted_min) const {
  const uint64_t min = MinCount();
  *subtracted_min = min;
  std::vector<Counter> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.count > min) {
      result.push_back(Counter{entry.item, entry.count - min});
    }
  }
  return result;
}

MisraGries SpaceSaving::ToMisraGries() const {
  uint64_t min = 0;
  std::vector<Counter> counters = MgDomainCounters(&min);
  return MisraGries::FromCounters(capacity_ - 1, counters, n_);
}

void SpaceSaving::Resize(int new_capacity) {
  MERGEABLE_CHECK_MSG(new_capacity >= 2, "SpaceSaving capacity must be >= 2");
  if (new_capacity == capacity_) return;
  if (new_capacity > capacity_) {
    // Growing. If the table is full, apply the R2 isomorphism first:
    // the unmonitored-item bound is MinCount() + slack, and a grown
    // table is no longer full (MinCount() drops to 0), so the minimum
    // must move into the slack for the bound to survive.
    if (entries_.size() == static_cast<size_t>(capacity_)) {
      const uint64_t min = MinCount();
      if (min > 0) {
        std::vector<Entry> kept;
        kept.reserve(entries_.size());
        for (const Entry& entry : entries_) {
          if (entry.count > min) {
            const uint64_t count = entry.count - min;
            kept.push_back(Entry{entry.item, count,
                                 std::min(entry.over, count)});
          }
        }
        entries_.clear();
        index_.Clear();
        InvalidateMinHeap();
        for (const Entry& entry : kept) {
          AppendEntry(entry.item, entry.count, entry.over);
        }
        under_slack_ += min;
      }
    }
    capacity_ = new_capacity;
    return;
  }
  // Shrinking: prune in the MG domain with the new capacity's order
  // statistic, exactly as Merge does for one operand.
  uint64_t min = 0;
  std::vector<Counter> counters = MgDomainCounters(&min);
  uint64_t v = 0;
  const size_t keep = static_cast<size_t>(new_capacity) - 1;
  if (counters.size() > keep) {
    const auto nth = counters.begin() + static_cast<ptrdiff_t>(keep);
    std::nth_element(counters.begin(), nth, counters.end(),
                     [](const Counter& a, const Counter& b) {
                       return a.count > b.count;
                     });
    v = nth->count;
  }
  capacity_ = new_capacity;
  entries_.clear();
  index_.Clear();
  InvalidateMinHeap();
  for (const Counter& counter : counters) {
    if (counter.count > v) {
      AppendEntry(counter.item, counter.count - v, 0);
    }
  }
  under_slack_ += min + v;
}

std::vector<SpaceSaving> SpaceSaving::Split(
    size_t parts, const std::function<size_t(uint64_t)>& partition) const {
  MERGEABLE_CHECK_MSG(parts >= 1, "Split needs at least one part");
  std::vector<SpaceSaving> result;
  result.reserve(parts);
  for (size_t i = 0; i < parts; ++i) result.emplace_back(capacity_);
  // The θ floor: an item this summary is not monitoring — whichever
  // part it belongs to — could have frequency up to MinCount() + slack.
  const uint64_t floor = MinCount();
  uint64_t attributed = 0;
  for (const Entry& entry : entries_) {
    const size_t part = partition(entry.item);
    MERGEABLE_CHECK_MSG(part < parts, "partition index out of range");
    result[part].AppendEntry(entry.item, entry.count, entry.over);
    attributed += entry.count;
  }
  MERGEABLE_DCHECK(attributed <= n_);
  // The residual n - Σ counts belongs to items the summary dropped; it
  // cannot be attributed to a part, so split it deterministically with
  // the remainder going to the lowest-index parts: Σ part n == n.
  const uint64_t residual = n_ - attributed;
  const uint64_t share = residual / parts;
  const uint64_t remainder = residual % parts;
  for (size_t i = 0; i < parts; ++i) {
    SpaceSaving& part = result[i];
    uint64_t base = 0;
    for (const Entry& entry : part.entries_) base += entry.count;
    part.n_ = base + share + (i < remainder ? 1 : 0);
    part.under_slack_ = under_slack_ + floor;
  }
  return result;
}

template <typename ForEachEntry>
void SpaceSaving::MergeEqualCapacity(uint64_t other_min, uint64_t other_n,
                                     uint64_t other_slack, size_t other_size,
                                     const ForEachEntry& for_each_entry) {
  // Move both sides into the MG domain (subtract each full side's
  // minimum; a count at or below it becomes 0) and add them pointwise.
  // Slot i of `combined` is this summary's entry i, so the other side's
  // items combine through index_; items only it monitors go at the end.
  // The other side is only read (it may be *this).
  const uint64_t min1 = ScanMinCount();
  const uint64_t min2 = other_min;
  const auto mg = [](uint64_t count, uint64_t min) {
    return count > min ? count - min : 0;
  };
  std::vector<Counter> combined;
  combined.reserve(entries_.size() + other_size);
  for (const Entry& entry : entries_) {
    combined.push_back(Counter{entry.item, mg(entry.count, min1)});
  }
  for_each_entry([&](uint64_t item, uint64_t entry_count) {
    const uint64_t count = mg(entry_count, min2);
    if (const uint32_t* slot = index_.Find(item)) {
      combined[*slot].count += count;
    } else if (count > 0) {
      combined.push_back(Counter{item, count});
    }
  });

  // Prune to capacity_ - 1 counters with the Agarwal et al. Frequent
  // merge: subtract the capacity_-th largest value from every counter.
  // Zero counts left in `combined` cannot change that value (it is 0
  // whenever fewer than capacity_ counts are positive) and never
  // survive the prune.
  uint64_t v = 0;
  const size_t keep = static_cast<size_t>(capacity_) - 1;
  if (combined.size() > keep) {
    const auto nth = combined.begin() + static_cast<ptrdiff_t>(keep);
    std::nth_element(combined.begin(), nth, combined.end(),
                     [](const Counter& a, const Counter& b) {
                       return a.count > b.count;
                     });
    v = nth->count;
  }

  const uint64_t total_n = n_ + other_n;
  const uint64_t slack = under_slack_ + other_slack + min1 + min2 + v;
  entries_.clear();
  index_.Clear();
  InvalidateMinHeap();
  for (const Counter& counter : combined) {
    if (counter.count > v) {
      AppendEntry(counter.item, counter.count - v, 0);
    }
  }
  n_ = total_n;
  under_slack_ = slack;
}

void SpaceSaving::Merge(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    // Fold the wider operand down to the narrower lattice; the fold's θ
    // accounting lands in that side's UnderSlack before the symmetric
    // equal-capacity merge below, so merge order cannot change bytes.
    const int target = std::min(capacity_, other.capacity_);
    if (capacity_ > target) Resize(target);
    if (other.capacity_ > target) {
      SpaceSaving folded = other;
      folded.Resize(target);
      Merge(folded);
      return;
    }
  }
  MergeEqualCapacity(other.ScanMinCount(), other.n_, other.under_slack_,
                     other.entries_.size(), [&other](const auto& add) {
                       for (const Entry& entry : other.entries_) {
                         add(entry.item, entry.count);
                       }
                     });
}

void SpaceSaving::MergeCafaro(const SpaceSaving& other) {
  if (capacity_ != other.capacity_) {
    const int target = std::min(capacity_, other.capacity_);
    if (capacity_ > target) Resize(target);
    if (other.capacity_ > target) {
      SpaceSaving folded = other;
      folded.Resize(target);
      MergeCafaro(folded);
      return;
    }
  }
  uint64_t min1 = 0;
  uint64_t min2 = 0;
  std::vector<Counter> combined =
      CombineCounters(MgDomainCounters(&min1), other.MgDomainCounters(&min2));
  SortByCountAscending(combined);
  RebuildByReplay(std::move(combined), n_ + other.n_,
                  under_slack_ + other.under_slack_ + min1 + min2);
}

void SpaceSaving::RebuildByReplay(std::vector<Counter> counters,
                                  uint64_t total_n,
                                  uint64_t new_under_slack) {
  entries_.clear();
  index_.Clear();
  InvalidateMinHeap();
  n_ = 0;
  under_slack_ = 0;
  min_heap_.reserve(ReserveFor(capacity_));
  // Replaying the combined counters in ascending order reproduces the
  // SpaceSaving execution that Cafaro et al. solve in closed form (their
  // Theorem 4.5): the first capacity_ counters fill the table, each later
  // one replaces the current minimum.
  for (const Counter& counter : counters) Update(counter.item, counter.count);
  n_ = total_n;
  under_slack_ = new_under_slack;
}

std::vector<Counter> CafaroClosedFormMergeSpaceSaving(std::vector<Counter> s1,
                                                      std::vector<Counter> s2,
                                                      int k) {
  MERGEABLE_CHECK_MSG(k >= 2, "k-majority parameter must be >= 2");
  const auto capacity = static_cast<size_t>(k);
  MERGEABLE_CHECK_MSG(s1.size() <= capacity && s2.size() <= capacity,
                      "input summaries exceed k counters");

  // Subtract the minimum from each side that is at capacity (Algorithm 3,
  // lines 2-11), dropping counters that reach zero.
  const auto subtract_min = [capacity](std::vector<Counter>& s) {
    if (s.size() != capacity) return;
    uint64_t min = s.front().count;
    for (const Counter& counter : s) min = std::min(min, counter.count);
    std::vector<Counter> reduced;
    reduced.reserve(s.size());
    for (const Counter& counter : s) {
      if (counter.count > min) {
        reduced.push_back(Counter{counter.item, counter.count - min});
      }
    }
    s = std::move(reduced);
  };
  subtract_min(s1);
  subtract_min(s2);

  std::vector<Counter> combined = CombineCounters(s1, s2);
  SortByCountAscending(combined);
  if (combined.size() < capacity) return combined;

  // Pad to exactly 2k-2 counters with zero-frequency dummies at the
  // front; C[j] below is the paper's C_{j+1}.
  const size_t total = 2 * capacity - 2;
  MERGEABLE_CHECK(combined.size() <= total);
  const size_t pad = total - combined.size();
  std::vector<Counter> c(total);
  for (size_t j = 0; j < pad; ++j) c[j] = Counter{0, 0};
  std::copy(combined.begin(), combined.end(), c.begin() + pad);

  // M[i] = (C_{k-2+i}^e, C_{k-2+i}^f),             i = 1, 2
  // M[i] = (C_{k-2+i}^e, C_{k-2+i}^f + C_{i-2}^f), i = 3..k
  std::vector<Counter> merged;
  merged.reserve(capacity);
  for (size_t i = 1; i <= 2; ++i) {
    const Counter& src = c[capacity + i - 3];
    if (src.count > 0) merged.push_back(src);
  }
  for (size_t i = 3; i <= capacity; ++i) {
    const Counter& src = c[capacity + i - 3];
    const uint64_t carry = c[i - 3].count;
    const uint64_t count = src.count + carry;
    if (count > 0) merged.push_back(Counter{src.item, count});
  }
  SortByCountAscending(merged);
  return merged;
}

namespace {
constexpr uint32_t kSpaceSavingMagic = 0x31305353;  // "SS01"

// The fields before the entries.
struct WireHeader {
  uint32_t capacity = 0;
  uint64_t n = 0;
  uint64_t under_slack = 0;
  uint32_t count = 0;
};
constexpr size_t kHeaderBytes = 3 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
constexpr size_t kEntryBytes = 3 * sizeof(uint64_t);  // item, count, over

// Reads and range-checks the header, including that the input holds
// `count` entries; false on any field DecodeFrom rejects.
bool ReadHeader(ByteReader& reader, WireHeader* header) {
  uint32_t magic = 0;
  if (!reader.GetU32(&magic) || magic != kSpaceSavingMagic) return false;
  if (!reader.GetU32(&header->capacity) || header->capacity < 2 ||
      header->capacity > (1u << 30)) {
    return false;
  }
  if (!reader.GetU64(&header->n) || !reader.GetU64(&header->under_slack) ||
      !reader.GetU32(&header->count) || header->count > header->capacity) {
    return false;
  }
  // Reject counts the input cannot back before building anything.
  return static_cast<uint64_t>(header->count) * kEntryBytes <=
         reader.remaining();
}

// The header of a payload ValidateEncoded accepted.
WireHeader ValidHeader(const uint8_t* bytes, size_t size) {
  ByteReader reader(bytes, size);
  WireHeader header;
  MERGEABLE_CHECK_MSG(ReadHeader(reader, &header) &&
                          reader.remaining() == header.count * kEntryBytes,
                      "SpaceSaving payload must be valid");
  return header;
}

// Whether two of the `count` wire entries at `entries` hold the same
// item: their ids sorted, in a stack buffer up to 512 of them.
bool HasDuplicateItem(const uint8_t* entries, uint32_t count) {
  constexpr uint32_t kStackItems = 512;
  uint64_t stack[kStackItems];
  std::vector<uint64_t> heap;
  uint64_t* items = stack;
  if (count > kStackItems) {
    heap.resize(count);
    items = heap.data();
  }
  for (uint32_t i = 0; i < count; ++i) {
    items[i] = LoadLittle64(entries + i * kEntryBytes);
  }
  std::sort(items, items + count);
  return std::adjacent_find(items, items + count) != items + count;
}
}  // namespace

void SpaceSaving::SortInWireOrder(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.item < b.item;
            });
}

void SpaceSaving::WriteWire(ByteWriter& writer, int capacity, uint64_t n,
                            uint64_t under_slack, std::vector<Entry> entries) {
  SortInWireOrder(entries);
  writer.PutU32(kSpaceSavingMagic);
  writer.PutU32(static_cast<uint32_t>(capacity));
  writer.PutU64(n);
  writer.PutU64(under_slack);
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Entry& entry : entries) {
    writer.PutU64(entry.item);
    writer.PutU64(entry.count);
    writer.PutU64(entry.over);
  }
}

void SpaceSaving::EncodeTo(ByteWriter& writer) const {
  WriteWire(writer, capacity_, n_, under_slack_, entries_);
}

std::optional<SpaceSaving> SpaceSaving::DecodeFrom(ByteReader& reader) {
  WireHeader header;
  if (!ReadHeader(reader, &header)) return std::nullopt;
  const uint32_t count = header.count;
  const uint64_t n = header.n;
  SpaceSaving summary(static_cast<int>(header.capacity));
  // The constructor's capped reserve covers every count the 24-bytes-
  // per-entry check can let through for realistic inputs; reserving the
  // exact count keeps the flat index at a single bulk build even beyond
  // the cap (the fuzz harness asserts at most one rebuild).
  summary.entries_.reserve(count);
  summary.index_.Reserve(count);
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    if (!reader.GetU64(&entry.item) || !reader.GetU64(&entry.count) ||
        !reader.GetU64(&entry.over)) {
      return std::nullopt;
    }
    if (entry.count == 0 || entry.over > entry.count) return std::nullopt;
    if (summary.index_.Find(entry.item) != nullptr) return std::nullopt;
    // Invariant for every reachable state (streaming keeps sum == n, both
    // merges only shrink it): the counters never outweigh the stream.
    // Checked before the add, so the running sum cannot wrap.
    if (entry.count > n - total) return std::nullopt;
    total += entry.count;
    summary.AppendEntry(entry.item, entry.count, entry.over);
  }
  if (!reader.Exhausted()) return std::nullopt;
  summary.n_ = n;
  summary.under_slack_ = header.under_slack;
  return summary;
}

bool SpaceSaving::ValidateEncoded(const uint8_t* bytes, size_t size) {
  ByteReader reader(bytes, size);
  WireHeader header;
  if (!ReadHeader(reader, &header) ||
      reader.remaining() != header.count * kEntryBytes) {
    return false;
  }
  // DecodeFrom's per-entry checks, on the entries in place.
  const uint8_t* entries = bytes + kHeaderBytes;
  uint64_t total = 0;
  for (uint32_t i = 0; i < header.count; ++i) {
    const uint8_t* entry = entries + i * kEntryBytes;
    const uint64_t count = LoadLittle64(entry + sizeof(uint64_t));
    const uint64_t over = LoadLittle64(entry + 2 * sizeof(uint64_t));
    if (count == 0 || over > count) return false;
    if (count > header.n - total) return false;
    total += count;
  }
  return !HasDuplicateItem(entries, header.count);
}

void SpaceSaving::MergeEncoded(const uint8_t* bytes, size_t size) {
  const WireHeader header = ValidHeader(bytes, size);
  MERGEABLE_DCHECK(ValidateEncoded(bytes, size));
  if (header.capacity != static_cast<uint32_t>(capacity_)) {
    ByteReader reader(bytes, size);
    Merge(*DecodeFrom(reader));
    return;
  }
  const uint8_t* entries = bytes + kHeaderBytes;
  const auto count_at = [entries](uint32_t i) {
    return LoadLittle64(entries + i * kEntryBytes + sizeof(uint64_t));
  };
  // A full side's minimum, as ScanMinCount reads it off a decoded copy.
  uint64_t min = 0;
  if (header.count == header.capacity) {
    min = count_at(0);
    for (uint32_t i = 1; i < header.count; ++i) {
      min = std::min(min, count_at(i));
    }
  }
  MergeEqualCapacity(min, header.n, header.under_slack, header.count,
                     [&](const auto& add) {
                       for (uint32_t i = 0; i < header.count; ++i) {
                         add(LoadLittle64(entries + i * kEntryBytes),
                             count_at(i));
                       }
                     });
}

}  // namespace mergeable
