#include "mergeable/frequency/misra_gries.h"

#include <cstddef>

#include <algorithm>
#include <cmath>

#include "mergeable/util/check.h"

namespace mergeable {

MisraGries::MisraGries(int capacity)
    : capacity_(capacity),
      // The map grows on demand, so cap the pre-reserve: capacity can be
      // wire-controlled (DecodeFrom) and must not drive the allocation.
      counters_(std::min<size_t>(static_cast<size_t>(capacity) + 1,
                                 size_t{1} << 16)) {
  MERGEABLE_CHECK_MSG(capacity >= 1, "MisraGries capacity must be >= 1");
}

MisraGries MisraGries::ForEpsilon(double epsilon) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon <= 1.0,
                      "epsilon must be in (0, 1]");
  const int capacity = std::max(1, static_cast<int>(std::ceil(1.0 / epsilon)));
  return MisraGries(capacity);
}

MisraGries MisraGries::FromCounters(int capacity,
                                    const std::vector<Counter>& counters,
                                    uint64_t n) {
  MisraGries summary(capacity);
  MERGEABLE_CHECK_MSG(counters.size() <= static_cast<size_t>(capacity),
                      "FromCounters: too many counters for capacity");
  uint64_t total = 0;
  for (const Counter& counter : counters) {
    MERGEABLE_CHECK_MSG(counter.count > 0,
                        "FromCounters: counters must be positive");
    summary.counters_[counter.item] += counter.count;
    total += counter.count;
  }
  MERGEABLE_CHECK_MSG(total <= n, "FromCounters: counts exceed stream size");
  summary.n_ = n;
  return summary;
}

void MisraGries::Update(uint64_t item, uint64_t weight) {
  if (weight == 0) return;
  n_ += weight;
  counters_[item] += weight;
  if (counters_.size() > static_cast<size_t>(capacity_)) Prune();
}

uint64_t MisraGries::ErrorBound() const {
  uint64_t monitored = 0;
  counters_.ForEach(
      [&monitored](uint64_t /*item*/, uint64_t count) { monitored += count; });
  MERGEABLE_DCHECK(monitored <= n_);
  return (n_ - monitored) / (static_cast<uint64_t>(capacity_) + 1);
}

std::vector<Counter> MisraGries::Counters() const {
  std::vector<Counter> result;
  result.reserve(counters_.size());
  counters_.ForEach([&result](uint64_t item, uint64_t count) {
    result.push_back(Counter{item, count});
  });
  SortByCountDescending(result);
  return result;
}

std::vector<Counter> MisraGries::FrequentItems(uint64_t threshold) const {
  const uint64_t error = ErrorBound();
  std::vector<Counter> result;
  counters_.ForEach([&](uint64_t item, uint64_t count) {
    if (count + error >= threshold) result.push_back(Counter{item, count});
  });
  SortByCountDescending(result);
  return result;
}

void MisraGries::Prune() {
  std::vector<Counter> entries;
  entries.reserve(counters_.size());
  counters_.ForEach([&entries](uint64_t item, uint64_t count) {
    entries.push_back(Counter{item, count});
  });
  MERGEABLE_DCHECK(entries.size() > static_cast<size_t>(capacity_));

  // v = the (capacity_+1)-th largest counter value. Subtracting v from
  // every counter leaves at most capacity_ positive counters, and removes
  // at least (capacity_+1) * v total weight, which preserves the invariant
  // underestimation <= (n - sum of counters) / (capacity_ + 1).
  const auto nth = entries.begin() + capacity_;
  std::nth_element(entries.begin(), nth, entries.end(),
                   [](const Counter& a, const Counter& b) {
                     return a.count > b.count;
                   });
  const uint64_t v = nth->count;

  counters_.Clear();
  for (const Counter& entry : entries) {
    if (entry.count > v) counters_.Insert(entry.item, entry.count - v);
  }
}

void MisraGries::Merge(const MisraGries& other) {
  MERGEABLE_CHECK_MSG(capacity_ == other.capacity_,
                      "cannot merge summaries of different capacities");
  n_ += other.n_;
  other.counters_.ForEach(
      [this](uint64_t item, uint64_t count) { counters_[item] += count; });
  if (counters_.size() > static_cast<size_t>(capacity_)) Prune();
}

void MisraGries::MergeCafaro(const MisraGries& other) {
  MERGEABLE_CHECK_MSG(capacity_ == other.capacity_,
                      "cannot merge summaries of different capacities");
  std::vector<Counter> combined =
      CombineCounters(Counters(), other.Counters());
  SortByCountAscending(combined);
  RebuildByReplay(std::move(combined), n_ + other.n_);
}

void MisraGries::RebuildByReplay(std::vector<Counter> counters,
                                 uint64_t total_n) {
  counters_.Clear();
  n_ = 0;
  // Feeding the combined counters into a fresh Frequent instance in
  // ascending count order reproduces, step for step, the execution that
  // Cafaro et al. solve in closed form (their Theorem 4.2): each overflow
  // subtracts the current minimum counter, which is exactly what the
  // generic prune does when the table holds capacity_ + 1 entries.
  for (const Counter& counter : counters) Update(counter.item, counter.count);
  MERGEABLE_DCHECK(n_ <= total_n);
  n_ = total_n;
}

std::vector<Counter> CafaroClosedFormMergeFrequent(std::vector<Counter> s1,
                                                   std::vector<Counter> s2,
                                                   int k) {
  MERGEABLE_CHECK_MSG(k >= 2, "k-majority parameter must be >= 2");
  const size_t capacity = static_cast<size_t>(k) - 1;
  MERGEABLE_CHECK_MSG(s1.size() <= capacity && s2.size() <= capacity,
                      "input summaries exceed k-1 counters");
  std::vector<Counter> combined = CombineCounters(s1, s2);
  SortByCountAscending(combined);
  if (combined.size() <= capacity) return combined;

  // Pad to exactly 2k-2 counters with zero-frequency dummies at the front,
  // as the paper assumes; C[j] below is the paper's C_{j+1}.
  const size_t total = 2 * capacity;
  const size_t pad = total - combined.size();
  std::vector<Counter> c(total);
  for (size_t j = 0; j < pad; ++j) c[j] = Counter{0, 0};
  std::copy(combined.begin(), combined.end(), c.begin() + pad);

  // M[1]   = (C_k^e,     C_k^f     - C_{k-1}^f)
  // M[i]   = (C_{k-1+i}^e, C_{k-1+i}^f - C_{k-1}^f + C_{i-1}^f), i = 2..k-1
  std::vector<Counter> merged;
  merged.reserve(capacity);
  const uint64_t base = c[capacity - 1].count;  // C_{k-1}^f
  {
    const Counter& src = c[capacity];  // C_k
    if (src.count > base) merged.push_back(Counter{src.item, src.count - base});
  }
  for (size_t i = 2; i <= capacity; ++i) {
    const Counter& src = c[capacity - 1 + i];  // C_{k-1+i} (1-based)
    const uint64_t carry = c[i - 2].count;           // C_{i-1}^f
    const uint64_t count = src.count - base + carry;
    if (count > 0) merged.push_back(Counter{src.item, count});
  }
  SortByCountAscending(merged);
  return merged;
}

namespace {
constexpr uint32_t kMisraGriesMagic = 0x3130474d;  // "MG01"
}  // namespace

std::vector<Counter> MisraGries::CountersByItem() const {
  std::vector<Counter> counters;
  counters.reserve(counters_.size());
  counters_.ForEach([&counters](uint64_t item, uint64_t count) {
    counters.push_back(Counter{item, count});
  });
  std::sort(counters.begin(), counters.end(),
            [](const Counter& a, const Counter& b) { return a.item < b.item; });
  return counters;
}

void MisraGries::Canonicalize() {
  // The map's slot layout depends on its insertion history; rebuild it
  // the way DecodeFrom does — fresh table, filled in item order.
  const std::vector<Counter> counters = CountersByItem();
  MisraGries fresh(capacity_);
  fresh.counters_.Reserve(counters.size());
  for (const Counter& counter : counters) {
    fresh.counters_.Insert(counter.item, counter.count);
  }
  counters_ = std::move(fresh.counters_);
}

void MisraGries::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kMisraGriesMagic);
  writer.PutU32(static_cast<uint32_t>(capacity_));
  writer.PutU64(n_);
  writer.PutU32(static_cast<uint32_t>(counters_.size()));
  // Canonical wire order: the map's iteration order depends on its
  // insertion history, so sort by item to make equal summaries encode to
  // equal bytes (encode-decode-encode is a fixed point).
  for (const Counter& counter : CountersByItem()) {
    writer.PutU64(counter.item);
    writer.PutU64(counter.count);
  }
}

MisraGries::Shape MisraGries::EncodedShape(const uint8_t* bytes,
                                           size_t size) {
  ByteReader reader(bytes, size);
  uint32_t magic = 0;
  Shape shape;
  MERGEABLE_CHECK_MSG(reader.GetU32(&magic) && magic == kMisraGriesMagic &&
                          reader.GetU32(&shape.capacity),
                      "MisraGries payload must be valid");
  return shape;
}

std::optional<MisraGries> MisraGries::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t capacity = 0;
  uint64_t n = 0;
  uint32_t count = 0;
  if (!reader.GetU32(&magic) || magic != kMisraGriesMagic) return std::nullopt;
  if (!reader.GetU32(&capacity) || capacity < 1 || capacity > (1u << 30)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&n) || !reader.GetU32(&count) || count > capacity) {
    return std::nullopt;
  }
  // Each counter needs 16 encoded bytes; a `count` the input cannot
  // back is malformed, and rejecting it here keeps the reserve bounded.
  if (static_cast<uint64_t>(count) * 16 > reader.remaining()) {
    return std::nullopt;
  }
  std::vector<Counter> counters;
  counters.reserve(count);
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Counter counter;
    if (!reader.GetU64(&counter.item) || !reader.GetU64(&counter.count)) {
      return std::nullopt;
    }
    if (counter.count == 0) return std::nullopt;
    // Counters never outweigh the stream; checked before the add, so the
    // running sum cannot wrap.
    if (counter.count > n - total) return std::nullopt;
    total += counter.count;
    counters.push_back(counter);
  }
  if (!reader.Exhausted()) return std::nullopt;
  // Reject duplicate items.
  MisraGries summary(static_cast<int>(capacity));
  // One bulk sizing instead of growth rehashes while filling (the
  // constructor's capped default only covers capacities up to 2^16).
  summary.counters_.Reserve(count);
  for (const Counter& counter : counters) {
    if (summary.counters_.Find(counter.item) != nullptr) return std::nullopt;
    summary.counters_.Insert(counter.item, counter.count);
  }
  summary.n_ = n;
  return summary;
}

}  // namespace mergeable
