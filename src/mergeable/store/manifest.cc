#include "mergeable/store/manifest.h"

namespace mergeable {

void Manifest::Clear() {
  runs_.clear();
  size_ = 0;
}

void Manifest::Put(uint64_t stream, uint32_t level, const Entry& entry) {
  const auto run =
      SortedEmplace(runs_, std::pair(stream, level), &RunKey, [&] {
        return Run{stream, level, {}};
      }).first;
  const auto [slot, added] = SortedEmplace(
      run->entries, entry.index, &Entry::index, [&] { return entry; });
  if (added) {
    ++size_;
  } else {
    *slot = entry;
  }
}

std::optional<Manifest::Entry> Manifest::Find(uint64_t stream, uint32_t level,
                                              uint64_t index) const {
  const auto run = SortedFind(runs_, std::pair(stream, level), &RunKey);
  if (run == runs_.end()) return std::nullopt;
  const auto it = SortedFind(run->entries, index, &Entry::index);
  if (it == run->entries.end()) return std::nullopt;
  return *it;
}

void Manifest::Erase(uint64_t stream, uint32_t level, uint64_t index) {
  const auto run = SortedFind(runs_, std::pair(stream, level), &RunKey);
  if (run == runs_.end()) return;
  const auto it = SortedFind(run->entries, index, &Entry::index);
  if (it == run->entries.end()) return;
  run->entries.erase(it);
  --size_;
  if (run->entries.empty()) runs_.erase(run);
}

std::vector<Manifest::Record> Manifest::Walk(const std::optional<Key>& after,
                                             size_t count) const {
  count = std::min(count, size_);
  std::vector<Record> out;
  out.reserve(count);
  // Position (run, entry) of the first key after `after`.
  size_t run = 0;
  size_t entry = 0;
  if (after.has_value()) {
    const auto& [stream, level, index] = *after;
    const auto it =
        std::ranges::lower_bound(runs_, std::pair(stream, level), {}, &RunKey);
    run = static_cast<size_t>(it - runs_.begin());
    if (it != runs_.end() && RunKey(*it) == std::pair(stream, level)) {
      entry = static_cast<size_t>(
          std::ranges::upper_bound(it->entries, index, {}, &Entry::index) -
          it->entries.begin());
    }
  }
  while (out.size() < count) {
    if (run == runs_.size()) {
      run = 0;  // Wrap: runs are never empty, and count <= size_.
      entry = 0;
    }
    const Run& current = runs_[run];
    if (entry == current.entries.size()) {
      ++run;
      entry = 0;
      continue;
    }
    out.push_back(Record{current.stream, current.level,
                         current.entries[entry++]});
  }
  return out;
}

}  // namespace mergeable
