#include "mergeable/store/durable_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mergeable {

DurableLog::DurableLog(Storage* durable, const DurableStoreOptions& options)
    : durable_(durable),
      seg_dir_(options.prefix + "/seg"),
      segment_bytes_(options.segment_bytes),
      scrub_options_(options.scrub) {
  MERGEABLE_CHECK_MSG(durable != nullptr, "DurableLog needs storage");
  MERGEABLE_CHECK_MSG(segment_bytes_ > 0, "segment_bytes must be positive");
}

DurableLog::~DurableLog() { StopScrubber(); }

std::string DurableLog::SegmentFileName(uint64_t segment) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(segment));
  return seg_dir_ + "/" + buf;
}

ScannedLeaves DurableLog::Load(SummaryTag tag, OpenReport* report) {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  manifest_.clear();
  quarantine_.clear();
  scrub_cursor_.reset();
  current_segment_ = 0;
  current_size_ = 0;

  // Latest record wins per (stream, level, index), applied as records
  // are scanned: a scrub repair is a re-append, so later copies
  // supersede rotted earlier ones.
  ScannedLeaves leaves;
  const std::string lead = seg_dir_ + "/";
  // The newest segment listed, and whether appending at its end is
  // unsafe: it could not be read, or its torn tail could not be cut.
  std::optional<uint64_t> newest;
  bool newest_unusable = false;
  for (const std::string& file : durable_->List()) {
    if (file.compare(0, lead.size(), lead) != 0) continue;
    uint64_t segment = 0;
    try {
      segment = std::stoull(file.substr(lead.size()));
    } catch (...) {
      continue;  // Not one of ours.
    }
    const bool is_newest = !newest.has_value() || segment >= *newest;
    if (is_newest) newest = segment;
    const std::optional<std::vector<uint8_t>> bytes = durable_->Read(file);
    if (!bytes.has_value()) {
      if (is_newest) newest_unusable = true;
      continue;
    }
    ++report->segments;
    const uint8_t* data = bytes->data();
    const SegmentScanTotals scan = WalkSegment(
        data, bytes->size(), [&](const SegmentRecordView& record) {
          if (!record.intact) return;
          manifest_[RecordKey{record.stream, record.level, record.index}] =
              RecordLocation{segment, record.offset, record.length};
          if (record.level == 0) {
            const std::optional<LeafRecordView> leaf = ViewLeafRecord(
                data + record.payload_offset, record.payload_length, tag);
            leaves[record.stream][record.index] =
                leaf.has_value() ? std::optional<EpochMeta>(leaf->meta)
                                 : std::nullopt;
          }
        });
    bool truncated = true;
    if (scan.torn_tail) {
      // Same discipline as the coordinator log: the record that was
      // mid-append when the process died is dropped, everything before it
      // is kept.
      truncated = durable_->Truncate(file, scan.valid_bytes);
      ++report->torn_tails;
    }
    report->corrupt_records += scan.corrupt_records;
    if (is_newest) {
      current_segment_ = segment;
      current_size_ = scan.valid_bytes;
      newest_unusable = !truncated;
    }
  }
  if (newest_unusable) {
    // The newest segment was not read, or still ends in garbage:
    // appending there would land records behind bytes this scan did not
    // account for, where neither the manifest offsets nor the next
    // restart's scan can find them, and an older segment would outrank
    // the appends latest-wins. Start a fresh segment above it.
    current_segment_ = *newest + 1;
    current_size_ = 0;
  }
  report->records = manifest_.size();
  return leaves;
}

bool DurableLog::AppendFrame(uint64_t stream, uint32_t level, uint64_t index,
                             const std::vector<uint8_t>& frame) {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (current_size_ > 0 && current_size_ + frame.size() > segment_bytes_) {
    ++current_segment_;
    current_size_ = 0;
  }
  if (!durable_->Append(SegmentFileName(current_segment_), frame)) {
    return false;
  }
  // Published only now: a reader never sees a location whose bytes are
  // not yet durable.
  {
    std::lock_guard<std::mutex> lock(mu_);
    manifest_[RecordKey{stream, level, index}] =
        RecordLocation{current_segment_, current_size_, frame.size()};
  }
  current_size_ += frame.size();
  return true;
}

void DurableLog::AppendNode(uint64_t stream, uint32_t level, uint64_t index,
                            const std::vector<uint8_t>& frame) {
  if (AppendFrame(stream, level, index, frame)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++node_append_failures_;
}

std::vector<uint8_t> DurableLog::PagedRecord::TakePayload(size_t skip) && {
  frame.resize(payload_offset + payload_size);  // Drop the checksum.
  frame.erase(frame.begin(),
              frame.begin() + static_cast<ptrdiff_t>(payload_offset + skip));
  return std::move(frame);
}

std::optional<DurableLog::PagedRecord> DurableLog::PageIn(
    uint64_t stream, uint32_t level, uint64_t index) const {
  RecordLocation loc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = manifest_.find(RecordKey{stream, level, index});
    if (it == manifest_.end()) return std::nullopt;
    loc = it->second;
  }
  std::optional<std::vector<uint8_t>> frame =
      durable_->ReadRange(SegmentFileName(loc.segment), loc.offset,
                          loc.length);
  if (!frame.has_value()) return std::nullopt;
  const std::optional<SegmentRecordView> view =
      VerifySegmentRecord(frame->data(), frame->size(), stream, level, index);
  if (!view.has_value()) return std::nullopt;
  return PagedRecord{std::move(*frame), view->payload_offset,
                     view->payload_length};
}

std::optional<std::vector<uint8_t>> DurableLog::ReadRecord(
    uint64_t stream, uint32_t level, uint64_t index) const {
  std::optional<PagedRecord> record = PageIn(stream, level, index);
  if (!record.has_value()) return std::nullopt;
  return std::move(*record).TakePayload();
}

void DurableLog::QuarantineLocked(const RecordKey& key) {
  const auto& [stream, level, index] = key;
  if (quarantine_[stream].insert(index).second) {
    ++scrub_stats_.epochs_quarantined;
  }
  manifest_.erase(key);
}

void DurableLog::QuarantineLeaf(uint64_t stream, uint64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineLocked(RecordKey{stream, 0, index});
}

uint64_t DurableLog::ScrubPass(uint64_t max_records) {
  // Snapshot this pass's slice of the manifest.
  std::vector<std::pair<RecordKey, RecordLocation>> slice;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++scrub_stats_.passes;
    if (manifest_.empty()) return 0;
    const uint64_t target =
        max_records == 0
            ? manifest_.size()
            : std::min<uint64_t>(max_records, manifest_.size());
    auto it = scrub_cursor_.has_value()
                  ? manifest_.upper_bound(*scrub_cursor_)
                  : manifest_.begin();
    slice.reserve(target);
    while (slice.size() < target) {
      if (it == manifest_.end()) it = manifest_.begin();
      slice.emplace_back(*it);
      scrub_cursor_ = it->first;
      ++it;
    }
  }

  // Verify without the lock, one segment buffer at a time.
  std::vector<size_t> order(slice.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const RecordLocation& x = slice[a].second;
    const RecordLocation& y = slice[b].second;
    return std::tie(x.segment, x.offset) < std::tie(y.segment, y.offset);
  });
  std::vector<bool> intact(slice.size(), false);
  std::optional<uint64_t> loaded;
  std::optional<std::vector<uint8_t>> bytes;
  for (const size_t i : order) {
    const auto& [stream, level, index] = slice[i].first;
    const RecordLocation& loc = slice[i].second;
    if (loaded != loc.segment) {
      bytes.reset();  // Free the previous buffer before the next read.
      bytes = durable_->Read(SegmentFileName(loc.segment));
      loaded = loc.segment;
    }
    // The page-in's check, over the slice a range read would return.
    intact[i] = bytes.has_value() && loc.offset <= bytes->size() &&
                loc.length <= bytes->size() - loc.offset &&
                VerifySegmentRecord(bytes->data() + loc.offset, loc.length,
                                    stream, level, index)
                    .has_value();
  }
  bytes.reset();

  // Apply. A record the manifest no longer points at was superseded (or
  // quarantined) meanwhile: its rot is counted, but there is nothing
  // left to act on.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < slice.size(); ++i) {
    const auto& [key, loc] = slice[i];
    ++scrub_stats_.records_verified;
    if (intact[i]) {
      scrub_stats_.bytes_verified += loc.length;
      continue;
    }
    ++scrub_stats_.corrupt_found;
    auto it = manifest_.find(key);
    if (it == manifest_.end() || !(it->second == loc)) continue;
    if (std::get<1>(key) >= 1) {
      // Derived data: drop it, and the next read rebuilds it from its
      // children and re-appends it (latest wins at the next restart).
      manifest_.erase(it);
      ++scrub_stats_.nodes_repaired;
    } else {
      // Primary data whose durable truth is gone. Quarantine the epoch:
      // queries clamp around it and account its whole mass.
      QuarantineLocked(key);
    }
  }
  return slice.size();
}

void DurableLog::StartScrubber() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (scrubber_running_) return;
  stop_scrubber_ = false;
  scrubber_running_ = true;
  scrub_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(thread_mu_);
    while (!stop_scrubber_) {
      thread_cv_.wait_for(
          lk, std::chrono::milliseconds(scrub_options_.interval_ms),
          [this] { return stop_scrubber_; });
      if (stop_scrubber_) break;
      lk.unlock();
      ScrubPass(scrub_options_.max_records_per_pass);
      lk.lock();
    }
  });
}

void DurableLog::StopScrubber() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!scrubber_running_) return;
    stop_scrubber_ = true;
  }
  thread_cv_.notify_all();
  scrub_thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  scrubber_running_ = false;
}

std::optional<uint64_t> DurableLog::FirstQuarantinedIn(
    uint64_t stream, uint64_t lo_index, uint64_t hi_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(stream);
  if (it == quarantine_.end()) return std::nullopt;
  auto leaf = it->second.lower_bound(lo_index);
  if (leaf == it->second.end() || *leaf > hi_index) return std::nullopt;
  return *leaf;
}

std::vector<uint64_t> DurableLog::QuarantinedLeaves(uint64_t stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quarantine_.find(stream);
  if (it == quarantine_.end()) return {};
  return std::vector<uint64_t>(it->second.begin(), it->second.end());
}

ScrubStats DurableLog::scrub_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrub_stats_;
}

uint64_t DurableLog::node_append_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_append_failures_;
}

}  // namespace mergeable
