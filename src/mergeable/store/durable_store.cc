#include "mergeable/store/durable_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mergeable {

DurableLog::DurableLog(Storage* durable, const DurableStoreOptions& options)
    : durable_(durable),
      seg_dir_(options.prefix + "/seg"),
      store_prefix_(options.store.prefix),
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

std::string DurableLog::NodeFileName(uint64_t stream, uint32_t level,
                                     uint64_t index) const {
  return store_prefix_ + "/s" + std::to_string(stream) + "/n" +
         std::to_string(level) + "." + std::to_string(index);
}

ScannedLeaves DurableLog::Load(SummaryTag tag, OpenReport* report) {
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
  bool saw_segment = false;
  bool tail_stuck = false;
  for (const std::string& file : durable_->List()) {
    if (file.compare(0, lead.size(), lead) != 0) continue;
    uint64_t segment = 0;
    try {
      segment = std::stoull(file.substr(lead.size()));
    } catch (...) {
      continue;  // Not one of ours.
    }
    const std::optional<std::vector<uint8_t>> bytes = durable_->Read(file);
    if (!bytes.has_value()) continue;
    ++report->segments;
    const uint8_t* data = bytes->data();
    const SegmentScanTotals scan = WalkSegment(
        data, bytes->size(), [&](const SegmentRecordView& record) {
          if (!record.intact) return;
          const uint8_t* payload = data + record.payload_offset;
          manifest_[RecordKey{record.stream, record.level, record.index}] =
              RecordLocation{segment, record.offset, record.length};
          if (record.level == 0) {
            const std::optional<LeafRecordView> leaf =
                ViewLeafRecord(payload, record.payload_length, tag);
            leaves[record.stream][record.index] =
                leaf.has_value() ? std::optional<EpochMeta>(leaf->meta)
                                 : std::nullopt;
          }
          warm_.Rewrite(NodeFileName(record.stream, record.level,
                                     record.index),
                        std::vector<uint8_t>(
                            payload, payload + record.payload_length));
        });
    bool truncated = true;
    if (scan.torn_tail) {
      // Same discipline as the WAL: the record that was mid-append when
      // the process died is dropped, everything before it is kept.
      truncated = durable_->Truncate(file, scan.valid_bytes);
      ++report->torn_tails;
    }
    report->corrupt_records += scan.corrupt_records;
    if (!saw_segment || segment >= current_segment_) {
      saw_segment = true;
      current_segment_ = segment;
      current_size_ = scan.valid_bytes;
      tail_stuck = !truncated;
    }
  }
  if (tail_stuck) {
    // The newest segment still ends in garbage: appending there would
    // land records behind it, where neither the manifest offsets nor
    // the next restart's scan can find them. Start a fresh segment.
    ++current_segment_;
    current_size_ = 0;
  }
  report->records = manifest_.size();
  return leaves;
}

bool DurableLog::AppendRecordLocked(uint64_t stream, uint32_t level,
                                    uint64_t index,
                                    const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame =
      EncodeSegmentRecord(SegmentRecord{stream, level, index, payload});
  if (current_size_ > 0 && current_size_ + frame.size() > segment_bytes_) {
    ++current_segment_;
    current_size_ = 0;
  }
  if (!durable_->Append(SegmentFileName(current_segment_), frame)) {
    return false;
  }
  manifest_[RecordKey{stream, level, index}] =
      RecordLocation{current_segment_, current_size_, frame.size()};
  current_size_ += frame.size();
  return true;
}

bool DurableLog::AppendRecord(uint64_t stream, uint32_t level, uint64_t index,
                              const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendRecordLocked(stream, level, index, payload);
}

bool DurableLog::AppendNodeFromWarm(uint64_t stream, uint32_t level,
                                    uint64_t index) {
  const std::optional<std::vector<uint8_t>> payload =
      warm_.Read(NodeFileName(stream, level, index));
  std::lock_guard<std::mutex> lock(mu_);
  if (!payload.has_value() ||
      !AppendRecordLocked(stream, level, index, *payload)) {
    ++node_append_failures_;
    return false;
  }
  return true;
}

uint64_t DurableLog::ScrubPassLocked(uint64_t max_records) {
  ++scrub_stats_.passes;
  if (manifest_.empty()) return 0;
  const uint64_t target = max_records == 0
                              ? manifest_.size()
                              : std::min<uint64_t>(max_records,
                                                   manifest_.size());
  auto it = scrub_cursor_.has_value()
                ? manifest_.upper_bound(*scrub_cursor_)
                : manifest_.begin();
  // One read per touched file per pass, not per record.
  std::map<uint64_t, std::optional<std::vector<uint8_t>>> file_cache;
  std::vector<RecordKey> corrupt;
  uint64_t processed = 0;
  while (processed < target) {
    if (it == manifest_.end()) it = manifest_.begin();
    const RecordKey key = it->first;
    const RecordLocation& loc = it->second;
    auto cached = file_cache.find(loc.segment);
    if (cached == file_cache.end()) {
      cached = file_cache
                   .emplace(loc.segment,
                            durable_->Read(SegmentFileName(loc.segment)))
                   .first;
    }
    const bool intact =
        cached->second.has_value() &&
        VerifySegmentRecordAt(*cached->second, loc.offset, loc.length);
    ++scrub_stats_.records_verified;
    if (intact) {
      scrub_stats_.bytes_verified += loc.length;
    } else {
      ++scrub_stats_.corrupt_found;
      corrupt.push_back(key);
    }
    ++processed;
    scrub_cursor_ = key;
    ++it;
  }
  for (const RecordKey& key : corrupt) {
    const auto& [stream, level, index] = key;
    if (level >= 1) {
      // Derived data: re-append the warm copy so the *next* restart
      // reads an intact record (latest wins); if even that fails, drop
      // the record — a restart rebuilds internal nodes from children.
      const std::optional<std::vector<uint8_t>> payload =
          warm_.Read(NodeFileName(stream, level, index));
      if (payload.has_value() &&
          AppendRecordLocked(stream, level, index, *payload)) {
        ++scrub_stats_.nodes_repaired;
      } else {
        ++node_append_failures_;
        manifest_.erase(key);
      }
    } else {
      // Primary data whose durable truth is gone. The warm copy cannot
      // vouch for bytes the disk no longer holds — serving it would
      // hide the loss until the next restart surfaced it. Quarantine
      // the epoch: queries clamp around it and account its whole mass.
      if (quarantine_[stream].insert(index).second) {
        ++scrub_stats_.epochs_quarantined;
      }
      manifest_.erase(key);
    }
  }
  return processed;
}

uint64_t DurableLog::ScrubPass(uint64_t max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  return ScrubPassLocked(max_records);
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

bool DurableLog::scrubber_running() const {
  std::lock_guard<std::mutex> lock(thread_mu_);
  return scrubber_running_;
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

uint64_t DurableLog::manifest_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.size();
}

}  // namespace mergeable
