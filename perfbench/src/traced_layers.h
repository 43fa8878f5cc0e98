// Decorators that time the three public seams of the stack from outside:
//
//   TracedHandler    FrameHandler around EpochService (server workers)
//   TracedStore<S>   the StoreT parameter of EpochService, forwarding to
//                    DurableStore<S>
//   TracedStorage    Storage around FileStorage
//
// Each forwards every call unchanged and wraps the calls on the ingest,
// seal and query paths in a ScopedSpan. The traced run builds the stack
// from these; the untraced run uses the plain types, so the difference
// between the two runs is the tracing overhead.

#ifndef PERFBENCH_TRACED_LAYERS_H_
#define PERFBENCH_TRACED_LAYERS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/bytes.h"
#include "trace.h"

namespace perfbench {

// The cross-thread key of a batch: the (shard, epoch) of its first
// record, which the generator also knows when it flushes.
inline uint64_t BatchKey(uint64_t shard, uint64_t epoch) {
  return (epoch << 24) | (shard & 0xffffff);
}

// The id of query `k` on query connection `conn`. The querier sends it
// as the query's deadline: at 2^40 virtual ms and more it never binds.
inline uint64_t QueryKey(uint32_t conn, uint64_t k) {
  return (uint64_t{1} << 40) | (uint64_t{conn} << 32) | (k & 0xffffffff);
}

class TracedStorage : public mergeable::Storage {
 public:
  explicit TracedStorage(mergeable::Storage* inner) : inner_(inner) {}

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override {
    ScopedSpan span(SpanKind::kStorageAppend, 0, bytes.size());
    return inner_->Append(file, bytes);
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override {
    return inner_->Rewrite(file, bytes);
  }
  bool Truncate(const std::string& file, uint64_t size) override {
    return inner_->Truncate(file, size);
  }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    ScopedSpan span(SpanKind::kStorageRead);
    std::optional<std::vector<uint8_t>> bytes = inner_->Read(file);
    if (bytes.has_value()) span.set_arg(bytes->size());
    return bytes;
  }
  std::vector<std::string> List() const override { return inner_->List(); }

 private:
  mergeable::Storage* inner_;
};

template <typename S>
class TracedStore {
 public:
  using Inner = mergeable::DurableStore<S>;
  using RangeOutcome = typename Inner::RangeOutcome;

  explicit TracedStore(Inner* inner) : inner_(inner) {}

  bool SealResult(uint64_t stream, uint64_t epoch,
                  const mergeable::AggregationResult<S>& result,
                  uint64_t expected_total_n = 0) {
    ScopedSpan span(SpanKind::kStoreSeal, epoch);
    return inner_->SealResult(stream, epoch, result, expected_total_n);
  }

  // The span's argument is the number of covering nodes the store
  // fetched (0 when the whole range answer was cached).
  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2,
      mergeable::QueryDeadline deadline) {
    ScopedSpan span(SpanKind::kStoreQuery);
    std::optional<RangeOutcome> out =
        inner_->QueryRangePayloadBounded(stream, t1, t2, deadline);
    if (out.has_value()) span.set_arg(out->stats.nodes_merged);
    return out;
  }

  bool HasStream(uint64_t stream) const { return inner_->HasStream(stream); }
  uint64_t EpochCount(uint64_t stream) const {
    return inner_->EpochCount(stream);
  }
  uint64_t BaseEpoch(uint64_t stream) const {
    return inner_->BaseEpoch(stream);
  }
  const std::vector<mergeable::EpochMeta>& Metas(uint64_t stream) const {
    return inner_->Metas(stream);
  }
  const mergeable::DurableStoreOptions& options() const {
    return inner_->options();
  }

 private:
  Inner* inner_;
};

class TracedHandler : public mergeable::FrameHandler {
 public:
  explicit TracedHandler(mergeable::FrameHandler* inner) : inner_(inner) {}

  std::vector<uint8_t> HandleReport(
      const std::vector<uint8_t>& frame) override {
    return inner_->HandleReport(frame);
  }
  std::vector<uint8_t> HandleBatch(
      const std::vector<uint8_t>& frame) override {
    // BAT1 layout: u32 magic, u32 body_len, u32 count, then the first
    // record's u64 shard and u64 epoch.
    uint32_t count = 0;
    uint64_t shard = 0;
    uint64_t epoch = 0;
    if (frame.size() >= 28) {
      mergeable::ByteReader reader(frame.data() + 8, 20);
      reader.GetU32(&count);
      reader.GetU64(&shard);
      reader.GetU64(&epoch);
    }
    ScopedSpan span(SpanKind::kServiceBatch, BatchKey(shard, epoch), count);
    return inner_->HandleBatch(frame);
  }
  std::vector<uint8_t> HandleQuery(
      const std::vector<uint8_t>& frame) override {
    // The request id is the query's deadline field (see QueryKey).
    const std::optional<mergeable::WireQuery> query =
        mergeable::DecodeQueryFrame(frame);
    ScopedSpan span(SpanKind::kServiceQuery,
                    query.has_value() ? query->deadline_ms : 0);
    return inner_->HandleQuery(frame);
  }
  std::vector<uint8_t> HandleTopology(
      const std::vector<uint8_t>& frame) override {
    return inner_->HandleTopology(frame);
  }

 private:
  mergeable::FrameHandler* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_LAYERS_H_
