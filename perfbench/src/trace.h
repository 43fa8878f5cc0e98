// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call across a layer boundary: its kind, start and
// end on the steady clock, the span that was current on the same thread
// when it began (its parent), a request id that ties together spans of
// one request on different threads, and one numeric argument (records
// in a batch, bytes appended, nodes merged). Each thread appends to its
// own buffer without locks; buffers outlive their threads and are
// collected once the load has stopped.
//
// Recording is off unless Tracer::Enable() ran before any recording
// thread started; a disabled ScopedSpan costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kSetup,          // One restart of the program: open, construct, start.
  kClientFlush,    // IngestClient::Flush round trip (generator thread).
  kClientQuery,    // IngestClient::Query round trip (querier thread).
  kServiceBatch,   // FrameHandler::HandleBatch (server worker).
  kServiceQuery,   // FrameHandler::HandleQuery (server worker).
  kServiceSeal,    // EpochService::SealEpoch (sealer thread).
  kStoreSeal,      // StoreT::SealResult.
  kStoreQuery,     // StoreT::QueryRangePayloadBounded.
  kStoreOpen,      // DurableStore::Open.
  kStorageAppend,  // Storage::Append (write + fsync on FileStorage).
  kStorageRead,    // Storage::Read.
};

const char* SpanName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = no enclosing span on this thread.
  uint64_t request = 0;  // Cross-thread correlation key; 0 = none.
  uint64_t arg = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  SpanKind kind = SpanKind::kSetup;
};

class Tracer {
 public:
  static void Enable();
  static bool enabled();
  // Every span recorded so far, across threads. Call only while no
  // thread is recording.
  static std::vector<Span> Collect();
  // Writes Collect() as tab-separated lines:
  //   kind id parent thread request arg start_ns end_ns
  static bool Dump(const std::string& path);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t request = 0, uint64_t arg = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { span_.arg = arg; }

 private:
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
