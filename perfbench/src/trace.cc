#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t current = 0;  // Innermost open span on this thread.
  std::vector<Span> spans;
};

bool g_enabled = false;
std::atomic<uint64_t> g_next_id{1};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<uint32_t>(g_registry.size());
    buffer->spans.reserve(1 << 14);
  }
  return *buffer;
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kClientFlush: return "client.flush";
    case SpanKind::kClientQuery: return "client.query";
    case SpanKind::kServiceBatch: return "epoch_service.batch";
    case SpanKind::kServiceQuery: return "epoch_service.query";
    case SpanKind::kServiceSeal: return "epoch_service.seal";
    case SpanKind::kStoreSeal: return "store.seal";
    case SpanKind::kStoreQuery: return "store.query";
    case SpanKind::kStoreOpen: return "store.open";
    case SpanKind::kStorageAppend: return "storage.append";
    case SpanKind::kStorageRead: return "storage.read";
  }
  return "unknown";
}

void Tracer::Enable() { g_enabled = true; }
bool Tracer::enabled() { return g_enabled; }

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool Tracer::Dump(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : Collect()) {
    std::fprintf(out, "%s\t%llu\t%llu\t%u\t%llu\t%llu\t%lld\t%lld\n",
                 SpanName(span.kind),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.thread,
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.arg),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t request, uint64_t arg) {
  if (!g_enabled) return;
  ThreadBuffer& buffer = LocalBuffer();
  active_ = true;
  span_.kind = kind;
  span_.request = request;
  span_.arg = arg;
  span_.thread = buffer.thread;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buffer.current;
  buffer.current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.current = span_.parent;
  buffer.spans.push_back(span_);
}

}  // namespace perfbench
