// Per-core sharded accept: N IngestServer instances on one port.
//
// A single epoll loop thread saturates around the syscall and framing
// work of one core; past that, the accept path itself is the
// bottleneck. SO_REUSEPORT fixes this at the kernel boundary: every
// shard binds the same port with the flag set, and the kernel hashes
// incoming connections across the listening sockets — so each shard
// owns a disjoint set of connections end-to-end (its own epoll loop,
// its own admission queue, its own workers) and shards share nothing on
// the network path. The only cross-shard object is the FrameHandler,
// which is already thread-safe (EpochService serializes internally), so
// reports landing on different shards still merge into one canonical
// epoch state — sealing stays byte-identical to the single-shard and
// one-record-frame paths (the batch equivalence test asserts it across
// shard counts).
//
// Admission stays exact under sharding: each shard's queue enforces the
// per-shard watermarks/caps independently, and the aggregated stats are
// plain sums — a report is admitted or shed by exactly one shard, so
// nothing is double-counted.

#ifndef MERGEABLE_SERVER_SHARDED_SERVER_H_
#define MERGEABLE_SERVER_SHARDED_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mergeable/server/ingest_server.h"

namespace mergeable {

struct ShardedServerConfig {
  uint16_t port = 0;   // 0 = ephemeral; port() reports the real one.
  size_t shards = 2;   // Listening sockets (each its own epoll loop).
  size_t workers_per_shard = 1;
  AdmissionConfig admission;  // Per shard.
  size_t max_conn_buffer_bytes = 1u << 20;
};

class ShardedIngestServer {
 public:
  ShardedIngestServer(FrameHandler* handler, ShardedServerConfig config);

  // Starts every shard. Shard 0 may bind ephemeral; the discovered port
  // is then bound (with SO_REUSEPORT) by the rest. False if any shard
  // fails to start — already-started shards are stopped.
  bool Start();
  void Stop();

  uint16_t port() const { return port_; }
  size_t shards() const { return servers_.size(); }

  // Drain/pause fan out to every shard (tests build deterministic
  // overload states exactly as with a single server).
  void Drain();
  void PauseWorkers(bool paused);

  // Sums across shards. Exact: every frame belongs to exactly one shard.
  AdmissionStats admission_stats() const;
  ServerStats stats() const;

 private:
  FrameHandler* handler_;
  ShardedServerConfig config_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<IngestServer>> servers_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_SHARDED_SERVER_H_
