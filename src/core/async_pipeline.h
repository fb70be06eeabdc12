// Asynchronous observer-to-correlator pipeline.
//
// In the deployed system the observer and the correlator are separate
// daemons: the observer must add at most microseconds to each traced
// syscall, while the correlator's table updates can lag behind
// (Sections 2, 5.3). AsyncCorrelator reproduces that decoupling inside one
// process: it is a ReferenceSink whose methods enqueue onto a bounded
// queue and return immediately; a worker thread drains the queue in whole
// batches into the correlator's IngestBatch, so a bursty producer is
// absorbed at batch granularity while the applied state stays
// bit-identical to one-at-a-time serial delivery.
// Queries (clustering, distances) synchronise with the
// worker so callers always see a fully drained correlator — exactly the
// semantics of asking the correlator daemon for a hoard fill.
//
// Messages carry interned PathIds, never strings, so a queued message is a
// trivially-copyable POD and the queue itself is a fixed ring buffer
// allocated once at construction: the per-reference producer path performs
// no heap allocation at any queue depth.
//
// Backpressure: when the queue is full the enqueueing thread blocks (the
// kernel hook in the real system buffers a bounded amount of trace data
// and must not drop references, or lifetimes would unbalance).
#ifndef SRC_CORE_ASYNC_PIPELINE_H_
#define SRC_CORE_ASYNC_PIPELINE_H_

#include <condition_variable>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/correlator.h"

namespace seer {

class AsyncCorrelator : public ReferenceSink {
 public:
  explicit AsyncCorrelator(const SeerParams& params = SeerParams(), uint64_t seed = 0x5ee8,
                           size_t queue_capacity = 4096);

  // Drains the queue and joins the worker.
  ~AsyncCorrelator() override;

  AsyncCorrelator(const AsyncCorrelator&) = delete;
  AsyncCorrelator& operator=(const AsyncCorrelator&) = delete;

  // --- ReferenceSink (producer side; thread-safe, non-blocking unless the
  // queue is full) ----------------------------------------------------------
  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  // --- consumer-side queries (block until the queue is drained) -------------

  // Blocks until every message enqueued before the call has been applied.
  void Drain();

  // Runs `fn` against the drained correlator under the pipeline lock.
  // The reference must not be retained past the call.
  template <typename Fn>
  auto Query(Fn&& fn) -> decltype(fn(std::declval<const Correlator&>())) {
    Drain();
    std::lock_guard<std::mutex> lock(correlator_mutex_);
    return fn(static_cast<const Correlator&>(correlator_));
  }

  // Convenience queries.
  ClusterSet BuildClusters();
  double Distance(const std::string& from, const std::string& to);
  size_t KnownFiles();
  ClusterBuildStats LastClusterStats();

  // Statistics.
  size_t enqueued() const;
  size_t processed() const;
  size_t high_watermark() const;
  size_t queue_depth() const;
  size_t queue_capacity() const { return capacity_; }

 private:
  // The queue carries the correlator's own batch-event POD, so a drained
  // batch feeds IngestBatch directly — no per-message translation.
  using Message = IngestEvent;
  static_assert(std::is_trivially_copyable_v<Message>,
                "queued messages must stay POD: the ring buffer is the "
                "allocation-free hot path");

  void Enqueue(const Message& message);
  void WorkerLoop();

  const size_t capacity_;
  Correlator correlator_;
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable drained_;
  // Fixed ring buffer: allocated once, indices wrap modulo capacity_.
  std::vector<Message> ring_;
  size_t head_ = 0;   // next message to dequeue
  size_t count_ = 0;  // messages currently queued
  bool stopping_ = false;
  size_t enqueued_ = 0;
  size_t processed_ = 0;
  size_t high_watermark_ = 0;

  std::mutex correlator_mutex_;
  std::thread worker_;
};

}  // namespace seer

#endif  // SRC_CORE_ASYNC_PIPELINE_H_
