#include "src/core/async_pipeline.h"

#include <algorithm>

namespace seer {

AsyncCorrelator::AsyncCorrelator(const SeerParams& params, uint64_t seed, size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      correlator_(params, seed),
      ring_(capacity_) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

AsyncCorrelator::~AsyncCorrelator() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
}

void AsyncCorrelator::Enqueue(const Message& message) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_not_full_.wait(lock, [this] { return count_ < capacity_ || stopping_; });
  if (stopping_) {
    return;
  }
  ring_[(head_ + count_) % capacity_] = message;
  ++count_;
  ++enqueued_;
  high_watermark_ = std::max(high_watermark_, count_);
  lock.unlock();
  queue_not_empty_.notify_one();
}

void AsyncCorrelator::OnReference(const FileReference& ref) {
  Message m;
  m.kind = Message::Kind::kReference;
  m.ref = ref;
  Enqueue(m);
}

void AsyncCorrelator::OnProcessFork(Pid parent, Pid child) {
  Message m;
  m.kind = Message::Kind::kFork;
  m.parent = parent;
  m.child = child;
  Enqueue(m);
}

void AsyncCorrelator::OnProcessExit(Pid pid) {
  Message m;
  m.kind = Message::Kind::kExit;
  m.child = pid;
  Enqueue(m);
}

void AsyncCorrelator::OnFileDeleted(PathId path, Time time) {
  Message m;
  m.kind = Message::Kind::kDeleted;
  m.path = path;
  m.time = time;
  Enqueue(m);
}

void AsyncCorrelator::OnFileRenamed(PathId from, PathId to, Time time) {
  Message m;
  m.kind = Message::Kind::kRenamed;
  m.path = from;
  m.path2 = to;
  m.time = time;
  Enqueue(m);
}

void AsyncCorrelator::OnFileExcluded(PathId path) {
  Message m;
  m.kind = Message::Kind::kExcluded;
  m.path = path;
  Enqueue(m);
}

void AsyncCorrelator::WorkerLoop() {
  // Reused drain buffer: the worker takes everything queued in one lock
  // hold, frees the whole ring for producers, then applies the batch via
  // IngestBatch — a deep backlog costs one lock round trip, not one per
  // message.
  std::vector<Message> batch;
  batch.reserve(capacity_);
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock, [this] { return count_ > 0 || stopping_; });
      if (count_ == 0) {
        // stopping_ with an empty queue: signal any drain waiters and exit.
        drained_.notify_all();
        return;
      }
      const size_t n = count_;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(ring_[head_]);
        head_ = (head_ + 1) % capacity_;
      }
      count_ = 0;
    }
    queue_not_full_.notify_all();  // a whole ring of slots just freed
    {
      std::lock_guard<std::mutex> lock(correlator_mutex_);
      correlator_.IngestBatch(batch.data(), batch.size());
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      processed_ += batch.size();
      if (count_ == 0) {
        drained_.notify_all();
      }
    }
  }
}

void AsyncCorrelator::Drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drained_.wait(lock, [this] { return processed_ == enqueued_ || stopping_; });
}

ClusterSet AsyncCorrelator::BuildClusters() {
  return Query([](const Correlator& c) { return c.BuildClusters(); });
}

double AsyncCorrelator::Distance(const std::string& from, const std::string& to) {
  return Query([&](const Correlator& c) { return c.Distance(from, to); });
}

size_t AsyncCorrelator::KnownFiles() {
  return Query([](const Correlator& c) { return c.files().size(); });
}

ClusterBuildStats AsyncCorrelator::LastClusterStats() {
  return Query([](const Correlator& c) { return c.last_cluster_stats(); });
}

size_t AsyncCorrelator::enqueued() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return enqueued_;
}

size_t AsyncCorrelator::processed() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return processed_;
}

size_t AsyncCorrelator::high_watermark() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return high_watermark_;
}

size_t AsyncCorrelator::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return count_;
}

}  // namespace seer
