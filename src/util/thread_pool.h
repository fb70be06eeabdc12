// A small chunked-parallel-for thread pool.
//
// Its one use is snapshot stripe encode and decode: each 256-file relation
// stripe is framed or parsed independently, so the only primitive needed
// is a blocking parallel-for with dynamic load balancing: callers split
// their work into chunks, workers claim chunks from a shared atomic
// counter (cheap work stealing), and ParallelChunks returns when every
// chunk has run. In src/ only the tenant router makes a pool, and it lends
// it to every tenant's checkpoint and restore; everything that takes a
// ThreadPool* runs serially on nullptr. The calling thread participates, so a pool built
// with threads == 1 spawns no workers at all and runs strictly inline —
// the serial and parallel code paths are the same code.
//
// The pool is shareable: ParallelChunks may be called from any thread at
// any time. One dispatch owns the workers at a time; a call that arrives
// while another dispatch is running — including a re-entrant call from
// inside any chunk, whether it ran on a worker or on the dispatching
// thread itself — degrades to running its chunks inline on the calling
// thread. Inline execution is the same code as the serial path, so
// sharing one pool (the multi-tenant router runs every tenant's encode and
// decode on it, from several threads at once) never deadlocks and never
// changes results, only the degree of parallelism.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/util/status.h"

namespace seer {

// Strict thread-count parse: a positive decimal integer with no leading or
// trailing garbage, at most kMaxThreads. Zero, negatives, overflow, and
// non-numeric text are errors — never a silent fallback.
constexpr int kMaxThreads = 4096;
StatusOr<int> ParseThreadCount(std::string_view text);

// The SEER_THREADS environment variable, validated: Ok(0) when unset (the
// caller picks its own default), Ok(n > 0) when set to a valid count, and
// an InvalidArgument status naming the bad value otherwise. seerctl and
// the benches fail fast on the error; DefaultThreadCount() warns once.
StatusOr<int> SeerThreadsFromEnv();

// Worker count for a new pool: the validated SEER_THREADS when set,
// otherwise std::thread::hardware_concurrency(). An *invalid* SEER_THREADS
// is reported to stderr once per process and then ignored (constructors
// cannot propagate a Status); front ends validate SeerThreadsFromEnv()
// at startup so a user-facing run dies with the real error instead.
int DefaultThreadCount();

class ThreadPool {
 public:
  // threads <= 0 selects DefaultThreadCount(). The pool keeps threads-1
  // workers; the caller is the remaining thread.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(chunk) for every chunk in [0, num_chunks), distributed over the
  // pool plus the calling thread, and blocks until all chunks complete.
  // fn must not throw. Safe to call concurrently from several threads and
  // re-entrantly from inside a chunk: the workers serve one dispatch at a
  // time, every other call runs its chunks inline on the calling thread.
  void ParallelChunks(size_t num_chunks, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  // Serializes dispatches: held for the whole span of one distributed
  // ParallelChunks. Contenders don't wait — they run inline (see header
  // comment), so a held gate never blocks progress.
  std::mutex gate_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* job_ = nullptr;
  std::atomic<size_t> next_chunk_{0};
  size_t total_chunks_ = 0;
  size_t active_ = 0;  // workers that have not finished the current job
  uint64_t generation_ = 0;
  bool stopping_ = false;
};

}  // namespace seer

#endif  // SRC_UTIL_THREAD_POOL_H_
