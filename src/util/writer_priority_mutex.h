// A reader-writer lock whose waiting writer holds off new readers.
//
// std::shared_mutex on glibc is a pthread rwlock of the default kind, which
// prefers readers: a writer gets in only at a moment when no reader holds
// the lock, so readers that keep overlapping can hold it off indefinitely.
// A lock that several threads take shared back to back — the hoard
// service's plane lock, taken once per frame by every I/O shard — needs
// the other preference for its exclusive side to make progress: once a
// writer waits, new readers queue behind it, and the writer gets in as
// soon as the readers already inside are done.
//
// Meets the SharedMutex requirements, so std::unique_lock and
// std::shared_lock work with it. Not recursive on either side: a thread
// that holds the shared side must not take it again, since with a writer
// queued in between the second acquisition waits for the writer, which
// waits for the first.
#ifndef SRC_UTIL_WRITER_PRIORITY_MUTEX_H_
#define SRC_UTIL_WRITER_PRIORITY_MUTEX_H_

#include <pthread.h>

namespace seer {

class WriterPriorityMutex {
 public:
  WriterPriorityMutex();
  ~WriterPriorityMutex();

  WriterPriorityMutex(const WriterPriorityMutex&) = delete;
  WriterPriorityMutex& operator=(const WriterPriorityMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  void lock_shared();
  bool try_lock_shared();
  void unlock_shared();

 private:
  pthread_rwlock_t rw_;
};

}  // namespace seer

#endif  // SRC_UTIL_WRITER_PRIORITY_MUTEX_H_
