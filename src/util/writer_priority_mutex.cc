#include "src/util/writer_priority_mutex.h"

#include <cerrno>
#include <cstdlib>

namespace seer {
namespace {

// Lock calls fail only on misuse (deadlock on self, a corrupt lock), which
// no caller can recover from; abort rather than run unprotected.
void CheckLockCall(int rc) {
  if (rc != 0) {
    std::abort();
  }
}

}  // namespace

WriterPriorityMutex::WriterPriorityMutex() {
  pthread_rwlockattr_t attr;
  CheckLockCall(pthread_rwlockattr_init(&attr));
#if defined(__GLIBC__)
  // glibc's default kind prefers readers; this kind blocks new readers
  // while a writer waits. Other C libraries keep their default.
  CheckLockCall(
      pthread_rwlockattr_setkind_np(&attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP));
#endif
  CheckLockCall(pthread_rwlock_init(&rw_, &attr));
  pthread_rwlockattr_destroy(&attr);
}

WriterPriorityMutex::~WriterPriorityMutex() { pthread_rwlock_destroy(&rw_); }

void WriterPriorityMutex::lock() { CheckLockCall(pthread_rwlock_wrlock(&rw_)); }

bool WriterPriorityMutex::try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }

void WriterPriorityMutex::unlock() { CheckLockCall(pthread_rwlock_unlock(&rw_)); }

void WriterPriorityMutex::lock_shared() {
  int rc;
  // EAGAIN: the reader count is at its maximum for the moment.
  while ((rc = pthread_rwlock_rdlock(&rw_)) == EAGAIN) {
  }
  CheckLockCall(rc);
}

bool WriterPriorityMutex::try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }

void WriterPriorityMutex::unlock_shared() { CheckLockCall(pthread_rwlock_unlock(&rw_)); }

}  // namespace seer
