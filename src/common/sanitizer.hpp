// ThreadSanitizer support for objects that own mutexes.
#pragma once

#include <initializer_list>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace hyscale {

/// Tells ThreadSanitizer that the mutexes at `mutexes` are destroyed.
/// Under glibc, std::mutex and std::shared_mutex have trivial
/// destructors, so TSan never learns that one died: a mutex later built
/// at the same stack address inherits its lock-order history, and two
/// objects whose members swap addresses across test bodies read as a
/// lock-order inversion no single object can reach.  An owner whose
/// mutexes nest calls this from its destructor.  No-op in other builds.
inline void forget_mutexes(std::initializer_list<void*> mutexes) {
#if defined(__SANITIZE_THREAD__)
  for (void* m : mutexes) __tsan_mutex_destroy(m, 0);
#else
  (void)mutexes;
#endif
}

}  // namespace hyscale
