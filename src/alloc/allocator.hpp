// Allocator interface shared by the baseline arena allocator and the
// paper's lockless pool allocator, so benches and the runtime can swap
// implementations (Fig. 6 and Fig. 8 compare them).
#pragma once

#include <cstddef>
#include <cstdint>

#include "trace/registry.hpp"

namespace bgq::alloc {

/// Thread identifier within one SMP node (worker PE or comm thread index).
using ThreadId = std::uint32_t;

/// Abstract message-buffer allocator.
///
/// Threads must be registered up front (the Charm++ runtime knows its
/// thread count at node boot); `tid` is the caller's slot.  deallocate()
/// may be called from *any* registered thread — cross-thread frees are the
/// contended case the paper optimizes.
class IAllocator {
 public:
  virtual ~IAllocator() = default;

  /// Allocate at least `bytes` bytes, aligned to 16.
  virtual void* allocate(ThreadId tid, std::size_t bytes) = 0;

  /// Return a buffer obtained from allocate(); callable from any thread.
  virtual void deallocate(ThreadId tid, void* p) = 0;

  /// Number of registered threads.
  virtual ThreadId thread_count() const = 0;

  /// Register this allocator's alloc.* counters for its lifetime.
  virtual void register_metrics(trace::Registry& reg) = 0;
};

namespace detail {

/// Header prepended to every buffer; 16 bytes keeps user data 16-aligned.
struct BufferHeader {
  std::uint32_t owner;       ///< allocating thread (pool) or arena id
  std::uint16_t size_class;  ///< index into the size-class table
  std::uint16_t kind;        ///< BufferKind discriminator
  std::uint64_t magic;       ///< corruption / double-free canary
};
static_assert(sizeof(BufferHeader) == 16);

enum BufferKind : std::uint16_t {
  kKindArena = 0xA1,
  kKindPool = 0xB2,
  kKindHeapDirect = 0xC3,  ///< larger than the largest size class
  kKindSlab = 0xD4,        ///< carved from a per-thread slab block; its
                           ///< memory is freed with the block, never alone
};

inline constexpr std::uint64_t kLiveMagic = 0xB19B1005A110Cull;
inline constexpr std::uint64_t kFreeMagic = 0xDEADF4EEDEADF4EEull;

/// Size classes: 32 B .. 64 KiB in powers of two (the message-size range
/// Charm++ allocates on the fast path); larger requests go to the heap.
inline constexpr std::size_t kNumSizeClasses = 12;

inline constexpr std::size_t class_bytes(std::size_t cls) {
  return std::size_t{32} << cls;
}

/// Smallest class that fits `bytes`, or kNumSizeClasses if too large.
inline std::size_t size_class_for(std::size_t bytes) {
  std::size_t cls = 0;
  while (cls < kNumSizeClasses && class_bytes(cls) < bytes) ++cls;
  return cls;
}

}  // namespace detail
}  // namespace bgq::alloc
