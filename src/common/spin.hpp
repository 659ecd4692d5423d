// Spin-wait primitives.
//
// Emulates the two idle-wait disciplines discussed in the paper (§III-D):
//   * a hot spin that hammers the core's pipeline (what the unoptimized
//     Charm++ idle poll did), and
//   * the "L2 paced" spin where each probe stalls on an L2 atomic load
//     (~60 cycles on BG/Q), leaving pipeline slots to the sibling hardware
//     threads on the same core.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bgq {

/// One architectural pause; the cheapest way to yield pipeline slots.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Exponential backoff used inside lock-free retry loops.  Starts with pure
/// pauses and escalates to yielding the OS thread, which matters on hosts
/// with fewer cores than runtime threads.
class Backoff {
 public:
  void pause() noexcept {
    if (count_ < kSpinLimit) {
      for (std::uint32_t i = 0; i < (1u << count_); ++i) cpu_relax();
      ++count_;
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { count_ = 0; }

  /// True once the backoff has escalated to OS yields.
  bool saturated() const noexcept { return count_ >= kSpinLimit; }

 private:
  static constexpr std::uint32_t kSpinLimit = 6;
  std::uint32_t count_ = 0;
};

/// Idle-poll pacing policies (paper §III-D).
enum class IdlePollPolicy {
  kHotSpin,   ///< re-probe as fast as possible (burns pipeline slots)
  kL2Paced,   ///< each probe behaves like a ~60-cycle L2 atomic load
  kOsYield,   ///< yield to the OS between probes (worst wake latency)
};

/// Emulate the ~60-cycle stall of an L2 atomic load on BG/Q: a short burst
/// of pauses approximating that latency on the host.
inline void l2_paced_delay() noexcept {
  for (int i = 0; i < 8; ++i) cpu_relax();
}

/// One idle-poll pause between probes under the given pacing policy.
inline void idle_pause(IdlePollPolicy policy) noexcept {
  switch (policy) {
    case IdlePollPolicy::kHotSpin: cpu_relax(); break;
    case IdlePollPolicy::kL2Paced: l2_paced_delay(); break;
    case IdlePollPolicy::kOsYield: std::this_thread::yield(); break;
  }
}

/// Spin until `pred()` is true under the given pacing policy.
template <typename Pred>
void spin_until(Pred&& pred, IdlePollPolicy policy = IdlePollPolicy::kL2Paced) {
  while (!pred()) idle_pause(policy);
}

}  // namespace bgq
