// Emulation of the BG/Q wakeup unit + PowerPC `wait` instruction (§II).
//
// On BG/Q a hardware thread can execute `wait`, parking itself without
// consuming pipeline slots, after programming the wakeup unit's WAC
// registers to watch a memory range (e.g. a work queue's producer counter)
// or network reception-FIFO activity; any store into the range, or a packet
// arrival, raises a low-overhead interrupt that resumes the thread.
//
// Host emulation: an *eventcount*.  The waiting thread spins briefly (cheap
// wakeups stay cheap) and then blocks on a futex-backed condvar; the waking
// side — which on BG/Q is the store hardware itself — is an explicit
// wake() call that the runtime issues immediately after the store it would
// have been (enqueue to a work queue, packet delivery into a reception
// FIFO).  The two-phase prepare/commit protocol makes lost wakeups
// impossible: a wake() between prepare_wait() and commit_wait() turns the
// commit into a no-op.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/cacheline.hpp"
#include "common/spin.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::wakeup {

/// One eventcount; typically one per communication thread.
class alignas(kL2Line) WaitGate {
 public:
  WaitGate() = default;
  WaitGate(const WaitGate&) = delete;
  WaitGate& operator=(const WaitGate&) = delete;

  /// Phase 1 of waiting: announce intent and snapshot the epoch.  After
  /// this, re-check for work; if work appeared, call cancel_wait() and
  /// process it instead of sleeping.
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    BGQ_SCHED_POINT("gate.prepare.announced");
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Abort a prepared wait (work was found on the re-check).
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Phase 2: block until some wake() advances the epoch past `seen`.
  /// Spins briefly first — the emulated analogue of the wakeup unit's
  /// fast-resume path.
  void commit_wait(std::uint64_t seen) {
    for (int spin = 0; spin < kSpinProbes; ++spin) {
      BGQ_SCHED_POINT("gate.commit.probe");
      if (epoch_.load(std::memory_order_acquire) != seen) {
        cancel_wait();
        return;
      }
      l2_paced_delay();
    }
    BGQ_SCHED_BLOCK_BEGIN();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    BGQ_SCHED_BLOCK_END();
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// commit_wait with a deadline: returns once a wake() advances the epoch
  /// past `seen` *or* `timeout_ns` elapses.  Used by comm threads that must
  /// stay responsive to reliability retransmit timers — a lost ack produces
  /// no wake(), only the passage of time.
  void commit_wait_for(std::uint64_t seen, std::uint64_t timeout_ns) {
    for (int spin = 0; spin < kSpinProbes; ++spin) {
      BGQ_SCHED_POINT("gate.commit.probe");
      if (epoch_.load(std::memory_order_acquire) != seen) {
        cancel_wait();
        return;
      }
      l2_paced_delay();
    }
    BGQ_SCHED_BLOCK_BEGIN();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait_for(lk, std::chrono::nanoseconds(timeout_ns), [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      });
    }
    BGQ_SCHED_BLOCK_END();
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Wake all threads parked on this gate.  Called by producers right
  /// after the store the WAC register would have observed.  Cheap when
  /// nobody is waiting (one atomic load).
  void wake() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    BGQ_SCHED_POINT("gate.wake.bumped");
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    trace::emit_here(trace::EventKind::kGateWake, 1);
    {
      // Empty critical section pairs the epoch bump with the cv wait so a
      // waiter cannot slip between its predicate check and its sleep.
      BGQ_SCHED_BLOCK_BEGIN();
      std::unique_lock<std::mutex> g(mutex_);
      BGQ_SCHED_BLOCK_END();
    }
    cv_.notify_all();
    wakeups_.fetch_add(1, std::memory_order_relaxed);
  }

  /// True if some thread is (or is about to be) parked; lets callers skip
  /// redundant wakes.
  bool has_waiters() const noexcept {
    return waiters_.load(std::memory_order_acquire) != 0;
  }

  std::uint64_t wakeup_count() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
#if defined(BGQ_SCHEDULE_POINTS)
  // Under the schedule fuzzer each probe is a scheduling decision; a long
  // spin phase would only pad the decision tree with no-ops.
  static constexpr int kSpinProbes = 2;
#else
  static constexpr int kSpinProbes = 64;
#endif

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// The per-node wakeup unit: a set of gates, one per hardware comm thread,
/// plus aggregate statistics.  The network fabric wakes the gate attached
/// to the reception FIFO's servicing thread; worker threads wake the gate
/// of the comm thread whose work queue they posted to.
class WakeupUnit {
 public:
  explicit WakeupUnit(unsigned gates)
      : count_(gates), gates_(new WaitGate[gates]) {}

  WaitGate& gate(unsigned i) { return gates_[i]; }
  const WaitGate& gate(unsigned i) const { return gates_[i]; }
  unsigned gate_count() const { return count_; }

  std::uint64_t total_wakeups() const {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < count_; ++i) n += gates_[i].wakeup_count();
    return n;
  }

 private:
  unsigned count_;
  std::unique_ptr<WaitGate[]> gates_;  // WaitGate is immovable; stable array
};

}  // namespace bgq::wakeup
