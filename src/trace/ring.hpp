// Lock-free bounded event ring, one per traced thread.
//
// Shape: single producer (the owning thread, on its hot path) / single
// consumer (whoever flushes — an exporter at quiesce, or a collector
// running concurrently).  The producer publishes a slot with a release
// store of the head; the consumer acquires the head before reading slots
// and releases the tail after, so slot payloads never race even though
// they are plain structs.  A full ring drops the *new* event and counts
// it — tracing must never block or unboundedly buffer the runtime it is
// observing (the Projections rule), and the drop counter makes the loss
// explicit in every export.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"
#include "trace/event.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::trace {

class EventRing {
 public:
  /// Capacity rounds up to a power of two.
  explicit EventRing(std::size_t capacity = 1 << 14)
      : size_(next_pow2(capacity < 2 ? 2 : capacity)),
        mask_(size_ - 1),
        slots_(size_) {}

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Producer side, owning thread only.  Returns false (and counts a
  /// drop) when the ring is full.
  bool emit(Event ev) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t pending = head - tail_.load(std::memory_order_acquire);
    if (pending >= size_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      BGQ_SCHED_POINT("trace.emit.dropped");
      return false;
    }
    // Occupancy high-water mark (producer-only write): makes a ring that
    // ran near-full — and therefore a trace that is about to bias — visible
    // as trace.ring.hwm even when no event was actually dropped yet.
    if (pending + 1 > hwm_.load(std::memory_order_relaxed)) {
      hwm_.store(pending + 1, std::memory_order_relaxed);
    }
    slots_[head & mask_] = ev;
    BGQ_SCHED_POINT("trace.emit.staged");
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, one thread at a time.  Appends everything currently
  /// published to `out` in emission order; returns the number drained.
  std::size_t drain(std::vector<Event>& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    BGQ_SCHED_POINT("trace.drain.snapshot");
    for (std::uint64_t i = tail; i != head; ++i) {
      out.push_back(slots_[i & mask_]);
    }
    BGQ_SCHED_POINT("trace.drain.copied");
    tail_.store(head, std::memory_order_release);
    return static_cast<std::size_t>(head - tail);
  }

  std::size_t capacity() const noexcept { return size_; }

  /// Events lost to a full ring since construction.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Events ever published (drained or not, not counting drops).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Highest occupancy ever reached (events staged and not yet drained).
  std::uint64_t high_water() const noexcept {
    return hwm_.load(std::memory_order_relaxed);
  }

  /// Approximate fill (exact when quiescent).
  std::size_t pending() const noexcept {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }

 private:
  const std::size_t size_;
  const std::size_t mask_;
  std::vector<Event> slots_;

  alignas(kL2Line) std::atomic<std::uint64_t> head_{0};   // producer-owned
  alignas(kL2Line) std::atomic<std::uint64_t> tail_{0};   // consumer-owned
  alignas(kL2Line) std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> hwm_{0};                     // producer-owned
};

}  // namespace bgq::trace
