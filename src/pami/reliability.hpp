// Tuning knobs for the PAMI-layer reliability protocol (seq numbers, acks,
// retransmits) that makes the runtime survive a faulty fabric
// (net/fault.hpp).  Dependency-free so converse/config.hpp can embed it.
//
// Protocol sketch (implemented in pami.cpp):
//   * A *channel* is the pair of directed flows between this context and a
//     peer (endpoint, context).  The sender stamps each mem-FIFO packet
//     with a per-channel sequence number and keeps a copy until acked.
//   * The receiver dedups by a cumulative watermark plus an above-watermark
//     set (Charm++-style delivery needs exactly-once, not in-order), and
//     owes one ack per received seq.  Acks piggyback on reverse-direction
//     data packets or flush as standalone batched ack packets.
//   * Unacked packets retransmit on an exponentially backed-off timer,
//     capped at max_retries; every packet carries an end-to-end checksum so
//     a corrupted delivery is dropped (and later retransmitted) instead of
//     dispatched.
//   * Backpressure: when a channel's retransmit window is full the send is
//     queued in a bounded local backlog drained by advance() — senders
//     never abort and memory stays bounded.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgq::pami {

/// Max acks piggybacked on one outgoing data packet.
inline constexpr std::size_t kMaxPiggybackAcks = 16;

/// Max acks carried by one standalone ack packet.
inline constexpr std::size_t kMaxAckBatch = 64;

struct ReliabilityParams {
  /// Initial retransmit timeout.  The emulated wire is nanoseconds, so the
  /// timer mostly measures scheduling delay of the peer's advance loop.
  std::uint64_t rto_ns = 200'000;

  /// Backoff cap: rto doubles per retry up to this.
  std::uint64_t rto_max_ns = 10'000'000;

  /// Give up (throw) after this many retransmits of one packet.  Bounds
  /// the no-hang guarantee: a partitioned peer surfaces as an error, not
  /// an infinite loop.
  unsigned max_retries = 30;

  /// Per-channel cap on unacked in-flight packets; sends beyond it take
  /// the backpressure backlog.
  std::size_t window = 64;

  /// Bound on the local backpressure backlog (packets).  Exhausting it is
  /// the one hard failure: the application is outrunning the network by
  /// an unbounded amount.
  std::size_t backlog_max = 65536;

  /// Sliding dedup window: a received seq more than this far below the
  /// channel's highest-seen seq is unconditionally treated as a duplicate,
  /// and above-watermark dedup entries that age past the horizon are
  /// evicted (counted as net.dedup.evicted).  Bounds the dedup table on
  /// arbitrarily long chaos runs.  Safe because the sender's retransmit
  /// window caps live unacked seqs at `window` per channel — keep
  /// dedup_horizon >= window (it is, by a wide margin).  0 disables the
  /// horizon (unbounded table, pre-PR-5 behaviour).
  std::size_t dedup_horizon = 4096;
};

}  // namespace bgq::pami
