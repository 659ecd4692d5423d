// TRAM (topological routing and aggregation) configuration.
//
// Dependency-free POD so converse/config.hpp can embed it by value
// (MachineConfig::tram) the same way it embeds ft::Config.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgq::tram {

/// Only messages with payloads up to this size are aggregated; larger
/// ones bypass straight to the direct eager/rendezvous path (the copy
/// would cost more than the per-message overhead it saves).
inline constexpr std::size_t kMaxMsgBytes = 512;

/// Streaming-aggregation knobs.  Aggregation is opt-in: a default
/// Config leaves every send on the direct path.
struct Config {
  /// Master switch: coalesce small remote sends into per-destination
  /// batch buffers.
  bool enabled = false;

  /// Flush a destination's buffer once its records reach this many
  /// bytes.  Clamped at runtime so a full batch still fits the eager
  /// protocol (MachineConfig::eager_max) — a batch that tripped
  /// rendezvous would add a round-trip to exactly the traffic
  /// aggregation is meant to accelerate.
  std::size_t batch_bytes = 4096;

  /// Flush a destination's buffer once it holds this many messages,
  /// even if under the byte threshold.
  unsigned batch_msgs = 64;

  /// Idle flush: a non-empty buffer older than this is flushed by the
  /// scheduler's timeout tick, bounding the latency a lone message can
  /// be held back (and letting FT quiescence converge while traffic is
  /// buffered).
  std::uint64_t flush_ns = 200'000;
};

}  // namespace bgq::tram
