// Fault-tolerance configuration knobs (part of MachineConfig).
//
// Two independent services share the machinery:
//  - `enabled` arms the full Charm++-style double in-memory checkpoint /
//    restart protocol: heartbeats, the failure detector, buddy snapshots
//    and epoch rollback.
//  - `watchdog_ms` arms only the hang watchdog: a monitor that dumps
//    per-PE diagnostics and aborts when global progress stalls, so a
//    wedged run is diagnosable instead of silent.
//
// Crash events in a FaultPlan are honored only when `armed()` — a
// crash-bearing BGQ_FAULT_PLAN is inert for machines that opted out,
// which lets one env plan cover an entire mixed test suite.
#pragma once

#include <cstdint>

namespace bgq::ft {

struct Config {
  bool enabled = false;  ///< checkpoint/restart protocol on

  /// Suggested checkpoint cadence.  Checkpoints are app-cooperative
  /// (message-driven apps never transiently quiesce on their own): the
  /// app calls Runtime::start_checkpoint() at a step boundary when
  /// Runtime::checkpoint_due() says the period elapsed.  0 = only
  /// explicit start_checkpoint() calls.
  std::uint64_t checkpoint_period_ms = 0;

  /// Cadence of standalone best-effort heartbeat packets (liveness is
  /// also refreshed by *every* fabric transfer from a peer, acks
  /// included, so heartbeats only matter for idle processes).
  std::uint64_t heartbeat_period_ms = 2;

  /// Declare a process dead after this long without hearing from it.
  std::uint64_t failure_timeout_ms = 40;

  /// Hang watchdog: abort (or stop, see watchdog_abort) after this long
  /// with no globally executed message.  0 = watchdog off.
  std::uint64_t watchdog_ms = 0;

  /// True: the watchdog dumps diagnostics and std::abort()s — the
  /// production behaviour (a hang becomes a loud crash).  False: it dumps,
  /// requests a machine stop, and sets a flag tests can read.
  bool watchdog_abort = true;

  bool armed() const noexcept { return enabled || watchdog_ms > 0; }
};

}  // namespace bgq::ft
