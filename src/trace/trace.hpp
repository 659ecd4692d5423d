// Umbrella header for the tracing subsystem.
//
// Every emit site is compiled in and gated at run time: machine-layer
// events check the PE's ring pointer, and the lockless-core micro events
// (queue spills, allocator grow/spill, comm-thread advance/park, gate
// wakeups) call emit_here, which checks the calling thread's bound ring.
// Both pointers are null unless the run was configured with tracing on
// (MachineConfig::trace_events), so an untraced run pays one load and a
// not-taken branch per site.
//
// Emitting never blocks and never allocates: a full ring counts a drop
// and moves on (ring.hpp).
#pragma once

#include "common/timing.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_export.hpp"
#include "trace/event.hpp"
#include "trace/histogram.hpp"
#include "trace/registry.hpp"
#include "trace/ring.hpp"
#include "trace/session.hpp"
#include "trace/summary.hpp"
#include "trace/trace_io.hpp"
