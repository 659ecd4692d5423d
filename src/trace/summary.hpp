// Summary exporter: reduce a flushed trace to per-track statistics and a
// machine-readable JSON report.  Span durations go into trace::Histogram,
// the same engine behind the registry's lat.* histograms and the benches'
// medians, so a bench can print its table from exactly the numbers it
// serializes.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/histogram.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"
#include "trace/session.hpp"

namespace bgq::trace {

/// A closed span reconstructed from a begin/end pair.
struct Span {
  std::uint64_t t0, t1;
  std::uint32_t arg;
  EventKind begin_kind;
  std::uint64_t duration_ns() const noexcept { return t1 - t0; }
};

/// Reconstruct the spans of one track opened by `begin` (matched with
/// `end_of(begin)`), in completion order.  Nested pairs of the same kind
/// match innermost-first; unmatched begins/ends are ignored.
inline std::vector<Span> extract_spans(const Track& track, EventKind begin) {
  std::vector<Span> out;
  std::vector<Event> open;
  const EventKind end = end_of(begin);
  for (const Event& e : track.events) {
    if (e.kind == begin) {
      open.push_back(e);
    } else if (e.kind == end && !open.empty()) {
      out.push_back({open.back().t_ns, e.t_ns, open.back().arg, begin});
      open.pop_back();
    }
  }
  return out;
}

/// Per-track reduction.
struct TrackSummary {
  std::string name;
  std::uint32_t pid = 0, tid = 0;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t first_ns = 0, last_ns = 0;
  std::array<std::uint64_t, kEventKindCount> kind_counts{};
  Histogram handler_ns;  ///< handler span durations
  Histogram idle_ns;     ///< idle-poll span durations
  double busy_fraction = 0;  ///< handler+phase time / track extent
};

struct Summary {
  std::vector<TrackSummary> tracks;
  std::size_t total_events = 0;
  std::uint64_t total_dropped = 0;
};

inline Summary summarize(const FlatTrace& trace) {
  Summary s;
  for (const Track& tr : trace.tracks) {
    TrackSummary t;
    t.name = tr.name;
    t.pid = tr.pid;
    t.tid = tr.tid;
    t.events = tr.events.size();
    t.dropped = tr.dropped;
    if (!tr.events.empty()) {
      t.first_ns = tr.events.front().t_ns;
      t.last_ns = tr.events.front().t_ns;
      for (const Event& e : tr.events) {
        ++t.kind_counts[static_cast<unsigned>(e.kind)];
        if (e.t_ns < t.first_ns) t.first_ns = e.t_ns;
        if (e.t_ns > t.last_ns) t.last_ns = e.t_ns;
      }
    }
    std::uint64_t busy = 0;
    for (const Span& sp : extract_spans(tr, EventKind::kHandlerBegin)) {
      t.handler_ns.record(sp.duration_ns());
      busy += sp.duration_ns();
    }
    for (const Span& sp : extract_spans(tr, EventKind::kPhaseBegin)) {
      busy += sp.duration_ns();
    }
    for (const Span& sp : extract_spans(tr, EventKind::kIdleBegin)) {
      t.idle_ns.record(sp.duration_ns());
    }
    const std::uint64_t extent = t.last_ns - t.first_ns;
    t.busy_fraction =
        extent ? static_cast<double>(busy) / static_cast<double>(extent) : 0;
    s.total_events += t.events;
    s.total_dropped += t.dropped;
    s.tracks.push_back(std::move(t));
  }
  return s;
}

namespace detail {
inline void write_stats(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("mean", h.mean());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("p50", h.percentile(0.50));
  w.kv("p99", h.percentile(0.99));
  w.end_object();
}
}  // namespace detail

/// JSON form of a summary, optionally bundling a counter-registry report
/// so one file carries both the timeline reduction and the counters.
inline void write_summary_json(std::ostream& os, const Summary& s,
                               const Report* counters = nullptr) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "bgq-trace-summary-v1");
  w.kv("total_events", static_cast<std::uint64_t>(s.total_events));
  w.kv("total_dropped", s.total_dropped);
  w.key("tracks");
  w.begin_array();
  for (const TrackSummary& t : s.tracks) {
    w.begin_object();
    w.kv("name", t.name);
    w.kv("pid", t.pid);
    w.kv("tid", t.tid);
    w.kv("events", static_cast<std::uint64_t>(t.events));
    w.kv("dropped", t.dropped);
    w.kv("extent_ns", t.last_ns - t.first_ns);
    w.kv("busy_fraction", t.busy_fraction);
    w.key("handler_ns");
    detail::write_stats(w, t.handler_ns);
    w.key("idle_ns");
    detail::write_stats(w, t.idle_ns);
    w.key("kinds");
    w.begin_object();
    for (unsigned k = 0; k < kEventKindCount; ++k) {
      if (t.kind_counts[k] == 0) continue;
      // Begin/end pairs share a label; fold them into one entry.
      const auto kind = static_cast<EventKind>(k);
      if (is_end(kind)) continue;
      std::uint64_t n = t.kind_counts[k];
      w.kv(kind_name(kind), n);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  if (counters != nullptr) {
    w.key("counters");
    w.begin_object();
    for (const auto& [k, v] : counters->entries) w.kv(k, v);
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

}  // namespace bgq::trace
