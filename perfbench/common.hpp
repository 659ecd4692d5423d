// Shared pieces of the perfbench binary: run arguments, the result
// record, order statistics, the operator-new counter, rusage readings and
// the benchmark's own in-memory span log.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "trace/session.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  ///< where the traced pass writes its spans
  std::string bench_path = "BENCHMARK.json";  ///< the metric list
};

/// What one run reports: the operation tally, the correctness verdict,
/// the metrics of the pass (units come from BENCHMARK.json), and every
/// reason the run must fail loudly.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> problems;

  void set(const std::string& name, double value);
  /// Correctness failure: the run's outputs disagree with the reference.
  void wrong(const std::string& why);
  /// Traced-pass failure: a span or counter source recorded nothing.
  void empty_source(const std::string& what);
};

// ---- order statistics ------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

/// Whole-nanosecond samples in fixed 1 ns bins: constant memory however
/// long the run, so sample storage never shows up in the peak-RSS figure.
class NsHistogram {
 public:
  NsHistogram() : bins_(kBins, 0) {}
  void record(std::uint64_t ns) {
    if (ns < kBins) {
      ++bins_[ns];
    } else {
      over_.push_back(static_cast<double>(ns));
    }
    ++n_;
  }
  void merge(const NsHistogram& o);
  std::uint64_t count() const { return n_; }
  /// Mean of the samples ranked within q +- 0.01: a quantile that keeps
  /// every digit where whole-nanosecond samples would quantize it.
  double smoothed_quantile(double q) const;

 private:
  static constexpr std::uint64_t kBins = 1u << 16;
  std::vector<std::uint64_t> bins_;
  std::vector<double> over_;  ///< samples past the last bin (rare)
  std::uint64_t n_ = 0;
};

// ---- global operator-new counter (main.cpp replaces operator new) -------

struct HeapCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
/// Counting is off by default so the untraced pass pays one relaxed load
/// per allocation; the traced pass turns it on around a steady-state
/// window.
void heap_counting(bool on);
HeapCount heap_count();

// ---- process resource usage -----------------------------------------------

struct Usage {
  double peak_rss_mb = 0;          ///< this process's peak resident set
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
};
Usage usage();

// ---- the benchmark's own spans -------------------------------------------

/// Spans the benchmark records around each call into a layer.  They stay
/// in memory and are written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t t0, t1;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  };
  /// Opens a span; returns its index for close().
  std::int32_t open(const char* name, std::int32_t parent = -1);
  void close(std::int32_t idx);
  /// Writes `{"spans":[...]}` JSON; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};
SpanLog& spans();

/// RAII span around one layer call.
class Scope {
 public:
  explicit Scope(const char* name, std::int32_t parent = -1)
      : idx_(spans().open(name, parent)) {}
  ~Scope() { spans().close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  std::int32_t idx_;
};

// ---- trace-ring readings ----------------------------------------------------

/// What the per-PE event rings of one machine say, read from outside the
/// program through trace::analyze and the raw events.
struct RingReadout {
  std::uint64_t handler_spans = 0;
  std::uint64_t dropped = 0;
  std::vector<double> handler_us;     ///< handler span durations
  std::vector<double> queue_wait_us;  ///< enqueue -> dequeue, FIFO-matched
  double busy_frac = 0;               ///< mean PE work share
  double pme_span_ms = 0;             ///< mean kPhasePme span
  double cutoff_span_ms = 0;          ///< mean kPhaseCutoff span
  std::uint64_t phase_spans = 0;
};
/// `workers` = worker PEs per process; tracks with tid >= workers are
/// comm threads and are left out of the PE figures.
RingReadout read_rings(const bgq::trace::FlatTrace& flat, unsigned workers);

// ---- per-layer microtimings (layers.cpp) -----------------------------------

/// Public-API timings of single layers, shared by every workload's traced
/// pass: PoolAllocator, L2AtomicQueue, a raw ShmTransport hop, Fft1D, an
/// m2m burst and the nonbonded kernel.
void layer_microtimings(const Args& args, Result& out);

// ---- workloads ---------------------------------------------------------------

void run_pingpong(const Args& args, Result& out);
void run_taskbench(const Args& args, Result& out);
void run_mdpme(const Args& args, Result& out);

}  // namespace perfbench
