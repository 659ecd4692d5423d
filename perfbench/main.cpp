// perfbench: the repo's benchmark program.
//
//   perfbench --workload <pingpong-shm|taskbench-tram|md-pme> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 is the untraced pass: it prints the end-to-end metrics.
// --trace 1 is the traced pass: it turns the runtime's event rings on,
// times calls into each layer's public functions, and prints the
// per-layer ledger.  Either way the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exit status is 0
// only when every output check passed and, in the traced pass, every
// span and counter source the workload exercises recorded something.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <string>

#include "common.hpp"
#include "trace/analysis.hpp"
#include "trace/json_read.hpp"
#include "trace/summary.hpp"

// ---- global operator new/delete replacement --------------------------------
// Counts calls and bytes while counting is on; otherwise a relaxed load
// and a branch on top of malloc.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

void heap_counting(bool on) {
  g_counting.store(on, std::memory_order_seq_cst);
}

HeapCount heap_count() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void Result::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Result::wrong(const std::string& why) {
  correct = false;
  problems.push_back("check failed: " + why);
}

void Result::empty_source(const std::string& what) {
  problems.push_back("traced source recorded nothing: " + what);
}

void NsHistogram::merge(const NsHistogram& o) {
  for (std::uint64_t i = 0; i < kBins; ++i) bins_[i] += o.bins_[i];
  over_.insert(over_.end(), o.over_.begin(), o.over_.end());
  n_ += o.n_;
}

double NsHistogram::smoothed_quantile(double q) const {
  if (n_ == 0) return 0;
  const double last = static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::max(0.0, q - 0.01) * last);
  const auto hi = static_cast<std::uint64_t>(std::min(1.0, q + 0.01) * last);
  // Walk the ranks [lo, hi] through the bins, then the sorted overflow.
  std::vector<double> over = over_;
  std::sort(over.begin(), over.end());
  double sum = 0;
  std::uint64_t rank = 0;
  for (std::uint64_t i = 0; i < kBins && rank <= hi; ++i) {
    const std::uint64_t b = bins_[i];
    if (b == 0) continue;
    const std::uint64_t first = std::max(rank, lo);
    const std::uint64_t end = std::min(rank + b, hi + 1);
    if (end > first) sum += static_cast<double>(i) * static_cast<double>(end - first);
    rank += b;
  }
  for (std::size_t i = 0; i < over.size() && rank <= hi; ++i, ++rank) {
    if (rank >= lo) sum += over[i];
  }
  return sum / static_cast<double>(hi - lo + 1);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

Usage usage() {
  Usage u;
  // VmHWM, not ru_maxrss: the kernel carries ru_maxrss across exec, so it
  // would include whatever process launched this one.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.peak_rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  u.ctx_switches = static_cast<std::uint64_t>(self.ru_nvcsw + self.ru_nivcsw);
  return u;
}

std::int32_t SpanLog::open(const char* name, std::int32_t parent) {
  spans_.push_back({name, bgq::now_ns(), 0, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].t1 = bgq::now_ns();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
  os << "{\"format\":\"perfbench-spans-v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "{\"name\":\"" << s.name
       << "\",\"t0_ns\":" << s.t0 - base << ",\"t1_ns\":" << s.t1 - base
       << ",\"parent\":" << s.parent << "}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

RingReadout read_rings(const bgq::trace::FlatTrace& flat, unsigned workers) {
  using bgq::trace::EventKind;
  RingReadout r;
  r.dropped = flat.total_dropped();
  // Enqueue events land on the enqueuing thread's ring, tagged with the
  // destination PE; dequeues land on the destination PE's own ring.
  std::map<std::uint32_t, std::vector<std::uint64_t>> enq, deq;
  double pme_ns = 0, cutoff_ns = 0;
  std::uint64_t pme_n = 0, cutoff_n = 0;
  for (const bgq::trace::Track& tr : flat.tracks) {
    for (const bgq::trace::Event& e : tr.events) {
      if (e.kind == EventKind::kMsgEnqueue) enq[e.arg].push_back(e.t_ns);
    }
    if (tr.tid >= workers) continue;  // comm thread
    const std::uint32_t pe = tr.pid * workers + tr.tid;
    for (const bgq::trace::Event& e : tr.events) {
      if (e.kind == EventKind::kMsgDequeue) deq[pe].push_back(e.t_ns);
    }
    for (const auto& s :
         bgq::trace::extract_spans(tr, EventKind::kHandlerBegin)) {
      r.handler_us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
    }
    for (const auto& s :
         bgq::trace::extract_spans(tr, EventKind::kPhaseBegin)) {
      ++r.phase_spans;
      if (s.arg == 1) {
        pme_ns += static_cast<double>(s.duration_ns());
        ++pme_n;
      } else {
        cutoff_ns += static_cast<double>(s.duration_ns());
        ++cutoff_n;
      }
    }
  }
  r.handler_spans = r.handler_us.size();
  if (pme_n) r.pme_span_ms = pme_ns / static_cast<double>(pme_n) * 1e-6;
  if (cutoff_n) {
    r.cutoff_span_ms = cutoff_ns / static_cast<double>(cutoff_n) * 1e-6;
  }
  // The PE queues are FIFO, so the k-th enqueue to a PE pairs with its
  // k-th dequeue — valid only when every enqueuer was a traced thread
  // (counts agree); PEs fed by untraced threads are left out.
  for (auto& [pe, d] : deq) {
    auto it = enq.find(pe);
    if (it == enq.end() || it->second.size() != d.size()) continue;
    std::vector<std::uint64_t>& e = it->second;
    std::sort(e.begin(), e.end());
    for (std::size_t k = 0; k < d.size(); ++k) {
      const double w = d[k] > e[k] ? static_cast<double>(d[k] - e[k]) : 0.0;
      r.queue_wait_us.push_back(w * 1e-3);
    }
  }
  // PE work share: the analyzer's time profile, averaged over the PE
  // tracks that recorded anything.
  const bgq::trace::Analysis a = bgq::trace::analyze(flat, 64);
  double work = 0;
  std::size_t n = 0;
  for (const auto& tp : a.profile.tracks) {
    if (tp.name.rfind("pe", 0) != 0 || tp.work.empty()) continue;
    double s = 0;
    for (double w : tp.work) s += w;
    const double mean = s / static_cast<double>(tp.work.size());
    if (mean <= 0) continue;
    work += mean;
    ++n;
  }
  r.busy_frac = n ? work / static_cast<double>(n) : 0;
  return r;
}

}  // namespace perfbench

namespace {

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <pingpong-shm|"
               "taskbench-tram|md-pme> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>] [--bench BENCHMARK.json]\n",
               msg);
  return 2;
}

/// The (name, unit) list of one metric group of BENCHMARK.json, the single
/// place the metric names and units are defined.
std::vector<std::pair<std::string, std::string>> metric_list(
    const std::string& path, const char* group) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const bgq::trace::json::ValuePtr doc = bgq::trace::json::parse(text);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : doc->at(group).arr) {
    out.emplace_back(m->at("name").str, m->at("unit").str);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage_error("bad --seed");
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        return usage_error("--seconds must be in (0, 120]");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage_error("--trace takes 0 or 1");
      }
      args.trace = v[0] == '1';
      have_trace = true;
    } else if (k == "--spans") {
      args.span_path = v;
    } else if (k == "--bench") {
      args.bench_path = v;
    } else {
      return usage_error(("unknown option " + k).c_str());
    }
  }
  if (args.workload.empty() || !have_trace) {
    return usage_error("--workload and --trace are required");
  }
  // A wedged run must still end in time, without a result line.
  ::alarm(170);

  perfbench::Result res;
  std::vector<std::pair<std::string, std::string>> names;
  try {
    // The traced pass prints the per-layer ledger, the untraced pass the
    // end-to-end metrics.
    names = metric_list(args.bench_path,
                        args.trace ? "per_layer" : "end_to_end");
    if (args.workload == "pingpong-shm") {
      perfbench::run_pingpong(args, res);
    } else if (args.workload == "taskbench-tram") {
      perfbench::run_taskbench(args, res);
    } else if (args.workload == "md-pme") {
      perfbench::run_mdpme(args, res);
    } else {
      return usage_error(("unknown workload " + args.workload).c_str());
    }
    if (args.trace) perfbench::layer_microtimings(args, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Every listed metric is printed.  A per-layer metric the workload's
  // path does not include reads 0; an end-to-end metric must be measured.
  std::vector<double> values;
  for (const auto& [name, unit] : names) {
    double value = 0;
    bool found = false;
    for (const auto& [n, v] : res.metrics) {
      if (n == name) {
        value = v;
        found = true;
      }
    }
    if (!found && !args.trace) res.problems.push_back("no value for " + name);
    if (!std::isfinite(value)) {
      res.problems.push_back(name + " is not a finite number");
      value = 0;
    }
    values.push_back(value);
  }
  for (const auto& [n, v] : res.metrics) {
    bool listed = false;
    for (const auto& name_unit : names) listed = listed || name_unit.first == n;
    if (!listed) res.problems.push_back(n + " is not in " + args.bench_path);
  }
  if (args.trace && !args.span_path.empty() &&
      !perfbench::spans().write(args.span_path)) {
    res.problems.push_back("cannot write spans to " + args.span_path);
  }

  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", names[i].first.c_str(), values[i],
                names[i].second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return res.problems.empty() && res.correct && res.attempted > 0 ? 0 : 1;
}
