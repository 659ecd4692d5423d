// Process-wide counter/gauge registry — the replacement for the PeStats
// fields that used to be scattered through the machine layer.
//
// Names are interned once (setup path, mutex) into dense ids; each traced
// thread of execution owns a *shard*, a plain array of cells indexed by
// id.  Hot-path increments are one non-atomic add on the owning shard —
// exactly the cost of the old `++stats_.messages_executed` — and totals
// are summed across shards at report time.  Like the PeStats they
// replace, totals are exact at quiesce (after Machine::run returns) and
// advisory while threads are live.
//
// Gauges are process-wide point-in-time values (pool occupancy, comm
// sweeps) written at report time by whoever owns the source counter.
//
// Naming scheme: lowercase dotted `<subsystem>.<object>.<metric>`, e.g.
// `pe.msgs.executed`, `pe.sends.network`, `alloc.pool.hits`,
// `comm.parks`.  Keep units in the trailing segment when ambiguous
// (`pe.busy_ns`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/histogram.hpp"

namespace bgq::trace {

/// A flat, name-sorted snapshot of every counter and gauge.
struct Report {
  std::vector<std::pair<std::string, std::uint64_t>> entries;

  /// Value of `name`, or 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return v;
    }
    return 0;
  }
  bool has(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return true;
    }
    return false;
  }
};

class Registry {
 public:
  using Id = std::size_t;

  /// One thread's block of counter cells and histogram instances.
  /// add()/get()/record() are owner-thread operations; the registry reads
  /// them only at report time.
  class Shard {
   public:
    void add(Id id, std::uint64_t v = 1) noexcept {
      if (id >= cells_.size()) cells_.resize(id + 1, 0);
      cells_[id] += v;
    }
    std::uint64_t get(Id id) const noexcept {
      return id < cells_.size() ? cells_[id] : 0;
    }
    /// Record one sample into this shard's instance of histogram `id`
    /// (an id from intern_hist, not intern).
    void record(Id id, std::uint64_t v) noexcept {
      if (id >= hists_.size()) hists_.resize(id + 1);
      hists_[id].record(v);
    }
    const Histogram* hist(Id id) const noexcept {
      return id < hists_.size() ? &hists_[id] : nullptr;
    }
    const std::string& label() const noexcept { return label_; }

   private:
    friend class Registry;
    explicit Shard(std::string label, std::size_t reserve,
                   std::size_t hist_reserve)
        : label_(std::move(label)),
          cells_(reserve, 0),
          hists_(hist_reserve) {}
    std::string label_;
    std::vector<std::uint64_t> cells_;
    std::vector<Histogram> hists_;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern `name` into a dense id (idempotent; thread-safe).  Intern all
  /// counters before creating shards so cells never grow on a hot path.
  Id intern(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return names_.size() - 1;
  }

  /// Intern a histogram name into its own dense id space (idempotent;
  /// thread-safe).  Intern all histograms before creating shards so the
  /// per-shard Histogram vector never grows on a hot path.
  Id intern_hist(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < hist_names_.size(); ++i) {
      if (hist_names_[i] == name) return i;
    }
    hist_names_.emplace_back(name);
    return hist_names_.size() - 1;
  }

  /// Create (and own) a shard sized to the counters interned so far.
  Shard* make_shard(std::string label) {
    std::lock_guard<std::mutex> g(mu_);
    shards_.push_back(std::unique_ptr<Shard>(
        new Shard(std::move(label), names_.size(), hist_names_.size())));
    return shards_.back().get();
  }

  // ---- thread binding -------------------------------------------------
  // Mirrors Session's ring binding: each traced thread binds its shard
  // once, and always-compiled runtime record sites go through the TLS
  // pointer so callers that run on foreign threads (fabric delivery, comm
  // threads) still charge the right shard.  Unbound threads pay one TLS
  // load and a branch.

  static Shard* thread_shard() noexcept { return tls_shard_; }
  static void bind_thread(Shard* s) noexcept { tls_shard_ = s; }

  /// Record into the calling thread's bound shard, if any.
  static void record_here(Id hist_id, std::uint64_t v) noexcept {
    if (Shard* s = tls_shard_) s->record(hist_id, v);
  }

  /// Histogram `name` merged across all shards (exact at quiesce).
  Histogram hist_total(std::string_view name) const {
    std::lock_guard<std::mutex> g(mu_);
    Histogram out;
    for (Id i = 0; i < hist_names_.size(); ++i) {
      if (hist_names_[i] != name) continue;
      for (const auto& s : shards_) {
        if (const Histogram* h = s->hist(i)) out.merge(*h);
      }
      break;
    }
    return out;
  }

  /// Every interned histogram name with its cross-shard merge, in intern
  /// order (report/export path).
  std::vector<std::pair<std::string, Histogram>> hist_report() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::pair<std::string, Histogram>> out;
    out.reserve(hist_names_.size());
    for (Id i = 0; i < hist_names_.size(); ++i) {
      Histogram merged;
      for (const auto& s : shards_) {
        if (const Histogram* h = s->hist(i)) merged.merge(*h);
      }
      out.emplace_back(hist_names_[i], merged);
    }
    return out;
  }

  /// Set a process-wide gauge (report-time writers; thread-safe).
  void set_gauge(std::string_view name, std::uint64_t v) {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [k, old] : gauges_) {
      if (k == name) {
        old = v;
        return;
      }
    }
    gauges_.emplace_back(std::string(name), v);
  }

  /// Sum of `name` across all shards, plus its gauge if set.
  std::uint64_t total(std::string_view name) const {
    std::lock_guard<std::mutex> g(mu_);
    return total_locked(name);
  }

  /// Every counter (summed over shards) and gauge, sorted by name.
  Report report() const {
    std::lock_guard<std::mutex> g(mu_);
    Report r;
    for (Id i = 0; i < names_.size(); ++i) {
      std::uint64_t sum = 0;
      for (const auto& s : shards_) sum += s->get(i);
      r.entries.emplace_back(names_[i], sum);
    }
    for (const auto& [k, v] : gauges_) {
      bool merged = false;
      for (auto& [rk, rv] : r.entries) {
        if (rk == k) {
          rv += v;
          merged = true;
          break;
        }
      }
      if (!merged) r.entries.emplace_back(k, v);
    }
    std::sort(r.entries.begin(), r.entries.end());
    return r;
  }

  std::size_t counter_count() const {
    std::lock_guard<std::mutex> g(mu_);
    return names_.size();
  }

 private:
  std::uint64_t total_locked(std::string_view name) const {
    for (Id i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        std::uint64_t sum = 0;
        for (const auto& s : shards_) sum += s->get(i);
        for (const auto& [k, v] : gauges_) {
          if (k == name) sum += v;
        }
        return sum;
      }
    }
    for (const auto& [k, v] : gauges_) {
      if (k == name) return v;
    }
    return 0;
  }

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::pair<std::string, std::uint64_t>> gauges_;

  static thread_local Shard* tls_shard_;
};

inline thread_local Registry::Shard* Registry::tls_shard_ = nullptr;

}  // namespace bgq::trace
