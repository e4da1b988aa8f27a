// One mechanism for publishing a layer's counters into the registry.
//
// Each layer keeps its own counter struct as the source of truth:
// checkpoints, stat texts and the chaos oracles read those structs. A
// CounterMirror lists the struct's fields once, each with its registry
// name, and Sync() adds to every registry counter what its field grew
// since the previous Sync(). Registry counters therefore stay monotonic
// and every event is counted exactly once, in the struct.
//
// Growth that is not a new event — a checkpoint restore or a stats reset
// replacing the struct underneath the mirror — is dropped with Rebase().
// A freshly bound mirror starts from zero, so its first Sync() catches the
// registry up on everything counted before the bind; a layer that must not
// publish those counts calls Rebase() right after binding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_buffer.hpp"
#include "util/types.hpp"

namespace daos::telemetry {

class CounterMirror {
 public:
  /// Mirrors `*field` into the registry counter `name`. The field must
  /// outlive the rows (re-Bind after the struct moves). Returns the row
  /// index for Pending().
  std::size_t Bind(MetricsRegistry& registry, std::string_view name,
                   const std::uint64_t* field) {
    rows_.push_back({field, &registry.GetCounter(name), 0, false, {}});
    return rows_.size() - 1;
  }
  /// As Bind(), and Sync() with a trace buffer also pushes one `kind`
  /// tracepoint per nonzero delta (arg0 = delta, arg1 = running total).
  std::size_t BindTraced(MetricsRegistry& registry, std::string_view name,
                         const std::uint64_t* field, EventKind kind) {
    const std::size_t row = Bind(registry, name, field);
    rows_[row].traced = true;
    rows_[row].kind = kind;
    return row;
  }
  void Clear() noexcept { rows_.clear(); }
  std::size_t size() const noexcept { return rows_.size(); }

  /// What row `row`'s field grew since the last Sync() or Rebase().
  std::uint64_t Pending(std::size_t row) const noexcept {
    return *rows_[row].field - rows_[row].last;
  }

  void Sync(SimTimeUs now = 0, TraceBuffer* trace = nullptr) noexcept {
    for (Row& r : rows_) {
      const std::uint64_t current = *r.field;
      const std::uint64_t delta = current - r.last;
      if (delta == 0) continue;
      r.last = current;
      r.counter->Add(delta);
      if (r.traced && trace != nullptr)
        trace->Push({now, r.kind, 0, delta, current, 0});
    }
  }

  void Rebase() noexcept {
    for (Row& r : rows_) r.last = *r.field;
  }

 private:
  struct Row {
    const std::uint64_t* field;
    Counter* counter;
    std::uint64_t last;
    bool traced;
    EventKind kind;
  };
  std::vector<Row> rows_;
};

}  // namespace daos::telemetry
