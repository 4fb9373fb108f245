// Resource governance for long-running ingestion.
//
// A streaming analyzer that runs for days cannot let its state grow with
// the capture: flow tables, reassembly buffers and the APDU record log are
// all unbounded in the input. ResourceBudgets caps each of them;
// ResourcePressure reports every enforcement action so a bounded run is
// honest about what it shed — the same philosophy as DegradationCounters,
// but for self-inflicted (budgeted) loss rather than damaged input.
#pragma once

#include <cstdint>

#include "util/fields.hpp"

namespace uncharted::analysis {

/// Caps on builder state. 0 means unlimited (the batch default — a one-shot
/// build over an in-memory capture has nothing to govern).
struct ResourceBudgets {
  /// Max connections tracked by the flow table; least-recently-active
  /// entries are evicted past it.
  std::size_t max_flow_entries = 0;
  /// Max total out-of-order bytes buffered across all stream directions;
  /// the fullest direction is force-flushed (hole abandoned) past it.
  std::size_t max_reassembly_bytes = 0;
  /// Max APDU records retained; the oldest quarter of the budget is
  /// dropped when it overflows so eviction amortizes.
  std::size_t max_records = 0;
  /// Max per-direction stream parsers; idle ones (empty buffer) are
  /// retired first, then the rest (their partial frame becomes a
  /// truncated-tail failure).
  std::size_t max_parsers = 0;

  bool unlimited() const {
    return max_flow_entries == 0 && max_reassembly_bytes == 0 &&
           max_records == 0 && max_parsers == 0;
  }
};

/// What budget enforcement actually did, plus high-water marks. Monotone;
/// `any()` is false iff every budget held without intervention.
struct ResourcePressure {
  std::uint64_t flow_evictions = 0;       ///< connections dropped from the table
  std::uint64_t reassembly_flushes = 0;   ///< directions force-flushed
  std::uint64_t records_evicted = 0;      ///< APDU records dropped (oldest first)
  std::uint64_t parsers_evicted = 0;      ///< stream parsers retired

  std::uint64_t peak_flow_entries = 0;
  std::uint64_t peak_reassembly_bytes = 0;
  std::uint64_t peak_records = 0;
  std::uint64_t peak_parsers = 0;

  /// The enforcement actions, then the peaks: together the checkpoint
  /// order (util/fields.hpp). Lanes sum their actions and take the max of
  /// their peaks.
  static constexpr auto action_fields() {
    using S = ResourcePressure;
    return std::to_array<util::Field<S>>({
        {"flow_evictions", &S::flow_evictions},
        {"reassembly_flushes", &S::reassembly_flushes},
        {"records_evicted", &S::records_evicted},
        {"parsers_evicted", &S::parsers_evicted},
    });
  }
  static constexpr auto peak_fields() {
    using S = ResourcePressure;
    return std::to_array<util::Field<S>>({
        {"peak_flow_entries", &S::peak_flow_entries},
        {"peak_reassembly_bytes", &S::peak_reassembly_bytes},
        {"peak_records", &S::peak_records},
        {"peak_parsers", &S::peak_parsers},
    });
  }

  /// Enforcement actions taken so far.
  std::uint64_t actions() const { return util::sum_fields(*this, action_fields()); }
  bool any() const { return actions() != 0; }
  bool operator==(const ResourcePressure&) const = default;
};
static_assert(sizeof(ResourcePressure) ==
              (ResourcePressure::action_fields().size() +
               ResourcePressure::peak_fields().size()) *
                  sizeof(std::uint64_t));

}  // namespace uncharted::analysis
