// Counter-track export: bridges recorded per-tick channels (UPS/TES state
// of charge, breaker trip margin, room temperature, sprint degree, chiller
// power, ...) into Chrome trace-event `"ph": "C"` counter events, so
// Perfetto plots the physical trajectories in lanes next to the
// controller's phase-transition instants.
//
// Layering: dcs_obs sits below dcs_sim, so `export_counters` is a template
// over any Recorder-shaped type (channels() / has() / series()) instead of
// naming sim::Recorder — callers in the sim/core/bench layers instantiate
// it with the real recorder.
//
// Determinism: channels are exported in the (sorted) order the recorder
// reports them and samples in time order, entirely from recorded sim-domain
// data — emit into each sweep task's own Tracer and the merged counter
// stream is bit-identical for any thread count, same contract as every
// other sim event.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/time_series.h"

namespace dcs::obs {

struct CounterExportOptions {
  /// Channels to export; empty = every channel the recorder holds.
  /// Channels the recorder does not have are skipped (e.g. `tes_soc` on a
  /// TES-less configuration), so one list serves every configuration.
  std::vector<std::string> channels;
  /// Chrome category stamped on the counter events.
  std::string cat = "recorder";
  /// Prepended to every track name (e.g. "prediction/" when one task runs
  /// several strategies into the same lane).
  std::string name_prefix;
};

/// Emits one 'C' event per sample of `series`, named `name`, carrying the
/// sample value under the "value" arg (Perfetto renders one counter track
/// per name). Non-finite samples have no JSON literal and are skipped.
void export_counter_track(Tracer& tracer, std::string_view cat,
                          std::string_view name, const TimeSeries& series);

/// Per-zone channel suffixes a zoned core::DataCenter::run records (under
/// a `zone<k>/` prefix) — kept here so exporters and the run agree on one
/// spelling.
inline constexpr std::array<std::string_view, 5> kZonalChannelSuffixes = {
    "demand", "degree", "grid_mw", "ups_soc", "cb_trip_margin_s"};

/// Expands a channel selection with the per-zone (per-PDU-group) channels
/// for `zones` zones: `zone0/demand`, `zone0/degree`, `zone0/grid_mw`,
/// `zone0/ups_soc`, `zone0/cb_trip_margin_s`, `zone1/...`, ... appended to
/// `channels`. Feed the result to CounterExportOptions::channels so zonal
/// runs show one Perfetto counter track per zone per quantity (e.g. each
/// zone's breaker margin side by side).
[[nodiscard]] inline std::vector<std::string> with_zonal_channels(
    std::vector<std::string> channels, std::size_t zones) {
  for (std::size_t z = 0; z < zones; ++z) {
    const std::string prefix = "zone" + std::to_string(z) + "/";
    for (const std::string_view suffix : kZonalChannelSuffixes) {
      channels.push_back(prefix);
      channels.back().append(suffix);
    }
  }
  return channels;
}

/// Bridges a recorder's channels into `tracer` as counter tracks; see the
/// file comment for the determinism contract. `RecorderT` is any type with
/// `channels() -> vector<string>`, `has(name) -> bool` and
/// `series(name) -> const TimeSeries&` (i.e. `sim::Recorder`).
template <class RecorderT>
void export_counters(const RecorderT& recorder, Tracer& tracer,
                     const CounterExportOptions& options = {}) {
  const std::vector<std::string> selected =
      options.channels.empty() ? recorder.channels() : options.channels;
  for (const std::string& channel : selected) {
    if (!recorder.has(channel)) continue;
    export_counter_track(tracer, options.cat, options.name_prefix + channel,
                         recorder.series(channel));
  }
}

}  // namespace dcs::obs
