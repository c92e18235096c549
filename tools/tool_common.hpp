// Scaffolding shared by the DASSA tools: --log-level/--log-json setup,
// prefix-filtered counter records, and the checked telemetry export.
#pragma once

#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "arg_parse.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/telemetry.hpp"

namespace dassa::tools {

inline LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  throw InvalidArgument("unknown log level: " + name);
}

/// Apply --log-level (debug|info|warn|error, default info) and
/// --log-json (mirror records to a JSONL file).
inline void configure_logging(const Args& args) {
  set_log_level(parse_log_level(args.get("--log-level", "info")));
  if (args.has("--log-json")) set_log_file(args.get("--log-json"));
}

/// One structured `event` record listing every global counter whose
/// name starts with one of `prefixes`; no record if none has moved.
inline void log_counters(const char* event,
                         std::initializer_list<std::string_view> prefixes) {
  std::string line;
  for (const auto& [name, value] : global_counters().snapshot()) {
    for (const std::string_view prefix : prefixes) {
      if (name.starts_with(prefix)) {
        line += ' ';
        line += name;
        line += '=';
        line += std::to_string(value);
        break;
      }
    }
  }
  if (!line.empty()) {
    DASSA_SLOG(kInfo, event) << line;
  }
}

/// Write `file` (the tool's meta and rank snapshots) with the
/// sampler's timeline to `path`, read the bytes on disk back through
/// the strict reader, and log `event` with what was written.
/// `report` prints the run report from the re-read file to stdout --
/// the end-of-run path; a daemon's SIGUSR1 flush leaves it off.
inline void export_telemetry(const std::string& path,
                             telemetry::TelemetryFile file,
                             const telemetry::TelemetrySampler& sampler,
                             const char* event, bool report) {
  file.timeline = sampler.timeline();
  telemetry::write_telemetry_file(path, file);
  const telemetry::TelemetryFile back = telemetry::read_telemetry_file(path);
  DASSA_SLOG(kInfo, event)
      .field("path", path)
      .field("samples", static_cast<std::uint64_t>(back.timeline.size()))
      .field("ranks", static_cast<std::uint64_t>(back.ranks.size()))
      .field("evicted", sampler.evicted());
  if (report) telemetry::write_health_report(std::cout, back);
}

}  // namespace dassa::tools
