// perfbench: the benchmark's own span recorder (traced runs only).
//
// Spans wrap the benchmark's calls into each DASSA module's public
// functions -- no span is added inside the program. Each records its
// name, module, start, end, parent span and, for serve traffic, the
// request id every span of one request shares. Spans stay in memory
// and are written out when the run ends; a module's self time is the
// summed duration of its spans minus the time their child spans cover.
//
// When tracing is off a Span reads no clock and stores nothing, so the
// end-to-end runs pay one relaxed load per instrumented call.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void enable(bool on);
[[nodiscard]] bool enabled();

/// The clock every benchmark timestamp uses: DASSA's trace clock
/// (steady, ns), so stamps compare with the program's own (e.g. the
/// ingest admission stamp).
[[nodiscard]] std::uint64_t now_ns();

class Span {
 public:
  Span(const char* name, const char* module, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// 0 when tracing is off.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t start_ns() const { return start_; }

 private:
  const char* name_ = nullptr;
  const char* module_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t start_ = 0;
};

/// Record a child interval the program measured itself (the engine's
/// per-stage walls from EngineReport) under span `parent`.
void record(const char* name, const char* module, std::uint64_t parent,
            std::uint64_t start_ns, std::uint64_t end_ns);

/// Self seconds per module over every span recorded so far.
[[nodiscard]] std::map<std::string, double> self_seconds_by_module();

[[nodiscard]] std::size_t count();

/// Write every recorded span as a JSON array.
void write_json(const std::string& path);

}  // namespace perfbench::spans
