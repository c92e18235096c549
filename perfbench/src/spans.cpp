#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dassa/common/trace.hpp"
#include "json.hpp"

namespace perfbench::spans {

namespace {

struct Record {
  const char* name;
  const char* module;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local std::vector<std::uint64_t> t_open;  // this thread's stack

void store(Record r) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(r);
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() { return dassa::trace::detail::now_ns(); }

Span::Span(const char* name, const char* module, std::uint64_t request) {
  if (!enabled()) return;
  name_ = name;
  module_ = module;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? 0 : t_open.back();
  request_ = request;
  t_open.push_back(id_);
  start_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::uint64_t end = now_ns();
  t_open.pop_back();
  store(Record{name_, module_, id_, parent_, request_, start_, end});
}

void record(const char* name, const char* module, std::uint64_t parent,
            std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled()) return;
  store(Record{name, module, g_next_id.fetch_add(1, std::memory_order_relaxed),
               parent, 0, start_ns, std::max(start_ns, end_ns)});
}

std::map<std::string, double> self_seconds_by_module() {
  std::vector<Record> recs;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    recs = g_records;
  }
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Record& r : recs) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, double> self;
  for (const Record& r : recs) {
    std::uint64_t covered = 0;
    const auto it = children.find(r.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0;
      std::uint64_t cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_ns);
        hi = std::min(hi, r.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    const std::uint64_t dur = r.end_ns - r.start_ns;
    self[r.module] += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return self;
}

std::size_t count() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_records.size();
}

void write_json(const std::string& path) {
  Json all = Json::array();
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    for (const Record& r : g_records) {
      Json j = Json::object();
      j["name"] = r.name;
      j["module"] = r.module;
      j["id"] = r.id;
      j["parent"] = r.parent;
      j["request"] = r.request;
      j["start_ns"] = r.start_ns;
      j["end_ns"] = r.end_ns;
      all.push(std::move(j));
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << all.dump() << "\n";
}

}  // namespace perfbench::spans
