#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/json_lite.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace common = haan::common;
namespace obs = haan::obs;

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::fail(const std::string& what, std::uint64_t n) {
  failed_ += n;
  failures_.push_back(what);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  info("check", std::string(ok ? "PASS " : "FAIL ") + what);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::print(bool trace) const {
  for (const auto& [key, value] : info_) {
    std::printf("%-22s: %s\n", key.c_str(), value.c_str());
  }
  if (!layer_lines_.empty()) {
    std::printf("\nper-layer self time (traced pass):\n");
    for (const std::string& line : layer_lines_) std::printf("  %s\n", line.c_str());
  }
  std::printf("\n%s metrics:\n", trace ? "per-layer" : "end-to-end");
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& failure : failures_) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  common::Json::Object metrics;
  for (const Metric& m : metrics_) {
    common::Json::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  common::Json::Object result;
  result["correct"] = correct();
  result["attempted"] = static_cast<double>(attempted_);
  result["failed"] = static_cast<double>(failed_);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", common::Json(std::move(result)).dump().c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q / 100.0 * n), 1.0, n));
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  // Index n-11 leaves exactly ten samples beyond it; tiny sets fall back to
  // the minimum, which the note makes visible.
  const std::size_t n = samples.size();
  const std::size_t index = n > 10 ? n - 11 : 0;
  tail.value = samples[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

std::string tail_note(const Tail& tail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f of %zu samples", tail.percentile,
                tail.samples);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- Trace parsing ----------------------------------------------------------
//
// obs::Tracer::export_chrome_json writes one event per line with a fixed
// field order: {"ph":"B","pid":1,"tid":T,"ts":US,"name":"..","cat":"..",
// "args":{..."a":A,"b":B}}. End events carry only ph/pid/tid/ts. Nesting is
// per thread, so a stack per tid recovers each span's parent.

namespace {

std::string field_string(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  return line.substr(begin, end - begin);
}

double field_number(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

struct Open {
  std::string name;
  bool replay = false;
  double start_us = 0.0;
  double children_us = 0.0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

void add_to(SpanStats& stats, const Open& open, double dur_us) {
  stats.count += 1;
  stats.total_us += dur_us;
  stats.self_us += dur_us - open.children_us;
  stats.children_us += open.children_us;
  stats.sum_b += open.b;
}

}  // namespace

void TraceSummary::add_chrome_trace(const std::string& json) {
  std::map<long, std::vector<Open>> stacks;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    const std::string ph = field_string(line, "ph");
    if (ph.empty() || ph == "M") continue;
    raw_events += 1;
    if (ph != "B" && ph != "E") continue;
    const long tid = static_cast<long>(field_number(line, "tid"));
    const double ts = field_number(line, "ts");
    std::vector<Open>& stack = stacks[tid];
    if (ph == "B") {
      Open open;
      open.name = field_string(line, "name");
      open.replay = field_string(line, "cat") == "replay";
      open.start_us = ts;
      open.a = static_cast<std::uint32_t>(field_number(line, "a"));
      open.b = static_cast<std::uint32_t>(field_number(line, "b"));
      if (open.name == "enqueue") enqueue_start_us.emplace_back(open.a, ts);
      stack.push_back(std::move(open));
      continue;
    }
    if (stack.empty()) {
      balanced = false;
      continue;
    }
    const Open open = std::move(stack.back());
    stack.pop_back();
    const double dur = ts - open.start_us;
    add_to(by_name[open.name], open, dur);
    if (open.replay) add_to(by_layer[open.name][open.a], open, dur);
    if (open.name == "forward") forward_us.push_back(dur);
    if (!stack.empty()) stack.back().children_us += dur;
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) balanced = false;
  }
}

const SpanStats& TraceSummary::get(const std::string& name) const {
  static const SpanStats kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

SpanStats TraceSummary::sum_prefix(const std::string& prefix) const {
  SpanStats sum;
  for (const auto& [name, stats] : by_name) {
    if (name.rfind(prefix, 0) != 0) continue;
    sum.count += stats.count;
    sum.total_us += stats.total_us;
    sum.self_us += stats.self_us;
    sum.children_us += stats.children_us;
    sum.sum_b += stats.sum_b;
  }
  return sum;
}

bool drain_tracer(TraceSummary& summary, const std::string& path) {
  obs::Tracer& tracer = obs::tracer();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(false);
  const obs::Tracer::Stats stats = tracer.stats();
  const std::string json = tracer.export_chrome_json();
  const std::uint64_t raw_before = summary.raw_events;
  summary.add_chrome_trace(json);
  // The exporter closes spans left open and drops ends whose begin was lost;
  // either changes the event count against what the rings recorded.
  if (summary.raw_events - raw_before != stats.events) summary.balanced = false;
  if (!path.empty()) common::write_file(path, json);
  tracer.reset();
  tracer.set_enabled(was_enabled);
  return stats.dropped == 0;
}

}  // namespace perfbench
