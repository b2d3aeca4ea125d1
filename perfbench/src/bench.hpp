// Shared types of the repository benchmark: run options, the report every
// workload fills, order statistics, and the trace summary that turns the
// program's span tracer output into per-layer self times.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;  ///< where trace files are written (empty = nowhere)
};

/// One reported number. `note` is printed beside it (percentile, samples).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// What one run reports: metrics, correctness outcome, provenance.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {});
  /// Records `n` attempted operations.
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Records a failed operation (counted in `failed`, makes the run incorrect).
  void fail(const std::string& what, std::uint64_t n = 1);
  /// A correctness check that is not an operation (trace self-check).
  void check(bool ok, const std::string& what);
  void info(const std::string& key, const std::string& value);
  /// A line of the per-layer self-time table.
  void layer_line(const std::string& line) { layer_lines_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }

  /// Human-readable report on stdout, then the one-line JSON result last.
  void print(bool trace) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::vector<std::string> layer_lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Order statistics ------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample set.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The highest percentile that still has at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> samples);
/// "p88.5 of 87 samples" for the printed note.
std::string tail_note(const Tail& tail);

// --- Timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

// --- Trace summary ---------------------------------------------------------

/// Aggregate of every span with one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< Σ durations
  double self_us = 0.0;   ///< Σ (duration − time covered by child spans)
  double children_us = 0.0;  ///< Σ time covered by direct children
  double sum_b = 0.0;  ///< Σ second span argument (rows)
};

/// Per-name span statistics accumulated over one or more exported traces.
struct TraceSummary {
  std::map<std::string, SpanStats> by_name;
  /// Per layer (span argument a) statistics of spans in category "replay".
  std::map<std::string, std::map<std::uint32_t, SpanStats>> by_layer;
  std::vector<double> forward_us;  ///< every "forward" span duration
  /// (request id, enqueue-span start in µs) for generator lateness.
  std::vector<std::pair<std::uint32_t, double>> enqueue_start_us;
  std::uint64_t raw_events = 0;  ///< every exported event, instants included
  bool balanced = true;  ///< no end without a begin, nothing left open

  /// Parses one Chrome trace export of obs::Tracer and folds it in.
  void add_chrome_trace(const std::string& json);
  const SpanStats& get(const std::string& name) const;
  /// Σ over names with the given prefix ("norm/").
  SpanStats sum_prefix(const std::string& prefix) const;
};

/// Exports the process tracer, folds it into `summary`, optionally writes the
/// export to `path`, and clears the tracer. Returns false when the tracer
/// dropped events (a ring was too small), which breaks self times.
bool drain_tracer(TraceSummary& summary, const std::string& path = {});

}  // namespace perfbench
