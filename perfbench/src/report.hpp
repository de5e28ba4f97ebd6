// Shared pieces of the benchmark binary: options, seeded input generation,
// order statistics over identical-work trials, the in-memory span tracer,
// and the Report every workload fills in and prints. Method and metric
// definitions: perfbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root;       ///< checkout root; run output goes to <root>/.bench_runs
  std::string state_dir;  ///< server state dirs, sockets, checkpoint replicas
  std::string state_fs;   ///< filesystem type of state_dir ("tmpfs", ...)
  int nproc = 1;
};

/// splitmix64 stream: every generated input derives from the workload seed.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  /// Fisher-Yates shuffle driven by this stream.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(static_cast<int>(i))]);
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One identical-work trial: the same inputs every time, so trials differ
/// only in how fast the machine ran them.
struct Trial {
  double seconds = 0.0;               ///< wall time of the timed work
  double device_slots = 0.0;          ///< simulated device-slots it covered
  std::vector<double> job_latency_s;  ///< one entry per job, in job order
};

/// The quantile of identical trials that rates and latencies come from: the
/// fast 2% (README "Noise" for why not the fast decile).
inline constexpr double kFastQuantile = 0.02;

/// The fast-quantile summary of identical trials (README "Constructions").
/// Each job's latency is the fast quantile of that job's latencies over the
/// trials; p50/p90 are over those per-job latencies. A serial trial's time
/// is the sum of its jobs' fast-quantile latencies; a concurrent trial's
/// time is the fast quantile of the trial times.
struct TrialSummary {
  double device_slots_per_s = 0.0;
  double jobs_per_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
};
TrialSummary summarize(const std::vector<Trial>& trials, bool serial);

/// In-memory spans around calls into the library, written out when the run
/// ends. Per-slot calls are far too many to keep one span each; workloads
/// fold those into totals and record one span per run or window instead.
class Tracer {
 public:
  /// Open a span under `parent` (-1 = root); returns its handle.
  int open(const char* name, int parent, long job = -1);
  void close(int span);
  /// A span measured elsewhere (e.g. from client-side event timestamps).
  int record(const char* name, int parent, long job, Clock::time_point start,
              Clock::time_point end);
  void write_jsonl(const std::string& path) const;
  bool empty() const { return spans_.empty(); }

 private:
  struct Span {
    const char* name;
    int parent;
    long job;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// The per-layer metric catalog. Entries every workload reaches form the
/// traced run's result line, in BENCHMARK.json order; the others are printed
/// (and put in the context) by the workloads that reach them.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool every_workload;
};
const std::vector<LayerMetric>& layer_catalog();

/// Everything one run reports: end-to-end metrics (untraced run), per-layer
/// metrics (traced run), correctness checks, exact counts and the run
/// context that lets a noisy run be diagnosed without rerunning it.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void metric(const std::string& name, const std::string& unit, double value);
  void layer(const std::string& name, double value);
  /// Human-readable extra (printed, not part of the result line).
  void note(const std::string& name, const std::string& unit, double value);
  void context(const std::string& key, double value);
  void context(const std::string& key, const std::string& value);
  void context_raw(const std::string& key, const std::string& json);
  void trial_series(const std::vector<Trial>& trials);

  /// The end-to-end metrics every workload reports, from its untraced
  /// trials and set-up samples (README "End-to-end metrics").
  void end_to_end(const std::vector<Trial>& trials, bool serial,
                  const std::vector<double>& setup_s, double peak_rss_mb);
  /// Per-layer metrics: the median of each name over the traced trials.
  void layer_medians(const std::vector<std::map<std::string, double>>& rows);
  /// trace.overhead_ratio: median traced/untraced time over adjacent pairs.
  void trace_overhead(const std::vector<double>& traced_s,
                      const std::vector<double>& untraced_s);

  /// One correctness-checked operation; a failure counts in `failed`.
  void check(bool ok, const std::string& what);
  /// An exact count for this trial: every trial (and every earlier run with
  /// the same workload and seed) must report the same value, else flagged.
  void exact(const std::string& name, double value);

  Tracer& tracer() { return tracer_; }

  /// Print the report, the context line and the result JSON (last line).
  /// Returns the process exit code: 0 only when every check passed.
  int finish();

 private:
  void compare_with_earlier_runs();

  const Options& options_;
  std::vector<std::pair<std::string, std::pair<std::string, double>>> metrics_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> context_;  // key, raw json
  std::map<std::string, double> exact_;
  std::vector<std::string> exact_mismatches_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
  Tracer tracer_;
};

/// Move every thread of this process onto `width` of the CPUs it was
/// allowed when first called, the set shifting by one CPU per `trial`. The
/// host slows single vCPUs for seconds at a time; rotating trials over all
/// of them lets the fast quantile find the undisturbed ones (README "Noise").
/// Does nothing when no more than `width` CPUs are allowed.
void place_on_cpus(int trial, int width);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();
/// /proc/<pid>/status VmHWM in MB, or 0 when unreadable.
double proc_peak_rss_mb(int pid);
/// /proc/<pid>/io wchar (bytes passed to write-like calls), or -1.
long long proc_wchar(int pid);

}  // namespace perfbench
