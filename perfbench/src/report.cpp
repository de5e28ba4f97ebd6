#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "exp/jsonish.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using smartexp3::serve::EventLine;
using smartexp3::serve::json_array;

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

TrialSummary summarize(const std::vector<Trial>& trials, bool serial) {
  TrialSummary s;
  if (trials.empty()) return s;
  // The machine runs identical work at different speeds from one moment to
  // the next; short identical jobs let the fast quantile pick the moments it
  // ran undisturbed.
  const std::size_t jobs = trials.front().job_latency_s.size();
  std::vector<double> fast_latency;
  for (std::size_t j = 0; j < jobs; ++j) {
    std::vector<double> samples;
    for (const auto& t : trials) samples.push_back(t.job_latency_s.at(j));
    fast_latency.push_back(quantile(std::move(samples), kFastQuantile));
  }
  double fast_trial = 0.0;
  if (serial) {
    for (const double l : fast_latency) fast_trial += l;
  } else {
    std::vector<double> times;
    for (const auto& t : trials) times.push_back(t.seconds);
    fast_trial = quantile(std::move(times), kFastQuantile);
  }
  s.device_slots_per_s = trials.front().device_slots / fast_trial;
  s.jobs_per_s = static_cast<double>(jobs) / fast_trial;
  s.latency_p50_s = quantile(fast_latency, 0.5);
  s.latency_p90_s = quantile(fast_latency, 0.9);
  return s;
}

// ---- tracer ---------------------------------------------------------------

int Tracer::open(const char* name, int parent, long job) {
  const auto now = Clock::now();
  spans_.push_back({name, parent, job, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) { spans_[static_cast<std::size_t>(span)].end = Clock::now(); }

int Tracer::record(const char* name, int parent, long job, Clock::time_point start,
                   Clock::time_point end) {
  spans_.push_back({name, parent, job, start, end});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (const auto& s : spans_) {
    out << EventLine()
               .field("name", s.name)
               .field("parent", s.parent)
               .field("job", s.job)
               .field("start_us", us(s.start))
               .field("end_us", us(s.end))
               .str()
        << '\n';
  }
}

// ---- catalog --------------------------------------------------------------

const std::vector<LayerMetric>& layer_catalog() {
  static const std::vector<LayerMetric> catalog = {
      {"netsim.step_ns_per_device_slot", "ns", true},
      {"netsim.steady_allocs_per_device_slot", "count", true},
      {"netsim.build_world_s", "s", true},
      {"netsim.self_share", "ratio", true},
      {"metrics.on_slot_end_ns_per_device_slot", "ns", true},
      {"metrics.on_run_end_us_per_run", "us", true},
      {"metrics.self_share", "ratio", true},
      {"trace.overhead_ratio", "ratio", true},
      {"netsim.step_ns_per_device_slot.exp3", "ns", false},
      {"netsim.step_ns_per_device_slot.block", "ns", false},
      {"netsim.step_ns_per_device_slot.full_information", "ns", false},
      {"netsim.step_ns_per_device_slot.baseline", "ns", false},
      {"netsim.step_ns_per_device_slot.mixed", "ns", false},
      {"core.snapshot_s", "s", false},
      {"core.snapshot_words", "count", false},
      {"core.restore_s", "s", false},
      {"core.self_share", "ratio", false},
      {"exp.ckpt_per_job", "count", false},
      {"exp.ckpt_bytes", "bytes", false},
      {"exp.ckpt_serialize_s", "s", false},
      {"exp.ckpt_save_s", "s", false},
      {"exp.ckpt_prune_s", "s", false},
      {"exp.ckpt_share", "ratio", false},
      {"exp.self_share", "ratio", false},
      {"serve.admit_s", "s", false},
      {"serve.queue_wait_s", "s", false},
      {"serve.exec_s", "s", false},
      {"serve.events_per_job", "count", false},
      {"serve.event_bytes_per_job", "bytes", false},
      {"serve.stats_rtt_s", "s", false},
      {"serve.overhead_ratio", "ratio", false},
      {"serve.write_bytes_per_job", "bytes", false},
  };
  return catalog;
}

// ---- report ---------------------------------------------------------------

namespace {

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

std::string runs_dir(const Options& o) {
  const std::string dir = o.root + "/.bench_runs";
  std::error_code ec;
  fs::create_directories(dir, ec);
  return dir;
}

std::string quoted_list(const std::vector<std::string>& items, std::size_t limit) {
  std::vector<std::string> q;
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    q.push_back(smartexp3::exp::json_quote(items[i]));
  }
  return json_array(q);
}

}  // namespace

void Report::metric(const std::string& name, const std::string& unit, double value) {
  metrics_.push_back({name, {unit, finite(value)}});
}

void Report::layer(const std::string& name, double value) { layers_[name] = finite(value); }

void Report::note(const std::string& name, const std::string& unit, double value) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-46s %16.6g %s", name.c_str(), value, unit.c_str());
  notes_.push_back(line);
  context(name, value);
}

void Report::context(const std::string& key, double value) {
  context_.push_back({key, smartexp3::exp::json_number(finite(value))});
}

void Report::context(const std::string& key, const std::string& value) {
  context_.push_back({key, smartexp3::exp::json_quote(value)});
}

void Report::context_raw(const std::string& key, const std::string& json) {
  context_.push_back({key, json});
}

void Report::trial_series(const std::vector<Trial>& trials) {
  std::vector<std::string> times;
  for (const auto& t : trials) times.push_back(smartexp3::exp::json_number(t.seconds));
  context_raw("trial_seconds", json_array(times));
  context("trials", static_cast<double>(trials.size()));
  std::size_t jobs = 0;
  for (const auto& t : trials) jobs += t.job_latency_s.size();
  // p50/p90 are over one fast-quantile latency per job of a trial; each of
  // those is a quantile over `trials` samples of its job.
  context("latency_samples", static_cast<double>(jobs));
  context("latency_quantile_samples",
          trials.empty() ? 0.0 : static_cast<double>(trials.front().job_latency_s.size()));
}

void Report::end_to_end(const std::vector<Trial>& trials, bool serial,
                        const std::vector<double>& setup_s, double peak_rss_mb) {
  const TrialSummary s = summarize(trials, serial);
  metric("setup_s", "s", median(setup_s));
  metric("device_slots_per_s", "1/s", s.device_slots_per_s);
  metric("jobs_per_s", "1/s", s.jobs_per_s);
  metric("job_latency_p50_s", "s", s.latency_p50_s);
  metric("job_latency_p90_s", "s", s.latency_p90_s);
  metric("peak_rss_mb", "MB", peak_rss_mb);
  trial_series(trials);
  std::vector<std::string> setups;
  for (const double v : setup_s) setups.push_back(smartexp3::exp::json_number(v));
  context_raw("setup_seconds", json_array(setups));
}

void Report::layer_medians(const std::vector<std::map<std::string, double>>& rows) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& row : rows) {
    for (const auto& [name, v] : row) columns[name].push_back(v);
  }
  for (const auto& [name, values] : columns) layer(name, median(values));
  context("traced_trials", static_cast<double>(rows.size()));
}

void Report::trace_overhead(const std::vector<double>& traced_s,
                            const std::vector<double>& untraced_s) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced_s.size() && i < untraced_s.size(); ++i) {
    if (untraced_s[i] > 0.0) ratios.push_back(traced_s[i] / untraced_s[i]);
  }
  layer("trace.overhead_ratio", median(ratios));
  context("trace_pairs", static_cast<double>(ratios.size()));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::exact(const std::string& name, double value) {
  const auto [it, inserted] = exact_.emplace(name, value);
  if (!inserted && it->second != value) {
    exact_mismatches_.push_back(name + ": " + smartexp3::exp::json_number(it->second) +
                                " then " + smartexp3::exp::json_number(value));
  }
}

void Report::compare_with_earlier_runs() {
  if (exact_.empty()) return;
  const std::string path = runs_dir(options_) + "/exact-" + options_.workload + "-seed" +
                           std::to_string(options_.seed) + "-trace" +
                           (options_.trace ? "1" : "0") + ".txt";
  std::ifstream in(path);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) {
    const auto it = exact_.find(name);
    if (it != exact_.end() && it->second != value) {
      exact_mismatches_.push_back(name + ": earlier run " + smartexp3::exp::json_number(value) +
                                  ", this run " + smartexp3::exp::json_number(it->second));
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out.precision(17);
  for (const auto& [n, v] : exact_) out << n << ' ' << v << '\n';
}

int Report::finish() {
  compare_with_earlier_runs();
  if (attempted_ == 0) check(false, "no operation was attempted");

  std::cout << "perfbench " << options_.workload << " seed=" << options_.seed
            << " trace=" << (options_.trace ? 1 : 0) << " seconds=" << options_.seconds
            << "\n";
  EventLine result_metrics;
  const auto print = [&](const std::string& name, const std::string& unit, double v) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-46s %16.6g %s", name.c_str(), v, unit.c_str());
    std::cout << line << "\n";
    result_metrics.raw(name, EventLine().field("value", v).field("unit", unit).str());
  };
  if (options_.trace) {
    for (const auto& m : layer_catalog()) {
      const auto it = layers_.find(m.name);
      if (m.every_workload) {
        print(m.name, m.unit, it == layers_.end() ? 0.0 : it->second);
      } else if (it != layers_.end()) {
        note(m.name, m.unit, it->second);
      }
    }
  } else {
    for (const auto& [name, uv] : metrics_) print(name, uv.first, uv.second);
  }
  if (!notes_.empty()) {
    std::cout << "also measured (not in the result line):\n";
    for (const auto& n : notes_) std::cout << n << "\n";
  }
  for (const auto& m : exact_mismatches_) {
    std::cerr << "perfbench: exact count did not repeat: " << m << "\n";
  }
  for (const auto& f : failures_) std::cerr << "perfbench: check failed: " << f << "\n";

  if (options_.trace && !tracer_.empty()) {
    const std::string path = runs_dir(options_) + "/trace-" + options_.workload + "-seed" +
                             std::to_string(options_.seed) + ".jsonl";
    tracer_.write_jsonl(path);
    context("span_file", path);
  }

  EventLine ctx;
  ctx.field("workload", options_.workload)
      .field("seed", static_cast<std::uint64_t>(options_.seed))
      .field("seconds", options_.seconds)
      .field("trace", options_.trace)
      .field("nproc", options_.nproc)
      .field("state_fs", options_.state_fs);
  for (const auto& [k, v] : context_) ctx.raw(k, v);
  EventLine exact;
  for (const auto& [k, v] : exact_) exact.field(k, v);
  ctx.raw("exact_counts", exact.str())
      .raw("exact_mismatches", quoted_list(exact_mismatches_, 20))
      .field("failed_ratio", static_cast<double>(failed_) / static_cast<double>(attempted_))
      .raw("failures", quoted_list(failures_, 20));
  std::cout << "context: " << ctx.str() << "\n";

  std::cout << EventLine()
                   .field("correct", failed_ == 0)
                   .field("attempted", attempted_)
                   .field("failed", failed_)
                   .raw("metrics", result_metrics.str())
                   .str()
            << std::endl;
  return failed_ == 0 ? 0 : 1;
}

// ---- placement and /proc ---------------------------------------------------

void place_on_cpus(int trial, int width) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  const auto n = static_cast<int>(allowed.size());
  if (n <= width) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < width; ++i) CPU_SET(allowed[static_cast<std::size_t>((trial + i) % n)], &set);
  std::error_code ec;
  for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
    sched_setaffinity(std::stoi(task.path().filename().string()), sizeof(set), &set);
  }
}


double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {
long long proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      long long v = -1;
      fields >> v;
      return v;
    }
  }
  return -1;
}
}  // namespace

double proc_peak_rss_mb(int pid) {
  const long long kb = proc_field("/proc/" + std::to_string(pid) + "/status", "VmHWM:");
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

long long proc_wchar(int pid) {
  return proc_field("/proc/" + std::to_string(pid) + "/io", "wchar:");
}

}  // namespace perfbench
