// paper_batch and xl_steady: the simulation library driven in-process.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/snapshot.hpp"
#include "exp/checkpoint.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "metrics/recorder.hpp"
#include "serve/scheduler.hpp"
#include "traced_job.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace smartexp3;

/// Trials keep going past --seconds until there are this many.
constexpr int kMinTrials = 10;

// ---- paper_batch ------------------------------------------------------------

struct MixEntry {
  const char* setting;
  const char* policy;  ///< "" = the setting's default
  int runs;
};

/// One trial is one pass over this mix, each entry one exp::run_many call
/// with the setting's own recorder options. Run counts keep a pass near
/// 0.3 s on one core, so a run holds dozens of identical trials.
constexpr MixEntry kPaperMix[] = {
    {"setting1", "exp3", 8},          {"setting1", "block_exp3", 8},
    {"setting1", "hybrid_block_exp3", 8}, {"setting1", "smart_exp3_noreset", 8},
    {"setting1", "smart_exp3", 8},    {"setting1", "greedy", 8},
    {"setting1", "full_information", 4}, {"setting1", "centralized", 8},
    {"setting1", "fixed_random", 8},  {"join", "", 8},
    {"leave", "", 8},                 {"mobility", "", 6},
    {"greedy_mix", "", 8},            {"controlled", "", 24},
    {"trace1", "", 40},
};

struct MixJob {
  exp::ExperimentConfig config;
  int runs = 0;
  std::string family;  ///< policy family for the per-family step split
};

std::string policy_family(const std::string& label) {
  if (label == "exp3" || label == "full_information" || label == "mixed") return label;
  if (label == "smart_exp3" || label == "smart_exp3_noreset" || label == "block_exp3" ||
      label == "hybrid_block_exp3") {
    return "block";
  }
  return "baseline";  // greedy, centralized, fixed_random, ucb1
}

/// The set-up W1 times: resolve and validate every setting of the mix, with
/// base seeds drawn from the workload seed.
std::vector<MixJob> resolve_mix(std::uint64_t seed) {
  SeedRng rng(seed);
  std::vector<MixJob> jobs;
  for (const auto& e : kPaperMix) {
    exp::SettingParams params;
    params.policy = e.policy;
    MixJob job{exp::make_setting(e.setting, params), e.runs, ""};
    job.config.base_seed = rng.next();
    job.config.validate_or_throw();
    job.family = policy_family(serve::policy_label(job.config));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

void run_paper_batch(const Options& options, Report& report) {
  std::vector<Trial> trials;
  std::vector<double> setup_s, traced_s, untraced_s;
  std::vector<std::string> reference;  // the first trial's summaries
  std::vector<std::map<std::string, double>> layer_rows;
  Tracer& tracer = report.tracer();

  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int k = 0; Clock::now() < deadline || k < kMinTrials; ++k) {
    place_on_cpus(options.trace ? k / 2 : k, 1);
    const auto setup_start = Clock::now();
    const std::vector<MixJob> jobs = resolve_mix(options.seed);
    setup_s.push_back(seconds_between(setup_start, Clock::now()));

    const bool traced = options.trace && k % 2 == 0;
    const int trial_span = traced ? tracer.open("trial", -1, k) : -1;
    Trial trial;
    LayerTimes total;
    std::map<std::string, LayerTimes> by_family;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const MixJob& job = jobs[i];
      const auto start = Clock::now();
      std::string summary;
      if (traced) {
        LayerTimes t;
        summary = traced_job(job.config, job.runs, {}, tracer, trial_span,
                             static_cast<long>(i), t);
        total.add(t);
        by_family[job.family].add(t);
      } else {
        summary = serve::summary_json(job.config, exp::run_many(job.config, job.runs, 1));
      }
      const double latency = seconds_between(start, Clock::now());
      trial.job_latency_s.push_back(latency);
      trial.seconds += latency;
      trial.device_slots += job_device_slots(job.config, job.runs);
      if (reference.size() <= i) reference.push_back(summary);
      report.check(summary == reference[i],
                   "trial " + std::to_string(k) + " " + job.config.name + "/" +
                       serve::policy_label(job.config) + " summary differs from trial 0");
    }
    if (!traced) {
      if (!traced_s.empty() && untraced_s.size() < traced_s.size()) {
        untraced_s.push_back(trial.seconds);
      }
      trials.push_back(std::move(trial));
      continue;
    }
    tracer.close(trial_span);
    traced_s.push_back(trial.seconds);
    auto row = layer_values(total, static_cast<double>(jobs.size()));
    for (const auto& [family, t] : by_family) {
      row["netsim.step_ns_per_device_slot." + family] =
          1e9 * (t.step_s - t.slot_end_s) / t.device_slots;
    }
    layer_rows.push_back(std::move(row));
    report.exact("steady_allocs_per_trial", total.steady_allocs);
  }

  report.context("loop", "closed, one exp::run_many(threads=1) call per mix entry");
  report.context("concurrency", 1.0);
  report.context("lanes", 1.0);
  report.context("mix_entries", static_cast<double>(std::size(kPaperMix)));
  report.context("steady_from_slot", static_cast<double>(kSteadyFromSlot));
  if (options.trace) {
    report.layer_medians(layer_rows);
    report.trace_overhead(traced_s, untraced_s);
    report.trial_series(trials);
  } else {
    report.end_to_end(trials, true, setup_s, self_peak_rss_mb());
  }
}

// ---- xl_steady --------------------------------------------------------------

namespace {

constexpr int kXlDevices = 20000;  ///< 2 auto shards; see README "Noise"
constexpr int kXlNetworks = 5;
constexpr int kXlLanes = 2;
/// A throwaway build_world is timed every this many trials, so set-up
/// samples spread over the run the way trials do instead of all falling
/// into the first half second.
constexpr int kXlBuildEvery = 3;
constexpr Slot kXlWarmup = 150;  ///< past the block-start transient
constexpr int kXlJobs = 20;      ///< jobs per trial ...
constexpr Slot kXlJobSlots = 2;   ///< ... of this many slots each

/// Snapshot of the world and its recorder, as a checkpoint holds them.
struct XlSnapshot {
  std::vector<std::uint64_t> world, recorder;
};

XlSnapshot take_snapshot(const netsim::World& world, const metrics::RunRecorder& recorder) {
  XlSnapshot s;
  core::StateWriter w(s.world);
  world.snapshot_into(w);
  core::StateWriter r(s.recorder);
  recorder.snapshot_into(r);
  return s;
}

std::uint64_t digest(const XlSnapshot& s) {
  std::vector<std::uint64_t> all = s.world;
  all.insert(all.end(), s.recorder.begin(), s.recorder.end());
  return exp::fnv1a64(reinterpret_cast<const char*>(all.data()),
                      all.size() * sizeof(std::uint64_t));
}

}  // namespace

void run_xl_steady(const Options& options, Report& report) {
  exp::SettingParams params;
  params.policy = "smart_exp3";
  params.devices = kXlDevices;
  params.networks = kXlNetworks;
  // Each trial replays the end of the run: the window, then on_run_end.
  params.horizon = kXlWarmup + kXlJobs * kXlJobSlots;
  exp::ExperimentConfig config = exp::make_setting("scalability_xl", params);
  config.world.threads = kXlLanes;
  config.world.shards = 0;  // auto
  config.base_seed = SeedRng(options.seed).next();
  const double slot_device_slots = static_cast<double>(kXlDevices);

  std::vector<double> setup_s;
  const auto timed_build = [&] {
    const auto start = Clock::now();
    auto built = exp::build_world(config, config.base_seed);
    setup_s.push_back(seconds_between(start, Clock::now()));
    return built;
  };
  // The world observed by a RunRecorder with the setting's own options,
  // the way exp::run_many runs it.
  std::unique_ptr<netsim::World> world = timed_build();
  metrics::RunRecorder bare(config.recorder);
  world->set_observer(&bare);
  const auto warm_start = Clock::now();
  for (Slot t = 0; t < kXlWarmup; ++t) world->step();
  report.context("warmup_slots", static_cast<double>(kXlWarmup));
  report.context("warmup_s", seconds_between(warm_start, Clock::now()));

  const XlSnapshot warmed = take_snapshot(*world, bare);
  // The bare continuation of the warmed run is the reference every replayed
  // window must reproduce: the same end state and the same summary.
  while (!world->done()) world->step();
  bare.on_run_end(*world);
  const std::uint64_t reference_digest = digest(take_snapshot(*world, bare));
  const std::string reference_summary = serve::summary_json(config, {bare.take_result()});

  std::vector<Trial> trials;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::map<std::string, double>> layer_rows;
  Tracer& tracer = report.tracer();
  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int k = 0; Clock::now() < deadline || k < kMinTrials; ++k) {
    // A traced trial and the untraced one after it share a placement.
    place_on_cpus(options.trace ? k / 2 : k, kXlLanes);
    if (k % kXlBuildEvery == 0) timed_build();
    const bool traced = options.trace && k % 2 == 0;
    const int trial_span = traced ? tracer.open("trial", -1, k) : -1;

    auto start = Clock::now();
    const int restore_span = traced ? tracer.open("restore_from", trial_span) : -1;
    core::StateReader world_reader(warmed.world);
    world->restore_from(world_reader);
    // A fresh recorder per trial, restored the way a resumed run restores one.
    metrics::RunRecorder recorder(config.recorder);
    core::StateReader recorder_reader(warmed.recorder);
    recorder.restore_from(recorder_reader, *world);
    if (traced) tracer.close(restore_span);
    const double restore_s = seconds_between(start, Clock::now());
    report.check(world_reader.exhausted() && recorder_reader.exhausted(),
                 "snapshot words left over after restore");

    TimedObserver observer(recorder);
    world->set_observer(traced ? static_cast<netsim::WorldObserver*>(&observer) : &recorder);
    Trial trial;
    double allocs = 0.0;
    for (int j = 0; j < kXlJobs; ++j) {
      const int job_span = traced ? tracer.open("window", trial_span, j) : -1;
      start = Clock::now();
      for (Slot t = 0; t < kXlJobSlots; ++t) {
        if (traced) testing::start_alloc_counting();
        world->step();
        if (traced) allocs += static_cast<double>(testing::stop_alloc_counting());
      }
      const double latency = seconds_between(start, Clock::now());
      if (traced) tracer.close(job_span);
      trial.job_latency_s.push_back(latency);
      trial.seconds += latency;
      trial.device_slots += slot_device_slots * static_cast<double>(kXlJobSlots);
    }
    world->set_observer(nullptr);

    start = Clock::now();
    const int end_span = traced ? tracer.open("on_run_end", trial_span) : -1;
    recorder.on_run_end(*world);
    if (traced) tracer.close(end_span);
    const double run_end_s = seconds_between(start, Clock::now());

    start = Clock::now();
    const int snapshot_span = traced ? tracer.open("snapshot_into", trial_span) : -1;
    const XlSnapshot end_state = take_snapshot(*world, recorder);
    if (traced) tracer.close(snapshot_span);
    const double snapshot_s = seconds_between(start, Clock::now());
    report.check(digest(end_state) == reference_digest,
                 "trial " + std::to_string(k) + " end-state digest differs from the reference");
    report.check(serve::summary_json(config, {recorder.take_result()}) == reference_summary,
                 "trial " + std::to_string(k) + " summary differs from the reference");

    if (!traced) {
      if (!traced_s.empty() && untraced_s.size() < traced_s.size()) {
        untraced_s.push_back(trial.seconds);
      }
      trials.push_back(std::move(trial));
      continue;
    }
    tracer.close(trial_span);
    traced_s.push_back(trial.seconds);
    const double total_s = restore_s + trial.seconds + run_end_s + snapshot_s;
    const double step_ns = 1e9 * (trial.seconds - observer.slot_end_s) / trial.device_slots;
    const double words = static_cast<double>(end_state.world.size() + end_state.recorder.size());
    layer_rows.push_back({
        {"netsim.step_ns_per_device_slot", step_ns},
        {"netsim.step_ns_per_device_slot.block", step_ns},
        {"netsim.steady_allocs_per_device_slot", allocs / trial.device_slots},
        {"netsim.build_world_s", median(setup_s)},
        {"netsim.self_share", (trial.seconds - observer.slot_end_s) / total_s},
        {"metrics.on_slot_end_ns_per_device_slot", 1e9 * observer.slot_end_s / trial.device_slots},
        {"metrics.on_run_end_us_per_run", 1e6 * run_end_s},
        {"metrics.self_share", (observer.slot_end_s + run_end_s) / total_s},
        {"core.snapshot_s", snapshot_s},
        {"core.snapshot_words", words},
        {"core.restore_s", restore_s},
        {"core.self_share", (restore_s + snapshot_s) / total_s},
    });
    report.exact("steady_allocs_per_trial", allocs);
    report.exact("snapshot_words", words);
  }

  report.context("loop", "closed, one world stepped by the benchmark thread");
  report.context("concurrency", 1.0);
  report.context("lanes", static_cast<double>(world->thread_count()));
  report.context("shards", static_cast<double>(world->shard_count()));
  report.context("devices", slot_device_slots);
  report.context("window_slots", static_cast<double>(kXlJobs * kXlJobSlots));
  if (options.trace) {
    report.layer_medians(layer_rows);
    report.trace_overhead(traced_s, untraced_s);
    report.trial_series(trials);
  } else {
    report.end_to_end(trials, true, setup_s, self_peak_rss_mb());
  }
}

}  // namespace perfbench
