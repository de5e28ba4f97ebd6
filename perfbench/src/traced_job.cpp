#include "traced_job.hpp"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "alloc_counter.hpp"
#include "core/snapshot.hpp"
#include "exp/checkpoint.hpp"
#include "exp/runner.hpp"
#include "exp/spec_io.hpp"
#include "metrics/recorder.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

using namespace smartexp3;

void LayerTimes::add(const LayerTimes& o) {
  build_s += o.build_s;
  step_s += o.step_s;
  slot_end_s += o.slot_end_s;
  run_end_s += o.run_end_s;
  snapshot_s += o.snapshot_s;
  serialize_s += o.serialize_s;
  save_s += o.save_s;
  prune_s += o.prune_s;
  total_s += o.total_s;
  device_slots += o.device_slots;
  steady_device_slots += o.steady_device_slots;
  steady_allocs += o.steady_allocs;
  checkpoints += o.checkpoints;
  checkpoint_bytes += o.checkpoint_bytes;
  snapshot_words += o.snapshot_words;
  runs += o.runs;
}

std::map<std::string, double> layer_values(const LayerTimes& t, double jobs) {
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double netsim_s = t.build_s + t.step_s - t.slot_end_s;
  const double metrics_s = t.slot_end_s + t.run_end_s;
  const double exp_s = t.total_s - t.build_s - t.step_s - t.run_end_s - t.snapshot_s;
  std::map<std::string, double> values = {
      {"netsim.step_ns_per_device_slot", 1e9 * per(t.step_s - t.slot_end_s, t.device_slots)},
      {"netsim.steady_allocs_per_device_slot", per(t.steady_allocs, t.steady_device_slots)},
      {"netsim.build_world_s", per(t.build_s, t.runs)},
      {"netsim.self_share", per(netsim_s, t.total_s)},
      {"metrics.on_slot_end_ns_per_device_slot", 1e9 * per(t.slot_end_s, t.device_slots)},
      {"metrics.on_run_end_us_per_run", 1e6 * per(t.run_end_s, t.runs)},
      {"metrics.self_share", per(metrics_s, t.total_s)},
      {"exp.self_share", per(exp_s, t.total_s)},
  };
  if (t.checkpoints > 0) {
    values.insert({
        {"core.snapshot_s", per(t.snapshot_s, t.checkpoints)},
        {"core.snapshot_words", per(t.snapshot_words, t.checkpoints)},
        {"core.self_share", per(t.snapshot_s, t.total_s)},
        {"exp.ckpt_per_job", per(t.checkpoints, jobs)},
        {"exp.ckpt_bytes", per(t.checkpoint_bytes, jobs)},
        {"exp.ckpt_serialize_s", per(t.serialize_s, t.checkpoints)},
        {"exp.ckpt_save_s", per(t.save_s, t.checkpoints)},
        {"exp.ckpt_prune_s", per(t.prune_s, t.checkpoints)},
        {"exp.ckpt_share", per(t.checkpoint_s(), t.total_s - t.serialize_s)},
    });
  }
  return values;
}

double job_device_slots(const exp::ExperimentConfig& config, int runs) {
  return static_cast<double>(config.devices.size()) *
         static_cast<double>(config.world.horizon) * runs;
}

std::string traced_job(const exp::ExperimentConfig& config, int runs,
                       const CheckpointReplica& checkpoint, Tracer& tracer, int parent,
                       long job, LayerTimes& out) {
  const auto job_start = Clock::now();
  const int job_span = tracer.open("job", parent, job);
  const double devices = static_cast<double>(config.devices.size());
  const Slot steady_from = std::min<Slot>(kSteadyFromSlot, config.world.horizon / 2);
  const std::uint64_t fingerprint =
      checkpoint.every > 0 ? exp::fnv1a64(exp::to_spec_text(config)) : 0;

  std::vector<metrics::RunResult> results;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = config.base_seed + static_cast<std::uint64_t>(r);
    const int run_span = tracer.open("run", job_span, job);

    auto start = Clock::now();
    const int build_span = tracer.open("build_world", run_span, job);
    auto world = exp::build_world(config, seed);
    tracer.close(build_span);
    out.build_s += seconds_between(start, Clock::now());

    metrics::RunRecorder recorder(config.recorder);
    TimedObserver observer(recorder);
    world->set_observer(&observer);
    const int steps_span = tracer.open("steps", run_span, job);
    while (!world->done()) {
      const bool steady = world->now() >= steady_from;
      if (steady) testing::start_alloc_counting();
      start = Clock::now();
      world->step();
      const auto stop = Clock::now();
      if (steady) {
        out.steady_allocs += static_cast<double>(testing::stop_alloc_counting());
        out.steady_device_slots += devices;
      }
      out.step_s += seconds_between(start, stop);

      if (checkpoint.every > 0 && !world->done() && world->now() % checkpoint.every == 0) {
        const int ck_span = tracer.open("checkpoint", steps_span, job);
        exp::Checkpoint c;
        c.run = r;
        c.seed = seed;
        c.slot = world->now();
        c.spec_fingerprint = fingerprint;
        start = Clock::now();
        core::StateWriter w(c.world_words);
        world->snapshot_into(w);
        c.has_recorder = true;
        core::StateWriter rw(c.recorder_words);
        recorder.snapshot_into(rw);
        auto t1 = Clock::now();
        const std::string text = exp::to_checkpoint_text(c);
        auto t2 = Clock::now();
        exp::save_checkpoint_file(c, exp::checkpoint_path(checkpoint.dir, r, c.slot));
        auto t3 = Clock::now();
        exp::prune_checkpoints(checkpoint.dir, r, checkpoint.keep);
        auto t4 = Clock::now();
        tracer.close(ck_span);
        out.snapshot_s += seconds_between(start, t1);
        out.serialize_s += seconds_between(t1, t2);
        out.save_s += seconds_between(t2, t3);
        out.prune_s += seconds_between(t3, t4);
        out.checkpoints += 1;
        out.checkpoint_bytes += static_cast<double>(text.size());
        out.snapshot_words +=
            static_cast<double>(c.world_words.size() + c.recorder_words.size());
      }
    }
    tracer.close(steps_span);
    out.slot_end_s += observer.slot_end_s;

    start = Clock::now();
    const int end_span = tracer.open("on_run_end", run_span, job);
    recorder.on_run_end(*world);
    tracer.close(end_span);
    out.run_end_s += seconds_between(start, Clock::now());
    results.push_back(recorder.take_result());
    tracer.close(run_span);
    out.device_slots += devices * static_cast<double>(config.world.horizon);
    out.runs += 1;
  }
  if (checkpoint.every > 0) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint.dir, ec);
  }
  std::string summary = serve::summary_json(config, results);
  tracer.close(job_span);
  out.total_s += seconds_between(job_start, Clock::now());
  return summary;
}

}  // namespace perfbench
