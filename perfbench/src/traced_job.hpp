// The traced replica of one job: the run loop exp::run_many(threads=1)
// performs, spelled out through public functions so each layer's share can
// be timed from outside the library.
#pragma once

#include <cstdint>
#include <string>

#include "exp/config.hpp"
#include "metrics/recorder.hpp"
#include "report.hpp"

namespace perfbench {

/// Forwards to a RunRecorder and times each call: the metrics layer's span
/// boundary, since World::step invokes the observer itself.
class TimedObserver final : public smartexp3::netsim::WorldObserver {
 public:
  explicit TimedObserver(smartexp3::metrics::RunRecorder& inner) : inner_(inner) {}
  void on_slot_end(smartexp3::Slot t, const smartexp3::netsim::World& world) override {
    const auto start = Clock::now();
    inner_.on_slot_end(t, world);
    slot_end_s += seconds_between(start, Clock::now());
  }

  double slot_end_s = 0.0;

 private:
  smartexp3::metrics::RunRecorder& inner_;
};

/// Totals for the calls a traced job made, per layer.
struct LayerTimes {
  double build_s = 0.0;        ///< exp::build_world
  double step_s = 0.0;         ///< World::step, including the observer
  double slot_end_s = 0.0;     ///< RunRecorder::on_slot_end (inside step_s)
  double run_end_s = 0.0;      ///< RunRecorder::on_run_end
  double snapshot_s = 0.0;     ///< World + RunRecorder snapshot_into
  double serialize_s = 0.0;    ///< exp::to_checkpoint_text
  double save_s = 0.0;         ///< exp::save_checkpoint_file (serializes again)
  double prune_s = 0.0;        ///< exp::prune_checkpoints
  double total_s = 0.0;        ///< the whole job, summary included
  double device_slots = 0.0;
  double steady_device_slots = 0.0;  ///< device-slots at slot >= kSteadyFromSlot
  double steady_allocs = 0.0;        ///< heap allocations inside those steps
  double checkpoints = 0.0;
  double checkpoint_bytes = 0.0;
  double snapshot_words = 0.0;
  double runs = 0.0;

  void add(const LayerTimes& o);
  /// Checkpoint time as the runner pays it (the extra serialize excluded).
  double checkpoint_s() const { return snapshot_s + save_s + prune_s; }
};

/// Steps before this slot (or half the horizon, if sooner) are warm-up:
/// their allocations are not counted.
inline constexpr int kSteadyFromSlot = 50;

/// The serve layer's checkpoint cadence replayed in-process; every == 0 = off.
struct CheckpointReplica {
  int every = 0;
  int keep = 2;
  std::string dir;
};

/// Run `runs` runs of `config` (seeds base_seed + r) the way run_many does
/// on one lane, timing every call into the library, and optionally replaying
/// the runner's checkpoint sequence (World::snapshot_into,
/// RunRecorder::snapshot_into, to_checkpoint_text, save_checkpoint_file,
/// prune_checkpoints) at its cadence. Adds to `out`; returns the job's
/// summary_json, which must equal the bare exp::run_many summary.
std::string traced_job(const smartexp3::exp::ExperimentConfig& config, int runs,
                       const CheckpointReplica& checkpoint, Tracer& tracer, int parent,
                       long job, LayerTimes& out);

/// The per-layer metrics (README table) that `t`, the totals of `jobs`
/// traced jobs, determines. Self shares are of t.total_s.
std::map<std::string, double> layer_values(const LayerTimes& t, double jobs);

/// Device-slots a job of `runs` runs simulates (configured devices x horizon).
double job_device_slots(const smartexp3::exp::ExperimentConfig& config, int runs);

}  // namespace perfbench
