// serve_ckpt and serve_burst: netsel_serve driven over its Unix socket by
// closed-loop connections, every completed summary checked against the bare
// exp::run_many summary of the same request.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "traced_job.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace smartexp3;

constexpr int kConnections = 4;      ///< closed-loop clients
constexpr int kServerJobs = 2;       ///< netsel_serve --jobs
constexpr int kServerLanes = 2;      ///< netsel_serve --lanes
constexpr int kLaneBudget = kServerLanes / kServerJobs;  ///< lanes per job
constexpr int kCheckpointEvery = 200;  ///< netsel_serve's default cadence
constexpr int kPairsPerTrial = 2;    ///< served-vs-bare pairs after each trial
constexpr int kMinTrials = 10;
constexpr double kStallSeconds = 60.0;  ///< no event for this long = failure

struct StreamJob {
  std::string id;
  std::string request;  ///< the submit line, newline-terminated
  exp::ExperimentConfig config;
  int runs = 1;
  std::string reference;  ///< serve::summary_json of bare exp::run_many
};

/// A request stream generated from the workload seed. The server receives
/// only these lines; every trial replays the same stream.
struct Stream {
  std::vector<StreamJob> jobs;   ///< closed-loop phase, in submission order
  int stats_offset = -1;         ///< stats after submit i when i % 10 == offset
  std::vector<std::string> server_args;
};

StreamJob make_job(const std::string& id, const std::string& setting,
                   const std::string& policy, int runs, Slot horizon, std::uint64_t seed,
                   const std::string& tenant) {
  serve::EventLine req;
  req.field("type", "submit").field("id", id).field("setting", setting).field("runs", runs);
  exp::SettingParams params;
  if (!policy.empty()) {
    req.field("policy", policy);
    params.policy = policy;
  }
  if (horizon > 0) {
    req.field("horizon", static_cast<int>(horizon));
    params.horizon = horizon;
  }
  req.field("seed", seed);
  if (!tenant.empty()) req.field("tenant", tenant);
  // The post-override config exactly as netsel_serve builds it.
  exp::ExperimentConfig config = exp::make_setting(setting, params);
  config.base_seed = seed;
  config.world.shards = exp::world_shards(config.world.shards);
  return {id, req.str() + "\n", std::move(config), runs, ""};
}

Stream make_stream(bool burst, std::uint64_t seed) {
  SeedRng rng(seed);
  Stream s;
  s.server_args = {"--jobs", std::to_string(kServerJobs), "--lanes",
                   std::to_string(kServerLanes)};
  struct Kind {
    std::string setting, policy, tenant;
  };
  std::vector<Kind> kinds;
  if (burst) {
    // Tiny jobs below the checkpoint cadence, split evenly between two
    // tenants whose quotas never bind: the queue's accounting path runs,
    // nothing is rejected, equal priorities mean no preemption.
    for (int i = 0; i < 200; ++i) kinds.push_back({"setting1", "", i % 2 ? "alpha" : "beta"});
    for (const char* tenant : {"alpha", "beta"}) {
      s.server_args.push_back("--tenant");
      s.server_args.push_back(std::string(tenant) + "=64:8:1000000");
    }
    s.stats_offset = rng.below(10);
  } else {
    // Four copies of the eight kinds at 5 runs each rather than two at 10:
    // with 16 jobs, p50/p90 hung on where the seeded order put the few
    // heaviest jobs (README "Noise").
    for (int copy = 0; copy < 4; ++copy) {
      for (const char* setting : {"setting1", "setting2", "join", "controlled"}) {
        for (const char* policy : {"smart_exp3", "exp3"}) kinds.push_back({setting, policy, ""});
      }
    }
  }
  rng.shuffle(kinds);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto& k = kinds[i];
    s.jobs.push_back(make_job("j" + std::to_string(i), k.setting, k.policy, burst ? 1 : 5,
                              burst ? 50 : -1, rng.next() >> 33, k.tenant));
  }
  for (auto& job : s.jobs) {
    job.reference =
        serve::summary_json(job.config, exp::run_many(job.config, job.runs, kLaneBudget));
  }
  return s;
}

/// "<key>": "<value>" → value ("" when absent). Event lines are one flat
/// object per line except the nested summary/timing/jobs payloads, whose
/// keys never collide with the ones looked up here.
std::string string_field(const std::string& line, const std::string& key) {
  const std::string pattern = "\"" + key + "\": \"";
  const auto at = line.find(pattern);
  if (at == std::string::npos) return "";
  const auto begin = at + pattern.size();
  const auto end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

/// The raw "summary" object of a completed event (it has no nested objects).
std::string summary_field(const std::string& line) {
  const auto at = line.find("\"summary\": {");
  if (at == std::string::npos) return "";
  const auto begin = at + std::strlen("\"summary\": ");
  const auto end = line.find('}', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin + 1);
}

/// A netsel_serve child on a Unix socket in `dir`, stdout piped back so the
/// "serving" banner marks the end of set-up. Killed and reaped on
/// destruction if still running.
class ServerProcess {
 public:
  ServerProcess(const std::string& dir, const std::vector<std::string>& extra) : dir_(dir) {
    fs::create_directories(dir);
    std::vector<std::string> args = {PERFBENCH_NETSEL_SERVE, "--socket", socket_path(),
                                     "--state-dir", dir + "/state"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    started_ = Clock::now();
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      ::close(out_);
      out_ = -1;
      pid_ = -1;
      throw std::runtime_error(std::string("cannot spawn netsel_serve: ") + std::strerror(rc));
    }
    fcntl(out_, F_SETFL, O_NONBLOCK);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    close_output();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string socket_path() const { return dir_ + "/sock"; }
  int pid() const { return pid_; }
  int output_fd() const { return out_; }

  /// Seconds from spawn until the "serving" banner.
  double wait_banner() {
    std::string pending;
    const auto deadline = started_ + std::chrono::duration<double>(kStallSeconds);
    while (Clock::now() < deadline) {
      struct pollfd p {out_, POLLIN, 0};
      ::poll(&p, 1, 100);
      char buf[4096];
      const ssize_t n = ::read(out_, buf, sizeof(buf));
      if (n == 0) break;
      if (n > 0) pending.append(buf, static_cast<std::size_t>(n));
      if (pending.find("\"event\": \"serving\"") != std::string::npos) {
        return seconds_between(started_, Clock::now());
      }
    }
    throw std::runtime_error("netsel_serve printed no serving banner");
  }

  /// Discard whatever the server printed (its broadcast copy of events).
  void drain_output() {
    char buf[65536];
    while (out_ >= 0 && ::read(out_, buf, sizeof(buf)) > 0) {
    }
  }

  /// SIGTERM (graceful drain) and stop reading: later writes to stdout fail
  /// with EPIPE, which the server ignores.
  void terminate() {
    if (pid_ > 0) ::kill(pid_, SIGTERM);
    close_output();
  }

  /// Reap if exited (or wait when `block`); true once reaped.
  bool reap(bool block) {
    if (pid_ <= 0) return true;
    if (::waitpid(pid_, nullptr, block ? 0 : WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }

 private:
  void close_output() {
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

  std::string dir_;
  pid_t pid_ = -1;
  int out_ = -1;
  Clock::time_point started_;
};

int connect_socket(const std::string& path) {
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

void send_line(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send to netsel_serve failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Client-side timestamps of one served job.
struct JobTrack {
  const StreamJob* job = nullptr;
  Clock::time_point submitted, accepted, started, completed;
  double events = 0.0;
  double event_bytes = 0.0;
  double checkpoints = 0.0;
  bool done = false;
};

/// One server, its client connections, and the jobs they have in flight.
class Clients {
 public:
  Clients(ServerProcess& server, Report& report, int connections)
      : server_(server), report_(report) {
    for (int c = 0; c < connections; ++c) conns_.push_back({connect_socket(server.socket_path()), ""});
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;
  ~Clients() {
    for (auto& c : conns_) ::close(c.fd);
  }

  /// Called when a job of connection `conn` reaches a terminal event.
  std::function<void(int conn)> on_done;

  void submit(int conn, const StreamJob& job) {
    JobTrack& t = tracks_[job.id];
    t = JobTrack{};
    t.job = &job;
    t.submitted = Clock::now();
    send_line(conns_[static_cast<std::size_t>(conn)].fd, job.request);
  }

  void request_stats(int conn) {
    stats_sent_.push_back({conn, Clock::now()});
    send_line(conns_[static_cast<std::size_t>(conn)].fd, "{\"type\": \"stats\"}\n");
  }

  /// Pump events until `done()` holds; throws when the server stalls.
  void pump(const std::function<bool()>& done) {
    auto last_event = Clock::now();
    while (!done()) {
      std::vector<pollfd> fds;
      for (const auto& c : conns_) fds.push_back({c.fd, POLLIN, 0});
      fds.push_back({server_.output_fd(), POLLIN, 0});
      ::poll(fds.data(), fds.size(), 200);
      server_.drain_output();
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char buf[65536];
        const ssize_t n = ::recv(conns_[c].fd, buf, sizeof(buf), 0);
        if (n == 0) throw std::runtime_error("netsel_serve closed a client connection");
        if (n < 0) continue;
        last_event = Clock::now();
        std::string& in = conns_[c].in;
        in.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos; start = nl + 1) {
          handle(static_cast<int>(c), in.substr(start, nl - start));
        }
        in.erase(0, start);
      }
      if (seconds_between(last_event, Clock::now()) > kStallSeconds) {
        throw std::runtime_error("netsel_serve sent no event for " +
                                 std::to_string(kStallSeconds) + " s");
      }
    }
  }

  const JobTrack& track(const std::string& id) const { return tracks_.at(id); }
  bool stats_pending() const { return !stats_sent_.empty(); }
  std::vector<double> stats_rtt_s;

 private:
  struct Conn {
    int fd;
    std::string in;
  };

  void handle(int conn, const std::string& line) {
    const std::string event = string_field(line, "event");
    const auto now = Clock::now();
    if (event == "stats") {
      for (auto it = stats_sent_.begin(); it != stats_sent_.end(); ++it) {
        if (it->first != conn) continue;
        stats_rtt_s.push_back(seconds_between(it->second, now));
        stats_sent_.erase(it);
        break;
      }
      return;
    }
    const auto it = tracks_.find(string_field(line, "job"));
    if (it == tracks_.end()) {
      report_.check(false, "unexpected event: " + line.substr(0, 200));
      return;
    }
    JobTrack& t = it->second;
    t.events += 1;
    t.event_bytes += static_cast<double>(line.size() + 1);
    if (event == "accepted") {
      t.accepted = now;
    } else if (event == "started") {
      t.started = now;
    } else if (event == "checkpointed") {
      t.checkpoints += 1;
    } else if (event == "completed" || event == "failed" || event == "rejected") {
      t.completed = now;
      t.done = true;
      report_.check(event == "completed" && summary_field(line) == t.job->reference,
                    "job " + t.job->id + ": " +
                        (event == "completed" ? "summary differs from bare run_many"
                                              : line.substr(0, 200)));
      if (on_done) on_done(conn);
    }
  }

  ServerProcess& server_;
  Report& report_;
  std::vector<Conn> conns_;
  std::unordered_map<std::string, JobTrack> tracks_;
  std::vector<std::pair<int, Clock::time_point>> stats_sent_;
};

/// What one trial measured besides its Trial record.
struct ServeTrial {
  Trial trial;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double write_bytes_per_job = 0.0;
  double events = 0.0;
  double event_bytes = 0.0;
  double checkpoints = 0.0;
  std::vector<double> admit_s, queue_wait_s, exec_s, stats_rtt_s, overhead_ratio;
};

ServeTrial run_trial(const Stream& stream, int k, const std::vector<StreamJob>& pairs,
                     bool traced, Report& report,
                     std::vector<std::unique_ptr<ServerProcess>>& retiring) {
  ServeTrial out;
  auto server = std::make_unique<ServerProcess>("t" + std::to_string(k), stream.server_args);
  out.setup_s = server->wait_banner();
  Clients clients(*server, report, kConnections);

  // Closed loop: each connection submits its next job when its last one
  // reaches a terminal event; a stats request follows every tenth submit.
  std::size_t next = 0, done = 0;
  const auto submit_next = [&](int conn) {
    if (next >= stream.jobs.size()) return;
    const std::size_t i = next++;
    clients.submit(conn, stream.jobs[i]);
    if (stream.stats_offset >= 0 && static_cast<int>(i % 10) == stream.stats_offset) {
      clients.request_stats(conn);
    }
  };
  clients.on_done = [&](int conn) {
    ++done;
    submit_next(conn);
  };
  const auto start = Clock::now();
  for (int c = 0; c < kConnections; ++c) submit_next(c);
  clients.pump([&] { return done == stream.jobs.size() && !clients.stats_pending(); });
  const auto end = Clock::now();
  out.trial.seconds = seconds_between(start, end);

  const int trial_span = traced ? report.tracer().record("trial", -1, k, start, end) : -1;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    const StreamJob& job = stream.jobs[i];
    const JobTrack& t = clients.track(job.id);
    out.trial.job_latency_s.push_back(seconds_between(t.submitted, t.completed));
    out.trial.device_slots += job_device_slots(job.config, job.runs);
    out.admit_s.push_back(seconds_between(t.submitted, t.accepted));
    out.queue_wait_s.push_back(seconds_between(t.accepted, t.started));
    out.exec_s.push_back(seconds_between(t.started, t.completed));
    out.events += t.events;
    out.event_bytes += t.event_bytes;
    out.checkpoints += t.checkpoints;
    if (traced) {
      Tracer& tr = report.tracer();
      const long id = static_cast<long>(i);
      tr.record("serve.admit", trial_span, id, t.submitted, t.accepted);
      tr.record("serve.queue_wait", trial_span, id, t.accepted, t.started);
      tr.record("serve.exec", trial_span, id, t.started, t.completed);
    }
  }
  out.stats_rtt_s = clients.stats_rtt_s;

  // Served-vs-bare pairs, one job outstanding, the order alternating so
  // drift in machine speed falls on both sides equally.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const StreamJob& job = pairs[p];
    double served = 0.0, bare = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (p % 2 == 0)) {
        bool finished = false;
        clients.on_done = [&](int) { finished = true; };
        clients.submit(0, job);
        clients.pump([&] { return finished; });
        const JobTrack& t = clients.track(job.id);
        served = seconds_between(t.submitted, t.completed);
      } else {
        const auto b = Clock::now();
        const std::string summary =
            serve::summary_json(job.config, exp::run_many(job.config, job.runs, kLaneBudget));
        bare = seconds_between(b, Clock::now());
        report.check(summary == job.reference, "bare run_many summary of " + job.id + " changed");
      }
    }
    out.overhead_ratio.push_back(served / bare);
  }

  const double jobs_done = static_cast<double>(stream.jobs.size() + pairs.size());
  out.write_bytes_per_job = static_cast<double>(proc_wchar(server->pid())) / jobs_done;
  out.peak_rss_mb = proc_peak_rss_mb(server->pid());
  server->terminate();
  retiring.push_back(std::move(server));
  return out;
}

/// Pair jobs of trial k: two stream entries, rotating through the stream,
/// under ids of their own.
std::vector<StreamJob> pairs_for_trial(const Stream& stream, int k) {
  std::vector<StreamJob> pairs;
  for (int p = 0; p < kPairsPerTrial; ++p) {
    StreamJob job = stream.jobs[static_cast<std::size_t>(k * kPairsPerTrial + p) %
                                stream.jobs.size()];
    const std::string id = "p" + std::to_string(p);
    const auto at = job.request.find("\"id\": \"" + job.id + "\"");
    job.request.replace(at, job.id.size() + 8, "\"id\": \"" + id + "\"");
    job.id = id;
    pairs.push_back(std::move(job));
  }
  return pairs;
}

}  // namespace

void run_serve(const Options& options, Report& report, bool burst) {
  // Sockets and job state live in the (tmpfs) state dir; relative paths
  // keep socket paths short whatever the checkout's location.
  fs::current_path(options.state_dir);
  const Stream stream = make_stream(burst, options.seed);

  std::map<std::string, double> replica;
  if (options.trace) {
    // The runner's checkpoint sequence replayed in-process on the same jobs
    // and cadence: the checkpoint split the server cannot show from outside.
    LayerTimes t;
    const int span = report.tracer().open("replica", -1);
    for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
      const StreamJob& job = stream.jobs[i];
      const CheckpointReplica ck{kCheckpointEvery, 2, "replica/" + job.id};
      const std::string summary =
          traced_job(job.config, job.runs, ck, report.tracer(), span, static_cast<long>(i), t);
      report.check(summary == job.reference, "replica summary of " + job.id + " differs");
    }
    report.tracer().close(span);
    replica = layer_values(t, static_cast<double>(stream.jobs.size()));
    report.exact("replica_checkpoint_bytes", t.checkpoint_bytes);
  }

  std::vector<ServeTrial> results;
  std::vector<std::unique_ptr<ServerProcess>> retiring;
  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int k = 0; Clock::now() < deadline || k < kMinTrials; ++k) {
    const bool traced = options.trace && k % 2 == 0;
    results.push_back(run_trial(stream, k, pairs_for_trial(stream, k), traced, report, retiring));
    const ServeTrial& r = results.back();
    report.exact("events_per_trial", r.events);
    report.exact("checkpoints_per_trial", r.checkpoints);
    std::erase_if(retiring, [](const auto& s) { return s->reap(false); });
  }
  for (auto& s : retiring) s->reap(true);
  retiring.clear();

  const double jobs = static_cast<double>(stream.jobs.size());
  std::vector<Trial> trials;
  std::vector<double> setup_s, rss, wbytes, ratios, traced_s, untraced_s;
  std::vector<std::map<std::string, double>> layer_rows;
  std::vector<std::string> rss_series, wbytes_series;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const ServeTrial& r = results[k];
    setup_s.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    wbytes.push_back(r.write_bytes_per_job);
    ratios.insert(ratios.end(), r.overhead_ratio.begin(), r.overhead_ratio.end());
    rss_series.push_back(exp::json_number(r.peak_rss_mb));
    wbytes_series.push_back(exp::json_number(r.write_bytes_per_job));
    const bool traced = options.trace && k % 2 == 0;
    if (traced) {
      traced_s.push_back(r.trial.seconds);
      std::map<std::string, double> row = replica;
      row["exp.ckpt_per_job"] = r.checkpoints / jobs;
      row["serve.admit_s"] = median(r.admit_s);
      row["serve.queue_wait_s"] = median(r.queue_wait_s);
      row["serve.exec_s"] = median(r.exec_s);
      row["serve.events_per_job"] = r.events / jobs;
      row["serve.event_bytes_per_job"] = r.event_bytes / jobs;
      if (!r.stats_rtt_s.empty()) row["serve.stats_rtt_s"] = median(r.stats_rtt_s);
      row["serve.overhead_ratio"] = median(r.overhead_ratio);
      row["serve.write_bytes_per_job"] = r.write_bytes_per_job;
      layer_rows.push_back(std::move(row));
      // The replica and the server must agree on checkpoints per job.
      report.check(r.checkpoints / jobs == replica["exp.ckpt_per_job"],
                   "served and replica checkpoint counts differ");
    } else {
      if (untraced_s.size() < traced_s.size()) untraced_s.push_back(r.trial.seconds);
      trials.push_back(r.trial);
    }
  }

  report.context("loop", burst ? "closed, 4 connections, tiny jobs, stats every tenth submit"
                               : "closed, 4 connections, paper-scale jobs");
  report.context("concurrency", static_cast<double>(kConnections));
  report.context("server", "--jobs 2 --lanes 2, checkpoint every 200 slots, progress every 64");
  report.context("lanes", static_cast<double>(kServerLanes));
  report.context("jobs_per_trial", jobs);
  report.context("pairs", static_cast<double>(ratios.size()));
  report.context("stats_offset", static_cast<double>(stream.stats_offset));
  report.context_raw("server_peak_rss_mb", serve::json_array(rss_series));
  report.context_raw("write_bytes_per_job", serve::json_array(wbytes_series));
  if (options.trace) {
    report.layer_medians(layer_rows);
    report.trace_overhead(traced_s, untraced_s);
    report.trial_series(trials);
  } else {
    report.end_to_end(trials, false, setup_s, median(rss));
    report.note("serve_overhead_ratio", "ratio", median(ratios));
    report.note("write_bytes_per_job", "bytes", median(wbytes));
  }
}

}  // namespace perfbench
