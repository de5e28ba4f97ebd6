// perfbench — the repository benchmark binary (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//
// Prints a human-readable report, one "context:" line, and as the last line
// the result JSON {"correct", "attempted", "failed", "metrics"}. Exits 0 only
// when every correctness check passed.
#include <sched.h>
#include <sys/mount.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Options;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload paper_batch|xl_steady|serve_ckpt|serve_burst"
               " --seed N --seconds S --trace 0|1 --root DIR\n";
  std::exit(2);
}

std::string fs_type_name(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/ext3/ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

/// Server state dirs, sockets and checkpoint replicas live in
/// <root>/.bench_state. Where the process may create a private mount
/// namespace, that directory becomes a tmpfs visible only to this process
/// and its children, gone when they exit: fsync on a shared disk would
/// measure the disk, not the program. Otherwise the directory stays on disk
/// and the context records its filesystem. Must run before any thread starts
/// (unshare refuses a multi-threaded process).
void prepare_state_dir(Options& o) {
  o.state_dir = o.root + "/.bench_state";
  fs::create_directories(o.state_dir);
  const bool tmpfs = unshare(CLONE_NEWNS) == 0 &&
                     mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0 &&
                     mount("perfbench", o.state_dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                           "size=1g,mode=0700") == 0;
  if (!tmpfs) {
    // On disk: start from an empty directory every run.
    for (const auto& entry : fs::directory_iterator(o.state_dir)) fs::remove_all(entry.path());
  }
  o.state_fs = fs_type_name(o.state_dir);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--root") {
        o.root = fs::absolute(value).string();
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || o.root.empty()) {
    usage("--workload, --seed and --root are required");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  o.nproc = static_cast<int>(std::thread::hardware_concurrency());

  prepare_state_dir(o);
  perfbench::Report report(o);
  try {
    if (o.workload == "paper_batch") {
      perfbench::run_paper_batch(o, report);
    } else if (o.workload == "xl_steady") {
      perfbench::run_xl_steady(o, report);
    } else if (o.workload == "serve_ckpt" || o.workload == "serve_burst") {
      perfbench::run_serve(o, report, o.workload == "serve_burst");
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
  }
  return report.finish();
}
