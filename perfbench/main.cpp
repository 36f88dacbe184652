// ting_perfbench — one workload of the Ting benchmark in this process.
//
//   ting_perfbench --workload scan|daemon_journal|daemon_6k|serve
//                  --seed N --seconds S --trace 0|1 [--shards W]
//
// Runs in the current directory, which must be empty (every iteration and
// leg writes beneath it), and prints one JSON object of raw measurements on
// stdout. perfbench/run.py is the front end: it builds this binary, gives
// each run a fresh directory, checks the outputs and prints the metrics.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--shards") o.shards = std::stoul(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (o.workload.empty() || o.seconds <= 0 || o.shards < 1)
    throw std::invalid_argument("need --workload and positive --seconds");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold to the size of each large block freed,
  // so whether later large blocks come from mmap (returned on free) or the
  // heap (kept) depends on allocation order, and peak RSS on the serve
  // workload read ~94 or ~105 MB depending on the seed. Holding the
  // threshold at its initial 128 KiB maps every large block, so peak RSS
  // follows the live data. (A 32 MiB threshold still left some seeds 10 MB
  // below the rest.)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Result r;
  try {
    const perfbench::Options o = parse(argc, argv);
    if (!std::filesystem::is_empty(std::filesystem::current_path()))
      throw std::runtime_error("run directory is not empty");
    if (o.workload == "scan") perfbench::run_scan(o, r);
    else perfbench::run_daemon(o, r);
  } catch (const std::exception& e) {
    r.violations.push_back(std::string("error: ") + e.what());
  }
  std::printf("%s\n", r.to_json().c_str());
  return r.violations.empty() ? 0 : 1;
}
