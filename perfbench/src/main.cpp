// perfbench: the C++ half of the serving benchmark (run.py is the entry point).
//
//   perfbench ref    --workload W --seed N --seconds S --ref FILE
//   perfbench wire   --workload W --seed N --seconds S --ref FILE --port P
//                    --server-pid PID [--spans FILE]
//   perfbench ladder --workload W --seed N --seconds S --ref FILE
//                    --spans FILE
//
// `ref` runs the deterministic 1-worker in-process reference and writes
// the expected outcome; `wire` load-tests a running softcell-serverd and
// checks it against that file; `ladder` replays the streams in-process
// layer by layer.  Each prints one JSON object on stdout and exits 1 when
// a correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

const char* flag(int argc, char** argv, const char* name) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench ref|wire|ladder --workload W --seed N "
               "--seconds S --ref FILE [--port P --server-pid PID] "
               "[--spans FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const char* workload = flag(argc, argv, "--workload");
  const char* seed = flag(argc, argv, "--seed");
  const char* seconds = flag(argc, argv, "--seconds");
  const char* ref_path = flag(argc, argv, "--ref");
  const char* spans = flag(argc, argv, "--spans");
  if (!workload || !seed || !seconds || !ref_path) return usage();
  const perfbench::MixSpec* spec = perfbench::find_mix(workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload);
    return 2;
  }

  const perfbench::Base base;
  const perfbench::Streams streams = perfbench::make_streams(
      *spec, std::strtoull(seed, nullptr, 10), std::strtod(seconds, nullptr),
      base.num_bs(), base.clauses);

  if (cmd == "ref") {
    const perfbench::Reference ref = perfbench::run_reference(streams);
    perfbench::write_reference(ref_path, ref);
    perfbench::JsonOut j;
    j.num("attempted", static_cast<double>(streams.total()));
    j.num("path_requests", static_cast<double>(ref.path_requests));
    j.num("core_installs", static_cast<double>(ref.core_installs));
    j.num("core_rules", static_cast<double>(ref.core_rules));
    j.num("errors", static_cast<double>(ref.errors));
    j.num("hardware_threads", std::thread::hardware_concurrency());
    std::printf("%s\n", j.text().c_str());
    return ref.errors == 0 ? 0 : 1;
  }
  const perfbench::Reference ref = perfbench::read_reference(ref_path);
  if (cmd == "wire") {
    const char* port = flag(argc, argv, "--port");
    const char* pid = flag(argc, argv, "--server-pid");
    if (!port || !pid) return usage();
    return perfbench::run_wire(
               static_cast<std::uint16_t>(std::strtoul(port, nullptr, 10)),
               std::atoi(pid), streams, ref, spans != nullptr,
               spans ? spans : "")
               ? 0
               : 1;
  }
  if (cmd == "ladder") {
    if (!spans) return usage();
    return perfbench::run_ladder(streams, ref, spans) ? 0 : 1;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
