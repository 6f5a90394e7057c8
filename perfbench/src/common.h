// Shared plumbing of the Palladium benchmark: the seeded generator, the
// in-memory span recorder behind the traced run, and the per-round result
// every workload returns to main.cc.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/hw/types.h"

namespace palladium {
class Kernel;
class Nic;
class PacketDataplane;
class Scheduler;
class KernelExtensionManager;
class DynamicLinker;
namespace obs {
class CycleProfile;
class FlightRecorder;
}  // namespace obs
}  // namespace palladium

namespace perfbench {

using palladium::i64;
using palladium::u16;
using palladium::u32;
using palladium::u64;
using palladium::u8;

// The paper's Pentium 200: simulated cycles -> microseconds.
inline constexpr double kCpuMhz = 200.0;

// Simulated physical memory per machine. Every workload fits in a few MiB;
// the 64 MiB default would make zeroing host memory most of the set-up
// time, and that part swings most with other load on the host.
inline constexpr u32 kMachineMemoryBytes = 16u << 20;

// splitmix64-seeded xoshiro256**: every input of every workload is drawn
// from one of these, so a seed fixes the inputs bit for bit.
class Rng {
 public:
  explicit Rng(u64 seed);
  u64 Next();
  // Uniform in [0, n).
  u64 Below(u64 n) { return n == 0 ? 0 : Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential with the given mean (open-loop inter-arrival gaps).
  double Exponential(double mean) { return -mean * std::log(1.0 - Unit()); }

 private:
  u64 s_[4];
};

// Host-time spans recorded by the benchmark around its own calls into each
// layer, plus per-item spans in simulated time. Disabled spans cost one
// branch; enabled ones stay in memory until WriteChrome.
class Spans {
 public:
  static constexpr u32 kNone = ~0u;

  void Reset(bool enabled);
  bool enabled() const { return enabled_; }

  // Opens a span as a child of the innermost open one; returns its index.
  u32 Open(const char* name);
  void Close(u32 index);
  // A finished item in simulated time: `key` is the request or frame id.
  void Sim(const char* name, u64 key, u64 start_cycle, u64 end_cycle, u32 track);

  // Summed duration and self time (duration minus the child spans) per name.
  std::map<std::string, double> TotalSeconds() const;
  std::map<std::string, double> SelfSeconds() const;
  // Chrome trace-event JSON: host spans on pid 1 (µs of host time), the
  // simulated spans on pid 2 (µs of simulated time at 200 MHz).
  bool WriteChrome(const std::string& path, const std::string& label) const;

 private:
  struct HostSpan {
    const char* name;
    u32 parent;
    double start_ns;
    double end_ns;
  };
  struct SimSpan {
    const char* name;
    u64 key;
    u64 start;
    u64 end;
    u32 track;
  };
  double NowNs() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point t0_;
  std::vector<HostSpan> host_;
  std::vector<u32> stack_;
  std::vector<SimSpan> sim_;
};

// RAII span; a no-op when the recorder is disabled.
class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_(spans), index_(spans.enabled() ? spans.Open(name) : Spans::kNone) {}
  ~Scope() {
    if (index_ != Spans::kNone) spans_.Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  u32 index_;
};

// Host stopwatch for the untraced phase timings (setup, run).
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// Host clock of the run phase, split into chunks of a fixed number of served
// items. Items complete at the same simulated points in every round of a
// workload, so chunk i is the same simulated work in every round and rounds
// can be compared chunk by chunk.
class RunClock {
 public:
  explicit RunClock(u64 items_per_chunk) : every_(items_per_chunk) {}
  void Start() {
    items_ = 0;
    marks_.assign(1, std::chrono::steady_clock::now());
  }
  // One served item; every `items_per_chunk`-th one closes a chunk.
  void Item() {
    if (++items_ % every_ == 0) marks_.push_back(std::chrono::steady_clock::now());
  }
  // Ends the run phase: the host seconds of each chunk, the last one running
  // from the last full chunk to now.
  std::vector<double> Stop();

 private:
  u64 every_;
  u64 items_ = 0;
  std::vector<std::chrono::steady_clock::time_point> marks_;
};

// Telemetry attached in a traced round. Both are pure observers of the
// simulated clock, so the traced round must retire exactly the same cycles.
struct Telemetry {
  palladium::obs::CycleProfile* profile = nullptr;
  palladium::obs::FlightRecorder* recorder = nullptr;
};

// What one round of a workload (set-up + run phase + checks) reports.
struct RoundResult {
  bool correct = true;
  std::vector<std::string> errors;

  double setup_s = 0;  // end of input generation -> first simulated cycle
  double run_s = 0;    // host time of the run phase
  std::vector<double> run_chunks_s;  // the run phase in RunClock chunks

  u64 attempted = 0;  // items offered
  u64 served = 0;     // items completed and checked
  u64 failed = 0;     // dropped or unserved items

  u32 num_cpus = 1;
  u64 wall_cycles = 0;  // simulated run-phase cycles (max over vCPUs)
  u64 busy_cycles = 0;  // obs::BusyCycles over the run phase
  u64 sim_insns = 0;    // instructions retired on all vCPUs in the run phase
  std::vector<u64> latencies;  // per served item, simulated cycles

  // Run-phase deltas of every integral registry counter, and the end-of-run
  // values that enter the digest.
  std::map<std::string, u64> delta;
  std::map<std::string, u64> final_counters;
  // Layer figures a workload measures itself (cycle marks, upgrade times...).
  std::map<std::string, double> extra;
  std::vector<double> upgrade_ms;

  void SetRun(std::vector<double> chunks) {
    run_chunks_s = std::move(chunks);
    run_s = 0;
    for (double c : run_chunks_s) run_s += c;
  }
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Snapshots every integral counter of a machine's layers into `out`.
void SnapshotCounters(palladium::Kernel& kernel, const palladium::Scheduler* sched,
                      const palladium::Nic* nic, const palladium::PacketDataplane* dp,
                      const palladium::KernelExtensionManager* kext,
                      const palladium::DynamicLinker* dl, std::map<std::string, u64>* out);
// after - before, per name.
std::map<std::string, u64> CounterDelta(const std::map<std::string, u64>& before,
                                        const std::map<std::string, u64>& after);
// Sum of a per-vCPU counter ("cpu<N>.<suffix>") over every vCPU.
u64 SumCpu(const std::map<std::string, u64>& counters, const std::string& suffix);
// Counters describing the execution engine's own machinery (decode cache,
// block/trace tiers, D-TLB). They are deterministic for one build but a
// simulator-speed change may move them, so the digest leaves them out.
bool IsEngineCounter(const std::string& name);
// FNV-1a digest of the architectural counters, latencies and outputs.
u64 Digest(const RoundResult& r);

// Arms the telemetry of a traced round on a booted machine: one recorder
// track per vCPU plus one per NIC queue, and a profiler for every vCPU.
void AttachTelemetry(palladium::Kernel& kernel, palladium::Nic* nic, const Telemetry& telemetry);
// Copies the profiler's per-category cycle totals into r->extra as
// "profile.<category>_cycles".
void CollectProfile(const Telemetry& telemetry, RoundResult* r);

// Nearest-rank percentile of sorted samples (0 when empty).
u64 Percentile(const std::vector<u64>& sorted, double pct);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
