#include "perfbench/src/common.h"

#include <algorithm>
#include <cstdio>

#include "src/core/kernel_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace perfbench {

namespace {

u64 SplitMix(u64* x) {
  u64 z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

u64 Rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

void FnvMix(u64* h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= 0x100000001B3ull;
  }
}

void FnvMix(u64* h, const std::string& s) {
  for (char c : s) {
    *h ^= static_cast<u8>(c);
    *h *= 0x100000001B3ull;
  }
  FnvMix(h, s.size());
}

}  // namespace

Rng::Rng(u64 seed) {
  u64 x = seed;
  for (u64& s : s_) s = SplitMix(&x);
}

u64 Rng::Next() {
  const u64 result = Rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::vector<double> RunClock::Stop() {
  marks_.push_back(std::chrono::steady_clock::now());
  std::vector<double> chunks;
  for (size_t i = 1; i < marks_.size(); ++i) {
    chunks.push_back(std::chrono::duration<double>(marks_[i] - marks_[i - 1]).count());
  }
  return chunks;
}

// --- Spans --------------------------------------------------------------------

void Spans::Reset(bool enabled) {
  enabled_ = enabled;
  host_.clear();
  stack_.clear();
  sim_.clear();
  t0_ = std::chrono::steady_clock::now();
}

double Spans::NowNs() const {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0_)
      .count();
}

u32 Spans::Open(const char* name) {
  const u32 index = static_cast<u32>(host_.size());
  host_.push_back(HostSpan{name, stack_.empty() ? kNone : stack_.back(), NowNs(), 0});
  stack_.push_back(index);
  return index;
}

void Spans::Close(u32 index) {
  host_[index].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a stray close by unwinding to it.
  while (!stack_.empty()) {
    const u32 top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void Spans::Sim(const char* name, u64 key, u64 start_cycle, u64 end_cycle, u32 track) {
  if (enabled_) sim_.push_back(SimSpan{name, key, start_cycle, end_cycle, track});
}

std::map<std::string, double> Spans::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const HostSpan& s : host_) out[s.name] += (s.end_ns - s.start_ns) * 1e-9;
  return out;
}

std::map<std::string, double> Spans::SelfSeconds() const {
  std::vector<double> child(host_.size(), 0.0);
  for (const HostSpan& s : host_) {
    if (s.parent != kNone) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < host_.size(); ++i) {
    out[host_[i].name] += (host_[i].end_ns - host_[i].start_ns - child[i]) * 1e-9;
  }
  return out;
}

bool Spans::WriteChrome(const std::string& path, const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"%s\"},"
               "\"traceEvents\":[\n", label.c_str());
  std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host (benchmark spans)\"}},\n");
  std::fprintf(f, "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated time (200 MHz)\"}}");
  for (size_t i = 0; i < host_.size(); ++i) {
    const HostSpan& s = host_[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                 s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
  }
  for (const SimSpan& s : sim_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 s.track, s.name, s.start / kCpuMhz, (s.end - s.start) / kCpuMhz,
                 static_cast<unsigned long long>(s.key));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- Counters -------------------------------------------------------------------

void SnapshotCounters(palladium::Kernel& kernel, const palladium::Scheduler* sched,
                      const palladium::Nic* nic, const palladium::PacketDataplane* dp,
                      const palladium::KernelExtensionManager* kext,
                      const palladium::DynamicLinker* dl, std::map<std::string, u64>* out) {
  palladium::obs::MetricsRegistry reg;
  reg.CollectMachine(kernel, sched);
  if (nic != nullptr) reg.CollectNic(*nic);
  if (dp != nullptr) reg.CollectDataplane(*dp);
  if (kext != nullptr) reg.CollectKext(*kext);
  if (dl != nullptr) reg.CollectDl(*dl);
  out->clear();
  for (const auto& [name, v] : reg.values()) {
    if (v.integral) (*out)[name] = v.u;
  }
}

std::map<std::string, u64> CounterDelta(const std::map<std::string, u64>& before,
                                        const std::map<std::string, u64>& after) {
  std::map<std::string, u64> out;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

u64 SumCpu(const std::map<std::string, u64>& counters, const std::string& suffix) {
  u64 sum = 0;
  for (u32 c = 0;; ++c) {
    auto it = counters.find("cpu" + std::to_string(c) + "." + suffix);
    if (it == counters.end()) return sum;
    sum += it->second;
  }
}

bool IsEngineCounter(const std::string& name) {
  if (name.compare(0, 3, "cpu") != 0) return false;
  for (const char* group : {".decode.", ".block.", ".trace.", ".dtlb."}) {
    if (name.find(group) != std::string::npos) return true;
  }
  return false;
}

u64 Digest(const RoundResult& r) {
  u64 h = 0xCBF29CE484222325ull;
  for (const auto& [name, v] : r.final_counters) {
    if (IsEngineCounter(name)) continue;
    FnvMix(&h, name);
    FnvMix(&h, v);
  }
  FnvMix(&h, r.attempted);
  FnvMix(&h, r.served);
  FnvMix(&h, r.failed);
  FnvMix(&h, r.wall_cycles);
  FnvMix(&h, r.busy_cycles);
  FnvMix(&h, r.sim_insns);
  for (u64 l : r.latencies) FnvMix(&h, l);
  return h;
}

void AttachTelemetry(palladium::Kernel& kernel, palladium::Nic* nic, const Telemetry& telemetry) {
  palladium::Machine& m = kernel.machine();
  if (telemetry.recorder != nullptr) {
    const u32 queues = nic != nullptr ? nic->num_queues() : 0;
    telemetry.recorder->Reset(m.num_cpus() + queues);
    for (u32 q = 0; q < queues; ++q) {
      telemetry.recorder->SetTrackName(m.num_cpus() + q, "nic.q" + std::to_string(q));
    }
    if (nic != nullptr) nic->set_recorder(telemetry.recorder, m.num_cpus());
  }
  if (telemetry.profile != nullptr) {
    telemetry.profile->Reset(m.num_cpus(), m.cpu(0).cycle_model().tlb_miss_penalty);
  }
  kernel.AttachObservability(telemetry.recorder, telemetry.profile);
}

void CollectProfile(const Telemetry& telemetry, RoundResult* r) {
  if (telemetry.profile == nullptr || !telemetry.profile->enabled()) return;
  for (u32 i = 0; i < palladium::obs::kNumCategories; ++i) {
    const auto cat = static_cast<palladium::obs::Category>(i);
    r->extra[std::string("profile.") + palladium::obs::CategoryName(cat) + "_cycles"] =
        static_cast<double>(telemetry.profile->BucketTotal(cat));
  }
}

u64 Percentile(const std::vector<u64>& sorted, double pct) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * sorted.size()));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
