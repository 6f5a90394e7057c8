// filter-1cpu and upgrade-churn: seeded IMIX traffic over thousands of
// 5-tuples, classified by a compiled filter running as a protected SPL 1
// kernel extension, served by pkt_recvm/pkt_sendm echo workers. Every frame
// carries its id, so the TX hook can check each verdict against the host
// reference, count each served frame once, and time it from its scheduled
// injection.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/obs/profile.h"

namespace perfbench {
namespace {

using namespace palladium;

// Two spellings of one predicate (clauses reordered, the range written from
// the other side); upgrade-churn alternates them so every verdict stays
// checkable against one host reference while each upgrade loads new code.
constexpr const char* kFilterA =
    "ip.proto == 6 && tcp.dport == 8080 && ip.src >= 10.20.0.0 && ip.src <= 10.20.255.255";
constexpr const char* kFilterB =
    "ip.src <= 10.20.255.255 && ip.src >= 10.20.0.0 && tcp.dport == 8080 && ip.proto == 6";

constexpr u32 kFrameMagic = 0x6E426450;  // "PdBn", first payload word of every frame
constexpr u32 kSysBenchUpgrade = 235;    // worker -> benchmark: upgrade the flow now
constexpr u32 kChunkFrames = 200;        // served frames per RunClock chunk

struct PacketConfig {
  u32 num_cpus;
  u32 workers;
  u32 frames;        // offered per round
  double mean_gap;   // mean simulated cycles between injections (exponential)
  u32 upgrade_every; // frames a worker serves between upgrade requests; 0 = never
};

// The echo worker of src/net (pkt_recvm/pkt_sendm), plus a countdown that
// asks the benchmark for a live upgrade every `every` served frames.
std::string UpgradingWorkerSource(u32 every) {
  const std::string n = std::to_string(every);
  return R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $8192, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %esi          ; batch buffer
  mov $0, %edi            ; served counter
  mov $)" + n + R"(, %ebp  ; frames until the next upgrade request
loop:
  mov $223, %eax          ; SYS_PKT_RECVM
  mov %esi, %ebx
  mov $8192, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done
  mov %eax, %ecx
  mov $224, %eax          ; SYS_PKT_SENDM
  mov %esi, %ebx
  int $0x80
  cmp $0, %eax
  jl done
  add %eax, %edi
  sub %eax, %ebp
  jg loop
  mov $)" + std::to_string(kSysBenchUpgrade) + R"(, %eax
  int $0x80
  mov $)" + n + R"(, %ebp
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";
}

class PacketWorkload : public Workload {
 public:
  PacketWorkload(const PacketConfig& cfg, u64 seed) : cfg_(cfg) { Generate(seed); }

  RoundResult Round(Spans& spans, const Telemetry& telemetry) override;

 private:
  void Generate(u64 seed);

  PacketConfig cfg_;
  std::vector<std::vector<u8>> frames_;
  std::vector<u64> arrival_;
  std::vector<u8> verdict_;  // host reference: EvalFilterHost
  u64 matching_ = 0;
};

void PacketWorkload::Generate(u64 seed) {
  Rng rng(seed);
  std::string err;
  auto expr = ParseFilter(kFilterA, &err);
  // Thousands of 5-tuples: matching flows come from 10.20/16 to TCP 8080;
  // the rest miss on exactly one clause (source, port or protocol).
  constexpr u32 kFlows = 4096;
  std::vector<PacketSpec> match_flows, other_flows;
  for (u32 f = 0; f < kFlows; ++f) {
    PacketSpec s;
    s.proto = kIpProtoTcp;
    s.src_ip = 0x0A140000u | static_cast<u32>(rng.Below(1u << 16));
    s.dst_ip = 0x0A000000u | static_cast<u32>(rng.Below(1u << 16));
    s.src_port = static_cast<u16>(1024 + rng.Below(64000));
    s.dst_port = 8080;
    if (f < kFlows * 6 / 10) {
      match_flows.push_back(s);
      continue;
    }
    switch (rng.Below(3)) {
      case 0: s.src_ip = 0x0A150000u | static_cast<u32>(rng.Below(1u << 16)); break;
      case 1: s.dst_port = static_cast<u16>(8081 + rng.Below(1000)); break;
      default: s.proto = kIpProtoUdp; break;
    }
    other_flows.push_back(s);
  }
  const u32 n = cfg_.frames;
  frames_.reserve(n);
  arrival_.reserve(n);
  verdict_.reserve(n);
  double at = 5'000;
  for (u32 i = 0; i < n; ++i) {
    const bool want_match = rng.Unit() < 0.6;
    PacketSpec spec = want_match ? match_flows[rng.Below(match_flows.size())]
                                 : other_flows[rng.Below(other_flows.size())];
    // IMIX: 64 / 576 / 1500-byte frames at 7:4:1.
    const u64 r = rng.Below(12);
    const u32 frame_len = r < 7 ? 64 : (r < 11 ? 576 : 1500);
    const u32 header = PayloadOffset(spec.proto);
    std::vector<u8> payload(frame_len - header, 0);
    std::memcpy(payload.data(), &kFrameMagic, 4);
    std::memcpy(payload.data() + 4, &i, 4);
    frames_.push_back(
        BuildPacketWithPayload(spec, payload.data(), static_cast<u32>(payload.size())));
    arrival_.push_back(static_cast<u64>(at));
    at += std::max(1.0, rng.Exponential(cfg_.mean_gap));
    const bool match = EvalFilterHost(*expr, frames_.back().data(),
                                      static_cast<u32>(frames_.back().size()));
    verdict_.push_back(match ? 1 : 0);
    matching_ += match ? 1 : 0;
  }
}

RoundResult PacketWorkload::Round(Spans& spans, const Telemetry& telemetry) {
  RoundResult r;
  const Stopwatch setup_clock;
  Scope round_span(spans, "round");
  auto setup_span = std::make_unique<Scope>(spans, "setup");

  std::unique_ptr<Machine> machine;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<KernelExtensionManager> kext;
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<DynamicLinker> dl;
  std::unique_ptr<Nic> nic;
  std::unique_ptr<PacketDataplane> dp;
  {
    Scope s(spans, "machine.boot");
    MachineConfig mcfg;
    mcfg.num_cpus = cfg_.num_cpus;
    mcfg.physical_memory_bytes = kMachineMemoryBytes;
    machine = std::make_unique<Machine>(mcfg);
    Kernel::Config kcfg;
    kcfg.timer_period_cycles = 25'000;
    kernel = std::make_unique<Kernel>(*machine, kcfg);
    kext = std::make_unique<KernelExtensionManager>(*kernel);
    Scheduler::Config scfg;
    scfg.slice_cycles = 80'000;
    sched = std::make_unique<Scheduler>(*kernel, scfg);
    dl = std::make_unique<DynamicLinker>(*kernel);
    nic = std::make_unique<Nic>(machine->pm(), kernel->pic(), kIrqNic);
    PacketDataplane::Config dcfg;
    dcfg.queues = cfg_.num_cpus;
    dcfg.steering = FlowSteering::kFlowHash;
    dcfg.napi = true;
    dcfg.filter_batch = 32;
    dcfg.rx_ring_entries = 256;
    dcfg.rx_irq_moderation = 8'000;
    dp = std::make_unique<PacketDataplane>(*kernel, *kext, *nic, dcfg);
  }

  const bool churn = cfg_.upgrade_every > 0;
  std::optional<LinkedImage> worker;
  std::optional<ObjectFile> helper;
  {
    Scope s(spans, "asm.assemble");
    std::string diag;
    worker = AssembleAndLink(churn ? UpgradingWorkerSource(cfg_.upgrade_every)
                                   : std::string(kPktEchoMWorkerSource),
                             kUserTextBase, {}, &diag);
    if (!worker) r.Fail("assemble worker: " + diag);
    if (churn) {
      AssembleError aerr;
      helper = Assemble(".global helper\nhelper:\n  ret\n", &aerr);
      if (!helper) r.Fail("assemble helper: " + aerr.ToString());
    }
  }
  if (!r.correct) return r;

  std::vector<Pid> pids;
  {
    Scope s(spans, "kernel.load_image");
    std::string diag;
    for (u32 w = 0; w < cfg_.workers; ++w) {
      const Pid pid = kernel->CreateProcess();
      if (pid == 0 || !kernel->LoadUserImage(pid, *worker, "main", &diag)) {
        r.Fail("load worker: " + diag);
        return r;
      }
      pids.push_back(pid);
      sched->AddProcess(pid);
    }
  }

  {
    // The benchmark's own compile of each filter spelling: both must parse,
    // and the two must compile to different code, or an upgrade would swap
    // in an identical image.
    Scope s(spans, "filter.compile");
    std::string err;
    auto a = ParseFilter(kFilterA, &err);
    auto b = ParseFilter(kFilterB, &err);
    if (!a || !b) {
      r.Fail("parse filter: " + err);
      return r;
    }
    if (churn && CompileFilterToAsm(*a) == CompileFilterToAsm(*b)) {
      r.Fail("the two filter spellings compile to identical code");
    }
  }

  {
    Scope s(spans, "core.load");
    std::string diag;
    if (!dp->AddFlow("bench", kFilterA, pids, &diag)) {
      r.Fail("add flow: " + diag);
      return r;
    }
    if (churn) {
      dl->RegisterObject("libhelper_a", *helper);
      dl->RegisterObject("libhelper_b", *helper);
      for (Pid pid : pids) {
        if (!dl->LoadLibrary(pid, "libhelper_a", false, &diag)) {
          r.Fail("dl load: " + diag);
          return r;
        }
      }
    }
  }

  // Live upgrades, requested by the workers through a benchmark syscall:
  // each one compiles and loads the other spelling as a new kext, switches
  // the flow and unloads the old image, then swaps the calling worker's
  // helper library through src/dl.
  u32 version = 0;
  std::map<Pid, bool> on_b;
  u64 upgrades_requested = 0;
  kernel->RegisterSyscall(kSysBenchUpgrade, [&](Kernel& k, u32, u32, u32) {
    ++upgrades_requested;
    const Stopwatch t;
    {
      Scope s(spans, "net.upgrade");
      std::string diag;
      version ^= 1;
      if (!dp->UpgradeFlow("bench", version != 0 ? kFilterB : kFilterA, &diag)) {
        r.Fail("upgrade: " + diag);
      }
      Scope d(spans, "dl.swap");
      const Pid pid = k.current()->pid;
      bool& b = on_b[pid];
      if (!dl->UnloadLibrary(pid, b ? "libhelper_b" : "libhelper_a", &diag) ||
          !dl->LoadLibrary(pid, b ? "libhelper_a" : "libhelper_b", false, &diag)) {
        r.Fail("dl swap: " + diag);
      }
      b = !b;
    }
    r.upgrade_ms.push_back(t.Seconds() * 1e3);
    k.ReturnFromGate(0);
  });

  // The TX hook sees every served frame: check it, count it once, time it.
  std::vector<u8> seen(frames_.size(), 0);
  r.latencies.reserve(matching_);
  RunClock run_clock(kChunkFrames);
  dp->set_tx_hook([&](Kernel& k, Process&, const std::vector<u8>& frame) {
    const u32 off = frame.size() > kOffIpProto ? PayloadOffset(frame[kOffIpProto]) : 0;
    u32 magic = 0, id = ~0u;
    if (off != 0 && frame.size() >= off + 8) {
      std::memcpy(&magic, frame.data() + off, 4);
      std::memcpy(&id, frame.data() + off + 4, 4);
    }
    if (magic != kFrameMagic || id >= frames_.size()) {
      r.Fail("served a frame with no valid id");
      return frame;
    }
    if (frame != frames_[id]) r.Fail("frame " + std::to_string(id) + " corrupted in flight");
    if (verdict_[id] == 0) r.Fail("frame " + std::to_string(id) + " served against the verdict");
    if (seen[id]++ != 0) r.Fail("frame " + std::to_string(id) + " served twice");
    const u64 now = k.machine().cpu().cycles();
    r.latencies.push_back(now - arrival_[id]);
    spans.Sim("frame", id, arrival_[id], now, k.machine().current_cpu_index());
    run_clock.Item();
    return frame;
  });
  bool shutdown_issued = false;
  sched->set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp->Shutdown();
    return true;
  });

  {
    Scope s(spans, "nic.inject");
    for (size_t i = 0; i < frames_.size(); ++i) {
      nic->Inject(frames_[i].data(), static_cast<u32>(frames_[i].size()), arrival_[i]);
    }
  }
  setup_span.reset();
  r.setup_s = setup_clock.Seconds();

  if (telemetry.profile != nullptr || telemetry.recorder != nullptr) {
    AttachTelemetry(*kernel, nic.get(), telemetry);
  }
  std::map<std::string, u64> before;
  SnapshotCounters(*kernel, sched.get(), nic.get(), dp.get(), kext.get(), dl.get(), &before);

  Scheduler::RunAllResult run;
  {
    Scope s(spans, "run");
    run_clock.Start();
    {
      Scope ss(spans, "kernel.sched.run");
      run = sched->RunAll(40'000'000'000ull);
    }
    r.SetRun(run_clock.Stop());
  }
  Scope check_span(spans, "check");
  nic->FlushTx();
  SnapshotCounters(*kernel, sched.get(), nic.get(), dp.get(), kext.get(), dl.get(),
                   &r.final_counters);
  r.delta = CounterDelta(before, r.final_counters);
  CollectProfile(telemetry, &r);

  r.num_cpus = machine->num_cpus();
  r.wall_cycles = run.cycles;  // RunAll reports the run phase alone
  r.busy_cycles =
      obs::BusyCycles(r.num_cpus, r.wall_cycles, r.delta["sched.idle_cycles"]);
  r.sim_insns = SumCpu(r.delta, "instructions_retired");
  r.attempted = matching_;
  for (u8 s : seen) r.served += s != 0 ? 1 : 0;
  r.failed = r.attempted - std::min(r.attempted, r.served);

  // Verdicts the TX hook cannot see: with no frame dropped before the
  // filter, the dataplane's match counts must equal the host reference.
  const PacketDataplane::Stats& st = dp->stats();
  const u64 others = frames_.size() - matching_;
  const u64 pre_filter_drops = nic->stats().rx_dropped + st.filter_calls_avoided;
  if (pre_filter_drops == 0 && (st.matched != matching_ || st.dropped_no_match != others)) {
    r.Fail("filter verdicts disagree with EvalFilterHost: matched " +
           std::to_string(st.matched) + "/" + std::to_string(matching_) + ", rejected " +
           std::to_string(st.dropped_no_match) + "/" + std::to_string(others));
  }
  if (st.matched > matching_ || st.dropped_no_match > others) {
    r.Fail("filter verdicts exceed the host reference counts");
  }
  if (st.tx_frames != r.served) r.Fail("TX frame count differs from the frames checked");
  if (run.exited != cfg_.workers) r.Fail("not every worker exited");
  u64 worker_total = 0;
  for (Pid pid : pids) {
    const Process* p = kernel->process(pid);
    if (p != nullptr && p->state == ProcessState::kExited) worker_total += p->exit_code;
  }
  if (worker_total != r.served) r.Fail("workers' served counts differ from the TX count");
  if (churn) {
    if (r.failed != 0) {
      r.Fail(std::to_string(r.failed) + " frames dropped across live upgrades");
    }
    if (st.flow_upgrades != upgrades_requested || upgrades_requested == 0) {
      r.Fail("flow upgrades " + std::to_string(st.flow_upgrades) + " of " +
             std::to_string(upgrades_requested) + " requested");
    }
  }
  return r;
}

}  // namespace

// Saturated, one vCPU serves a matching frame of this mix every ~1080
// cycles, i.e. an offered frame every ~650 (60% match); a mean gap of 760
// offers ~85% of that capacity. upgrade-churn keeps the same traffic on two
// vCPUs, which leaves headroom for the upgrades.
std::unique_ptr<Workload> MakeFilterWorkload(u64 seed) {
  return std::make_unique<PacketWorkload>(PacketConfig{1, 4, 40'000, 760.0, 0}, seed);
}

std::unique_ptr<Workload> MakeUpgradeWorkload(u64 seed) {
  return std::make_unique<PacketWorkload>(PacketConfig{2, 4, 40'000, 760.0, 4'096}, seed);
}

}  // namespace perfbench
