// Threaded-vs-interleaver differential for the host-parallel SMP mode
// (src/hw/smp.h, ThreadedSmp).
//
// The workloads here are *data-race-free by construction*: every vCPU's
// loads, stores and stack traffic are confined to regions no sibling
// touches (the builder's per-iteration ESP reset bounds stack drift to one
// iteration's excursion), and all cross-CPU effects ride the sanctioned
// channels — scripted events and staged remote work, both applied in the
// quiesced barrier window. For such workloads ThreadedSmp promises
// byte-identical final state to the deterministic min-cycle interleaver,
// AND equal per-CPU cycle counters at every epoch barrier. Both promises
// are checked:
//
//  - the threaded run goes first, its barrier hook sampling per-vCPU
//    (cycles, instructions) at every barrier;
//  - the interleaver then replays the same machine *segmented at exactly
//    those barrier cycles* (Run(B_k) stops every live vCPU at its first
//    retire boundary >= B_k — the same state the threaded run quiesced in),
//    sampling at each segment boundary;
//  - final registers, fault streams, cycle/instruction counters, arch-event
//    streams, the full memory image and every per-epoch sample must match.
//
// The hostile page-table modes (read-only / supervisor pages inside each
// window, scripted cross-CPU shootdowns toggling a window page's W bit)
// keep the fault paths and TLB invalidation machinery under test while
// threaded. This binary is also the ThreadSanitizer workload: it drives
// real concurrent epochs through the write-lane fan-out, the atomic
// generation/change counters and the per-track observability sinks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "tests/fuzz_util.h"

namespace palladium {
namespace {

constexpr u32 kMem = 8u << 20;
constexpr u32 kCodeBase = 0x10000;
constexpr u32 kCodeStride = 0x8000;  // per-vCPU program base spacing
// Disjoint per-vCPU data windows, 4 pages each. TLB-set geometry (the same
// rule as the interleaver fuzz): windows sit at vpns 512..527 (sets 0..15),
// never sharing a direct-mapped set with the code pages at sets 16/24/32/40.
constexpr u32 kDataBase = 0x200000;
constexpr u32 kDataSpan = 4 * 4096;
// Disjoint per-vCPU stacks. The builder resets ESP every loop iteration, so
// the runtime excursion around each top is bounded by one iteration's
// unbalanced pushes/pops (a few hundred bytes) — 0x4000 of spacing leaves
// >10x margin. Tops at vpns 116..128: sets 51..63/0..1, no code-set overlap.
constexpr u32 kStackTop = 0x80000;
constexpr u32 kStackStride = 0x4000;
constexpr u64 kCycleLimit = 80'000'000;
// Small epochs => many barriers per run, so the per-epoch sample comparison
// actually constrains the schedule (a full run is a few hundred thousand
// cycles).
constexpr u64 kEpochCycles = 1024;

// The builder's anchored addressing (case 12) reaches [disp-8, disp+7] with
// up to 4-byte accesses, where disp < base+span-8 — so vCPU c's accessed
// bytes lie in [base-8, base+span+2). Passing (base+8, span-16) confines
// every access strictly inside the c-th kDataSpan region, which is what the
// data-race-freedom precondition needs.
u32 WindowBase(u32 c) { return kDataBase + c * kDataSpan; }

std::vector<u8> BuildProgram(u64 seed, u32 c, const FuzzShape& shape = FuzzShape{}) {
  constexpr u32 kIterations = 150;
  constexpr u32 kBodyLen = 160;
  static_assert(kIterations >= kFuzzMinIterations, "demotion must happen mid-run");
  const u64 pseed = seed * 131 + c * 29 + 7;
  if (shape.data_in_code_page) {
    // The window is the tail of the vCPU's own code page: data-race-free,
    // and every store retires the page the vCPU's own thread rebuilds.
    return EncodeDataInCodePageProgram(pseed, kIterations, kBodyLen, kCodeBase + c * kCodeStride,
                                       kCodeBase + c * kCodeStride,
                                       /*esp_reset=*/kStackTop - c * kStackStride, shape);
  }
  return EncodeLoopedFuzzProgram(pseed, kIterations, kBodyLen,
                                 kCodeBase + c * kCodeStride,
                                 WindowBase(c) + 8, kDataSpan - 16,
                                 /*esp_reset=*/kStackTop - c * kStackStride, shape);
}

struct CpuResult {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  std::vector<u64> fault_cycles;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  std::vector<obs::Event> arch_events;
  u64 trace_demotions = 0;
};

// Per-barrier sample: every vCPU's (cycles, instructions) at the quiesce
// point. Barrier cycles are strictly increasing within a run.
struct EpochSample {
  u64 barrier = 0;
  std::vector<u64> cycles;
  std::vector<u64> instructions;

  bool operator==(const EpochSample& o) const {
    return barrier == o.barrier && cycles == o.cycles && instructions == o.instructions;
  }
};

struct DiffRun {
  std::vector<CpuResult> cpus;
  std::vector<EpochSample> samples;
  std::vector<u8> memory;
};

// One machine instance shared by both harness drivers below.
struct Rig {
  BareMachine bm;
  obs::FlightRecorder recorder;
  obs::CycleProfile profiler;
  bool write_protected = false;

  explicit Rig(u32 n) : bm(MakeConfig(n)) {}

  static BareMachineConfig MakeConfig(u32 n) {
    BareMachineConfig cfg;
    cfg.physical_memory_bytes = kMem;
    cfg.num_cpus = n;
    return cfg;
  }
};

void SetUpRig(Rig& rig, const std::vector<std::vector<u8>>& programs, bool hostile, u8 cpl) {
  Machine& m = rig.bm.machine();
  const u32 n = m.num_cpus();
  rig.recorder.Reset(n, 1u << 16);
  rig.profiler.Reset(n, m.cpu(0).cycle_model().tlb_miss_penalty);
  for (u32 c = 0; c < n; ++c) {
    m.cpu(c).set_block_engine_enabled(true);
    m.cpu(c).set_trace_engine_enabled(true);
    m.cpu(c).set_decode_cache_enabled(true);
    m.cpu(c).set_dtlb_enabled(true);
    m.cpu(c).set_recorder(&rig.recorder, c);
    m.cpu(c).set_profiler(&rig.profiler, c);
    ASSERT_TRUE(rig.bm.pm().WriteBlock(kCodeBase + c * kCodeStride, programs[c].data(),
                                       static_cast<u32>(programs[c].size())));
  }
  if (hostile) {
    // Each window gets a read-only page and a supervisor-only page, so every
    // vCPU keeps taking (deterministic, private) faults while threaded.
    PageTableEditor ed(rig.bm.pm(), m.cpu(0).cr3(), [&m, n](u32 linear) {
      for (u32 c = 0; c < n; ++c) m.cpu(c).tlb().FlushPage(linear);
    });
    for (u32 c = 0; c < n; ++c) {
      ASSERT_TRUE(ed.UpdateFlags(WindowBase(c) + kPageSize, 0, kPteWrite));
      ASSERT_TRUE(ed.UpdateFlags(WindowBase(c) + 2 * kPageSize, 0, kPteUser));
    }
  }
  for (u32 c = 0; c < n; ++c) {
    rig.bm.StartCpu(c, kCodeBase + c * kCodeStride, cpl, kStackTop - c * kStackStride);
  }
}

// Scripted cross-CPU shootdowns: toggle the W bit of page 3 of a rotating
// vCPU's window, flushing the page on every core — applied in the quiesced
// serial window (threaded) / at the frontier (interleaver), the sanctioned
// cross-CPU channel either way.
template <typename Harness>
void AddShootdownEvents(Rig& rig, Harness& h, const std::vector<u64>& cycles) {
  Machine& m = rig.bm.machine();
  const u32 n = m.num_cpus();
  u32 i = 0;
  for (u64 cy : cycles) {
    const u32 page = WindowBase(i++ % n) + 3 * kPageSize;
    h.AddEvent(cy, [&rig, &m, n, page] {
      PageTableEditor ed(rig.bm.pm(), m.cpu(0).cr3(), [&m, n](u32 linear) {
        for (u32 c = 0; c < n; ++c) m.cpu(c).tlb().FlushPage(linear);
      });
      if (rig.write_protected) {
        ed.UpdateFlags(page, kPteWrite, 0);
      } else {
        ed.UpdateFlags(page, 0, kPteWrite);
      }
      rig.write_protected = !rig.write_protected;
    });
  }
}

// The hlt slot of vCPU c's program: at cpl 3 hlt is privileged, so the run
// ends in a #GP there instead of kHalted. The handler must PARK on that
// fault, not skip it — skipping would march EIP off the program's end,
// through the zero bytes beyond, and eventually into the next vCPU's code
// region, where two vCPUs executing the same body share a window and the
// workload stops being data-race-free.
u32 HltEip(const std::vector<std::vector<u8>>& programs, u32 c) {
  return kCodeBase + c * kCodeStride + static_cast<u32>(programs[c].size()) - kInsnSize;
}

// Stop handler factory. In the threaded run this executes on the stopping
// vCPU's own thread: it only touches that vCPU's slot and that vCPU's state,
// per the ThreadedSmp contract.
SmpInterleaver::StopHandler MakeStopHandler(Machine& m, std::vector<CpuResult>& cpus,
                                            const std::vector<std::vector<u8>>& programs) {
  std::vector<u32> hlt_eips;
  for (u32 c = 0; c < programs.size(); ++c) hlt_eips.push_back(HltEip(programs, c));
  return [&m, &cpus, hlt_eips](u32 c, const StopInfo& stop) {
    if (stop.reason == StopReason::kFault && m.cpu(c).eip() == hlt_eips[c]) {
      cpus[c].final_reason = stop.reason;  // privileged hlt at cpl 3: done
      return false;
    }
    if (stop.reason == StopReason::kFault && cpus[c].faults.size() < 4096) {
      cpus[c].faults.push_back(FaultRecord{m.cpu(c).eip(), stop.fault.vector,
                                           stop.fault.error_code,
                                           stop.fault.linear_address});
      cpus[c].fault_cycles.push_back(m.cpu(c).cycles());
      m.cpu(c).set_eip(m.cpu(c).eip() + kInsnSize);
      return true;  // keep running past the faulting instruction
    }
    cpus[c].final_reason = stop.reason;
    return false;  // halted (or fault overflow): park this vCPU
  };
}

void Collect(Rig& rig, DiffRun& out) {
  Machine& m = rig.bm.machine();
  for (u32 c = 0; c < m.num_cpus(); ++c) {
    out.cpus[c].ctx = m.cpu(c).SaveContext();
    out.cpus[c].cycles = m.cpu(c).cycles();
    out.cpus[c].instructions = m.cpu(c).instructions_retired();
    out.cpus[c].tlb_hits = m.cpu(c).tlb().stats().hits;
    out.cpus[c].tlb_misses = m.cpu(c).tlb().stats().misses;
    out.cpus[c].arch_events = rig.recorder.ArchEvents(c);
    out.cpus[c].trace_demotions = m.cpu(c).trace_stats().demotions;
  }
  EXPECT_EQ(rig.recorder.TotalDropped(), 0u) << "ring sized too small to compare streams";
  out.memory.assign(rig.bm.pm().HostData(), rig.bm.pm().HostData() + rig.bm.pm().size());
}

DiffRun RunThreaded(const std::vector<std::vector<u8>>& programs, bool hostile, u8 cpl,
                    const std::vector<u64>& shootdowns) {
  const u32 n = static_cast<u32>(programs.size());
  Rig rig(n);
  SetUpRig(rig, programs, hostile, cpl);
  Machine& m = rig.bm.machine();

  DiffRun out;
  out.cpus.resize(n);
  ThreadedSmp ts(m, kEpochCycles);
  AddShootdownEvents(rig, ts, shootdowns);
  ts.set_barrier_hook([&m, &out, n](u64 barrier) {
    EpochSample s;
    s.barrier = barrier;
    for (u32 c = 0; c < n; ++c) {
      s.cycles.push_back(m.cpu(c).cycles());
      s.instructions.push_back(m.cpu(c).instructions_retired());
    }
    out.samples.push_back(std::move(s));
  });
  ts.Run(kCycleLimit, MakeStopHandler(m, out.cpus, programs));
  Collect(rig, out);
  return out;
}

// Replays the identical machine on the oracle interleaver, segmented at the
// threaded run's barrier cycles: after Run(B) every live vCPU sits at its
// first retire boundary >= B, which is exactly the state the threaded run
// quiesced in at barrier B.
DiffRun RunInterleavedAt(const std::vector<std::vector<u8>>& programs, bool hostile,
                         u8 cpl, const std::vector<u64>& shootdowns,
                         const std::vector<EpochSample>& barriers) {
  const u32 n = static_cast<u32>(programs.size());
  Rig rig(n);
  SetUpRig(rig, programs, hostile, cpl);
  Machine& m = rig.bm.machine();

  DiffRun out;
  out.cpus.resize(n);
  SmpInterleaver il(m);
  AddShootdownEvents(rig, il, shootdowns);
  const SmpInterleaver::StopHandler on_stop = MakeStopHandler(m, out.cpus, programs);
  for (const EpochSample& b : barriers) {
    if (b.barrier > 0) il.Run(b.barrier, on_stop);
    EpochSample s;
    s.barrier = b.barrier;
    for (u32 c = 0; c < n; ++c) {
      s.cycles.push_back(m.cpu(c).cycles());
      s.instructions.push_back(m.cpu(c).instructions_retired());
    }
    out.samples.push_back(std::move(s));
  }
  il.Run(kCycleLimit, on_stop);
  Collect(rig, out);
  return out;
}

void ExpectRunsEqual(const DiffRun& threaded, const DiffRun& oracle) {
  ASSERT_EQ(threaded.cpus.size(), oracle.cpus.size());
  for (u32 c = 0; c < threaded.cpus.size(); ++c) {
    SCOPED_TRACE("vcpu " + std::to_string(c));
    const CpuResult& a = threaded.cpus[c];
    const CpuResult& b = oracle.cpus[c];
    EXPECT_EQ(a.final_reason, b.final_reason);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
    EXPECT_EQ(a.tlb_hits, b.tlb_hits);
    EXPECT_EQ(a.tlb_misses, b.tlb_misses);
    ASSERT_EQ(a.faults.size(), b.faults.size()) << "fault streams differ in length";
    for (size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_TRUE(a.faults[i] == b.faults[i])
          << "fault " << i << " diverged: eip " << std::hex << a.faults[i].eip << " vs "
          << b.faults[i].eip << ", linear " << a.faults[i].linear << " vs "
          << b.faults[i].linear << std::dec << ", at cycle " << a.fault_cycles[i]
          << " vs " << b.fault_cycles[i];
      EXPECT_EQ(a.fault_cycles[i], b.fault_cycles[i]);
    }
    EXPECT_EQ(a.ctx.eip, b.ctx.eip);
    EXPECT_EQ(a.ctx.eflags, b.ctx.eflags);
    EXPECT_EQ(a.ctx.cpl, b.ctx.cpl);
    for (u8 r = 0; r < kNumRegs; ++r) {
      EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
    }
    ASSERT_EQ(a.arch_events.size(), b.arch_events.size()) << "arch-event streams differ";
    for (size_t i = 0; i < a.arch_events.size(); ++i) {
      EXPECT_TRUE(a.arch_events[i] == b.arch_events[i]) << "arch event " << i << " diverged";
    }
  }
  ASSERT_EQ(threaded.samples.size(), oracle.samples.size());
  for (size_t k = 0; k < threaded.samples.size(); ++k) {
    EXPECT_TRUE(threaded.samples[k] == oracle.samples[k])
        << "per-epoch sample " << k << " (barrier cycle "
        << threaded.samples[k].barrier << ") diverged";
  }
  ASSERT_EQ(threaded.memory.size(), oracle.memory.size());
  EXPECT_EQ(std::memcmp(threaded.memory.data(), oracle.memory.data(), threaded.memory.size()),
            0)
      << "memory images diverged";
}

// One seed of the threaded-vs-interleaver differential at N = 2 and 4. Adds
// the traces demoted inside threaded epochs to `threaded_demotions`.
void ExpectThreadedMatchesInterleaver(u64 seed, const FuzzShape& shape,
                                      u64* threaded_demotions) {
  const bool hostile = (seed % 4) >= 2;
  const u8 cpl = (seed % 2) ? 3 : 0;
  // Scripted shootdown points: pseudo-random global cycles early enough to
  // land inside the run.
  std::vector<u64> shootdowns;
  u64 st = seed * 0x9E3779B97F4A7C15ull + 23;
  u64 t = 1'500;
  for (int i = 0; i < 6; ++i) {
    t += 500 + NextRand(&st) % 5'000;
    shootdowns.push_back(t);
  }
  for (u32 n : {2u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n) +
                 (hostile ? " hostile" : " plain") + " cpl " + std::to_string(cpl) +
               " shape " + FuzzShapeName(shape));
    std::vector<std::vector<u8>> programs;
    for (u32 c = 0; c < n; ++c) programs.push_back(BuildProgram(seed, c, shape));

    DiffRun threaded = RunThreaded(programs, hostile, cpl, shootdowns);
    for (u32 c = 0; c < n; ++c) {
      EXPECT_GE(threaded.cpus[c].instructions, 1'000u)
          << "vCPU " << c << " barely executed — fuzz not meaningful";
    }
    EXPECT_GE(threaded.samples.size(), 8u)
        << "too few epoch barriers for the sample comparison to mean anything";

    DiffRun oracle =
        RunInterleavedAt(programs, hostile, cpl, shootdowns, threaded.samples);
    ExpectRunsEqual(threaded, oracle);
    for (const CpuResult& c : threaded.cpus) *threaded_demotions += c.trace_demotions;
  }
}

TEST(ThreadedSmpDifferential, MatchesInterleaverOnDrfWorkloads) {
  // Traces demoted inside threaded epochs, summed over seeds and vCPUs: the
  // engine switch happens mid-run on the worker threads too.
  u64 threaded_demotions = 0;
  for (u64 seed = 1; seed <= 6; ++seed) {
    ExpectThreadedMatchesInterleaver(seed, FuzzShape{}, &threaded_demotions);
  }
  EXPECT_GT(threaded_demotions, 0u) << "no trace was demoted in a threaded epoch";
}

// The jump-shape families (tests/fuzz_util.h), whose traces chain runs
// through elided jumps and side exits, on the worker threads.
TEST(ThreadedSmpDifferential, JumpShapesMatchInterleaver) {
  u64 threaded_demotions = 0;
  for (const FuzzShape& shape : kJumpShapes) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      ExpectThreadedMatchesInterleaver(seed, shape, &threaded_demotions);
    }
  }
}

// The DataInCodePage families: each vCPU stores into the tail of its own
// code page, so its cache retires and rebuilds the executing page inside
// threaded epochs, while the siblings see the writes in the barrier window.
TEST(ThreadedSmpDifferential, DataInCodePageMatchesInterleaver) {
  u64 threaded_demotions = 0;
  for (const FuzzShape& shape : kDataInCodePageShapes) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      ExpectThreadedMatchesInterleaver(seed, shape, &threaded_demotions);
    }
  }
}

// The AllAluForms families (every ALU operand form) on the worker threads.
TEST(ThreadedSmpDifferential, AllAluFormsMatchInterleaver) {
  u64 threaded_demotions = 0;
  for (const FuzzShape& shape : kAllAluFormsShapes) {
    for (u64 seed = 1; seed <= 3; ++seed) {
      ExpectThreadedMatchesInterleaver(seed, shape, &threaded_demotions);
    }
  }
}

// Determinism of the threaded mode itself: two threaded runs of the same DRF
// workload must agree exactly (schedule, samples, final state) — host thread
// timing must not leak into simulated time.
TEST(ThreadedSmpDifferential, ThreadedRunsAreReproducible) {
  std::vector<std::vector<u8>> programs;
  for (u32 c = 0; c < 4; ++c) programs.push_back(BuildProgram(99, c));
  const std::vector<u64> shootdowns = {2'000, 5'500, 9'000};
  DiffRun a = RunThreaded(programs, /*hostile=*/true, /*cpl=*/3, shootdowns);
  DiffRun b = RunThreaded(programs, /*hostile=*/true, /*cpl=*/3, shootdowns);
  ExpectRunsEqual(a, b);
}

// The opt-in switch: RunSmp dispatches to ThreadedSmp when
// PALLADIUM_HOST_THREADS is set to anything but "0" (and the machine is
// SMP), and to the oracle interleaver otherwise. The harness choice is
// observable from the stop handler: the interleaver runs every handler on
// the calling thread, ThreadedSmp runs each vCPU's handler on that vCPU's
// own host thread.
TEST(ThreadedSmpDispatch, HostThreadsEnvSelectsTheHarness) {
  std::vector<std::vector<u8>> programs;
  for (u32 c = 0; c < 2; ++c) programs.push_back(BuildProgram(7, c));

  const auto distinct_stop_threads = [&programs]() {
    Rig rig(2);
    SetUpRig(rig, programs, /*hostile=*/false, /*cpl=*/0);
    Machine& m = rig.bm.machine();
    std::vector<CpuResult> cpus(2);
    const SmpInterleaver::StopHandler inner = MakeStopHandler(m, cpus, programs);
    std::mutex mu;
    std::set<std::thread::id> ids;
    RunSmp(m, kCycleLimit, [&](u32 c, const StopInfo& stop) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      return inner(c, stop);
    });
    for (u32 c = 0; c < 2; ++c) EXPECT_EQ(cpus[c].final_reason, StopReason::kHalted);
    return ids.size();
  };

  ASSERT_EQ(unsetenv("PALLADIUM_HOST_THREADS"), 0);
  EXPECT_EQ(distinct_stop_threads(), 1u) << "default must be the interleaver";
  ASSERT_EQ(setenv("PALLADIUM_HOST_THREADS", "1", 1), 0);
  EXPECT_EQ(distinct_stop_threads(), 2u) << "opt-in must give one host thread per vCPU";
  ASSERT_EQ(setenv("PALLADIUM_HOST_THREADS", "0", 1), 0);
  EXPECT_EQ(distinct_stop_threads(), 1u) << "\"0\" must mean off";
  unsetenv("PALLADIUM_HOST_THREADS");
}

}  // namespace
}  // namespace palladium
