// Hot-trace tier tests: promotion lifecycle (cold -> hot -> lowered ->
// re-promoted after invalidation), admission by yield (low-yield traces are
// demoted back to the block engine, self-looping ones are kept), traces
// that chain several runs (side exits, frontier checks at internal run
// heads, stores into a later run, entry through another EIP alias), the
// invalidation edges the tier must get exactly right — a self-modifying
// store executing *inside* the hot trace, and an SMP remote store retiring
// the trace's page mid-loop — plus lazy-flags exactness at a fault boundary
// and the engine/env switches.
// Everywhere, the block engine with the tier disabled is the in-binary
// differential oracle: registers, memory, cycles, TLB statistics, fault
// streams must be byte-identical with the tier on or off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"
#include "src/obs/trace.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

struct TraceRunResult {
  StopInfo stop;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 dtlb_hits = 0;
  bool dtlb_enabled = false;
  Cpu::TraceStats trace;
  std::vector<u8> memory;
};

// Assembles and runs `source` at kCodeBase with the trace tier on or off
// (block engine always on — it is the tier's host) and returns final state.
// A non-null `recorder` receives the CPU's engine events on track 0;
// `setup`, if given, runs on the loaded machine before it starts.
TraceRunResult RunWithTrace(const std::string& source, bool trace,
                            u64 cycle_limit = 10'000'000,
                            obs::FlightRecorder* recorder = nullptr,
                            const std::function<void(BareMachine&)>& setup = nullptr) {
  BareMachine bm;
  bm.cpu().set_block_engine_enabled(true);
  bm.cpu().set_trace_engine_enabled(trace);
  if (recorder != nullptr) {
    recorder->Reset(1);
    bm.cpu().set_recorder(recorder, 0);
  }
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  if (setup) setup(bm);
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  TraceRunResult r;
  r.stop = bm.Run(cycle_limit);
  r.ctx = bm.cpu().SaveContext();
  r.cycles = bm.cpu().cycles();
  r.instructions = bm.cpu().instructions_retired();
  r.tlb_hits = bm.cpu().tlb_stats().hits;
  r.dtlb_hits = bm.cpu().dtlb_stats().hits;
  r.dtlb_enabled = bm.cpu().dtlb_enabled();
  r.trace = bm.cpu().trace_stats();
  r.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  return r;
}

void ExpectSameState(const TraceRunResult& a, const TraceRunResult& b) {
  EXPECT_EQ(a.stop.reason, b.stop.reason);
  EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ctx.eip, b.ctx.eip);
  EXPECT_EQ(a.ctx.eflags, b.ctx.eflags) << "EFLAGS diverged";
  EXPECT_EQ(a.tlb_hits, b.tlb_hits) << "TLB statistics diverged";
  EXPECT_EQ(a.dtlb_hits, b.dtlb_hits) << "D-TLB statistics diverged";
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
  }
  EXPECT_TRUE(a.memory == b.memory) << "memory images diverged";
}

constexpr const char* kHotMemLoop = R"(
  .global main
main:
  mov $1000, %ecx
  mov $0x20000, %ebx
loop:
  st %eax, 0(%ebx)
  ld 0(%ebx), %eax
  push %eax
  pop %edx
  add $3, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";

// A hot loop is promoted to a micro-op trace, runs nearly all of its
// instructions there, answers its data translations from pins, and keeps
// flags lazy across iterations — while staying byte-identical with the
// block-engine oracle, TLB statistics included.
TEST(TraceEngine, HotLoopPromotesAndElidesProbes) {
  TraceRunResult on = RunWithTrace(kHotMemLoop, /*trace=*/true);
  TraceRunResult off = RunWithTrace(kHotMemLoop, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);

  EXPECT_GE(on.trace.promotions, 1u) << "the loop must have been lowered";
  EXPECT_GE(on.trace.entries, 900u) << "nearly every iteration should enter the trace";
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2)
      << "most instructions should retire as micro-ops";
  // Probe elision rides on D-TLB pins; under the PALLADIUM_NO_DTLB oracle
  // every trace memory access takes the full probe path instead, so the
  // counter must stay at zero there (state and cycles above are already
  // asserted identical either way).
  if (on.dtlb_enabled) {
    EXPECT_GT(on.trace.probes_elided, 3000u)
        << "pinned translations should answer the loop's memory accesses";
  } else {
    EXPECT_EQ(on.trace.probes_elided, 0u)
        << "without the D-TLB there are no pins to elide probes with";
  }
  EXPECT_GE(on.trace.flag_materializations, 1u);
  // Lazy flags: materializations must be rare relative to trace entries —
  // the whole point is NOT computing EFLAGS per iteration.
  EXPECT_LT(on.trace.flag_materializations, on.trace.entries / 4)
      << "flags should stay lazy across in-trace loop iterations";

  EXPECT_EQ(off.trace.promotions, 0u);
  EXPECT_EQ(off.trace.entries, 0u);
  EXPECT_EQ(off.trace.uop_insns, 0u);
  EXPECT_EQ(off.trace.probes_elided, 0u);
}

// Below the hotness threshold nothing is lowered: a short-lived loop runs
// entirely in the block engine.
TEST(TraceEngine, BelowThresholdNeverPromotes) {
  const std::string source = R"(
  .global main
main:
  mov $10, %ecx
loop:
  add $1, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  EXPECT_EQ(on.trace.promotions, 0u) << "10 iterations are below the threshold of 16";
  EXPECT_EQ(on.trace.entries, 0u);
  EXPECT_EQ(on.trace.uop_insns, 0u);
}

// The web worker's checksum shape: a top-tested `cmp; je out` run and a
// `ld8 ... jmp top` run. The loop's trace covers both runs: the `jmp` back
// to the head is elided and the `je` becomes a side exit, so the loop
// iterates inside one trace call. The trace is lowered at the body's head
// (the first iteration reaches `top` by falling through from `main`, so the
// body heats up first) and loops on the head's not-taken edge.
std::string TopTestedLoop(u32 iterations) {
  return R"(
  .global main
main:
  mov $)" + std::to_string(iterations) + R"(, %ecx
  mov $0x20000, %esi
top:
  cmp $0, %ecx
  je out
  ld8 0(%esi), %eax
  add %eax, %ebx
  st %ebx, 0x1000(%esi)
  add $1, %esi
  dec %ecx
  jmp top
out:
  hlt
)";
}

TEST(TraceEngine, TopTestedLoopIteratesInOneTrace) {
  constexpr u32 kBodyEip = kCodeBase + 4 * kInsnSize;
  constexpr u32 kInsnsPerIteration = 8;
  obs::FlightRecorder rec;
  TraceRunResult on = RunWithTrace(TopTestedLoop(2000), /*trace=*/true, 10'000'000, &rec);
  TraceRunResult off = RunWithTrace(TopTestedLoop(2000), /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.trace.promotions, 1u) << "one trace covers the whole loop";
  EXPECT_EQ(on.trace.demotions, 0u) << "the loop trace must survive probation";
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2)
      << "the loop must retire in its trace";
  u32 compiles = 0;
  for (const obs::Event& e : rec.Events(0)) {
    EXPECT_NE(e.type, obs::EventType::kTraceDemote);
    if (e.type != obs::EventType::kTraceCompile) continue;
    ++compiles;
    EXPECT_EQ(e.arg0, kBodyEip);
    EXPECT_EQ(e.arg1, kInsnsPerIteration) << "arg1 counts instructions across both runs";
  }
  EXPECT_EQ(compiles, 1u);

  // Four times the iterations: every extra iteration is one more in-place
  // entry of the same trace, retiring all of its instructions there.
  TraceRunResult longer = RunWithTrace(TopTestedLoop(8000), /*trace=*/true);
  TraceRunResult longer_off = RunWithTrace(TopTestedLoop(8000), /*trace=*/false);
  ExpectSameState(longer, longer_off);
  EXPECT_EQ(longer.trace.demotions, 0u);
  EXPECT_EQ(longer.trace.entries - on.trace.entries, 6000u);
  EXPECT_EQ(longer.trace.uop_insns - on.trace.uop_insns, 6000u * kInsnsPerIteration);
}

// A loop that still loses: a call per iteration ends every chain, so each
// trace call retires a handful of instructions (the callee's `add` before
// its `ret`; the caller's `dec; cmp; jne` leaving through a side exit). Both
// traces are demoted at the end of their probation, after which the block
// engine runs them and the trace entry count stops growing.
std::string CallPerIterationLoop(u32 iterations) {
  return R"(
  .global main
main:
  mov $)" + std::to_string(iterations) + R"(, %ecx
top:
  call step
  dec %ecx
  cmp $0, %ecx
  jne top
  hlt
step:
  add $1, %eax
  ret
)";
}

TEST(TraceEngine, LowYieldCallLoopIsDemoted) {
  TraceRunResult on = RunWithTrace(CallPerIterationLoop(2000), /*trace=*/true);
  TraceRunResult off = RunWithTrace(CallPerIterationLoop(2000), /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.trace.promotions, 2u) << "caller tail and callee must heat up and be lowered";
  EXPECT_EQ(on.trace.demotions, 2u) << "both yield below break-even";
  EXPECT_EQ(on.trace.side_exits, Cpu::kTraceProbation)
      << "the caller's trace leaves through its jne side exit on every call";
  EXPECT_EQ(off.trace.demotions, 0u);

  // Four times the iterations, same trace work: after demotion the block
  // engine runs every further iteration.
  TraceRunResult longer = RunWithTrace(CallPerIterationLoop(8000), /*trace=*/true);
  EXPECT_EQ(longer.trace.demotions, 2u);
  EXPECT_EQ(longer.trace.entries, on.trace.entries) << "entries kept growing after demotion";
  EXPECT_EQ(longer.trace.uop_insns, on.trace.uop_insns);
  EXPECT_LT(on.trace.uop_insns, on.instructions / 10);
}

// Side exits: a lazy-flags `test; je rare` taken every 16th iteration and a
// fused `cmp; je bail` taken once, mid-loop, to leave for good. Each taken
// side exit leaves the trace with exact state — EIP on the branch target,
// the compare's EFLAGS materialized — and the loop re-enters its trace
// after every `rare` detour.
TEST(TraceEngine, SideExitTakenMidTrace) {
  const std::string source = R"(
  .global main
main:
  mov $3000, %ecx
  jmp top
top:
  cmp $0, %ecx
  je out
  test $15, %ecx
  je rare
  add %ecx, %ebx
  cmp $1234, %ecx
  je bail
  dec %ecx
  jmp top
rare:
  add $7, %edx
  dec %ecx
  jmp top
bail:
  hlt
out:
  hlt
)";
  constexpr u32 kBailEip = kCodeBase + 14 * kInsnSize;
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.ctx.eip, kBailEip + kInsnSize) << "the loop must leave through `je bail`";
  EXPECT_EQ(on.ctx.regs[static_cast<u8>(Reg::kEcx)], 1234u);
  // The `rare` detour's own trace (it chains back round the loop to its
  // `je rare` terminator) leaves on the not-taken edge almost every call:
  // it is the one demotion. The loop trace survives.
  EXPECT_EQ(on.trace.demotions, 1u);
  // ~110 `rare` detours, all but those before promotion taken from inside
  // the loop trace, plus the final `je bail`.
  EXPECT_GE(on.trace.side_exits, 64u);
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2);
}

// A cycle limit swept across two loop iterations, long after promotion.
// Somewhere in the sweep the frontier lands on the body run's head inside
// the trace: the trace must stop at that head exactly where the block
// engine's run_start check would, so every stop — EIP, cycles, registers,
// memory — equals the oracle's, and one of them stops right on the head.
TEST(TraceEngine, CycleLimitOnInternalRunHead) {
  constexpr u32 kBodyEip = kCodeBase + 4 * kInsnSize;
  const std::string source = TopTestedLoop(2000);
  // Cycles per iteration, and a point ~100 iterations into the loop.
  const u64 per_iteration = (RunWithTrace(TopTestedLoop(300), false).cycles -
                             RunWithTrace(TopTestedLoop(200), false).cycles) /
                            100;
  const u64 start = RunWithTrace(TopTestedLoop(100), false).cycles;
  u32 stops_on_head = 0;
  for (u64 limit = start; limit < start + 2 * per_iteration; ++limit) {
    TraceRunResult on = RunWithTrace(source, /*trace=*/true, limit);
    TraceRunResult off = RunWithTrace(source, /*trace=*/false, limit);
    SCOPED_TRACE("cycle limit " + std::to_string(limit));
    ASSERT_EQ(on.stop.reason, StopReason::kCycleLimit);
    ExpectSameState(on, off);
    EXPECT_GE(on.trace.promotions, 1u);
    if (on.ctx.eip == kBodyEip) ++stops_on_head;
  }
  EXPECT_GE(stops_on_head, 1u) << "the sweep must hit the body run's head";
}

// A store in the trace's second run patches an instruction of that same run
// mid-loop. The trace starts at the loop head (the loop is entered through
// a jump, so the head heats up first) and reaches the body through the
// head's side exit. The store must leave the trace right after itself
// (one trace_invalidate event there), the patched increment must execute on
// that very iteration, and the loop must heat up and be lowered again.
TEST(TraceEngine, StoreIntoSecondRunMidLoop) {
  // Slot 7 is `add $1, %ebx` (0x10070); its immediate is at +8.
  const std::string source = R"(
  .global main
main:
  mov $400, %ecx
  mov $0x20000, %esi
  mov $1, %edx
  jmp top
top:
  cmp $0, %ecx
  je out
  st %edx, 0(%esi)
  add $1, %ebx
  dec %ecx
  cmp $200, %ecx
  je fix
  cmp $199, %ecx
  je unfix
  jmp top
out:
  hlt
fix:
  mov $0x10078, %esi
  mov $100, %edx
  jmp top
unfix:
  mov $0x20000, %esi
  jmp top
)";
  constexpr u32 kTopEip = kCodeBase + 4 * kInsnSize;
  constexpr u32 kAddEip = kCodeBase + 7 * kInsnSize;
  obs::FlightRecorder rec;
  TraceRunResult on = RunWithTrace(source, /*trace=*/true, 10'000'000, &rec);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  const u32 ebx = on.ctx.regs[static_cast<u8>(Reg::kEbx)];
  // 200 iterations add 1; from the store's own iteration on, the patched
  // `add $100` runs (the store leaves the imm patched).
  EXPECT_EQ(ebx, 200u + 200u * 100u) << "the patch must execute on the store's iteration";
  EXPECT_EQ(on.trace.promotions, 2u) << "lowered, killed by the store, lowered again";
  std::vector<u32> compiled_at;
  u32 invalidates = 0;
  for (const obs::Event& e : rec.Events(0)) {
    if (e.type == obs::EventType::kTraceCompile) compiled_at.push_back(e.arg0);
    if (e.type != obs::EventType::kTraceInvalidate) continue;
    ++invalidates;
    EXPECT_EQ(e.arg0, kAddEip) << "the trace must exit right after the store";
  }
  EXPECT_EQ(invalidates, 1u);
  ASSERT_FALSE(compiled_at.empty());
  EXPECT_EQ(compiled_at[0], kTopEip) << "the store must sit in the first trace's second run";
}

// The same physical code page mapped at a second linear address. The loop
// is lowered at its home EIP, where its `jmp mid` is elided; the second
// pass enters the same trace through the alias. There the jump's target
// (an absolute EIP back in the home mapping) is not the slot the trace
// would continue at, so the call must stop at the end of its first run.
// `call getip` records which mapping the loop's exit ran in.
TEST(TraceEngine, CallEnteredAtAnotherEipAliasRunsFirstRunOnly) {
  constexpr u32 kAlias = 0x300000;
  auto slot = [](u32 s) { return std::to_string(kCodeBase + s * kInsnSize); };
  const std::string source = R"(
  .global main
main:
  mov $100, %ecx
  mov $)" + slot(11) + R"(, %ebp
top:
  add $3, %ebx
  jmp mid
  hlt
mid:
  dec %ecx
  cmp $0, %ecx
  jne top
  call getip
getip:
  pop %edx
  jmp *%ebp
  mov $1, %ecx
  mov $)" + slot(15) + R"(, %ebp
  mov $)" + std::to_string(kAlias + 2 * kInsnSize) + R"(, %eax
  jmp *%eax
  hlt
)";
  const auto map_alias = [](BareMachine& bm) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    EXPECT_TRUE(ed.Map(kAlias, kCodeBase, kPtePresent | kPteWrite | kPteUser,
                       [] { return 0u; }));
  };
  TraceRunResult on = RunWithTrace(source, /*trace=*/true, 10'000'000, nullptr, map_alias);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false, 10'000'000, nullptr, map_alias);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.ctx.eip, kCodeBase + 16 * kInsnSize);
  EXPECT_EQ(on.ctx.regs[static_cast<u8>(Reg::kEdx)], kCodeBase + 9 * kInsnSize)
      << "the alias pass must leave the loop in the home mapping";
  EXPECT_GE(on.trace.entries, 85u) << "the home pass must have looped in its trace";
}

// A self-looping `jne` loop, called again and again from an outer loop the
// way ext-compute checksums one buffer per call: every call of its trace
// iterates in place, so the yield is far above break-even and the trace is
// kept. The outer loop's own short runs are still demoted.
TEST(TraceEngine, SelfLoopingTraceIsKept) {
  const std::string source = R"(
  .global main
main:
  mov $400, %edi
outer:
  mov $8, %ecx
  mov $0x20000, %esi
inner:
  ld8 0(%esi), %eax
  add %eax, %ebx
  add $1, %esi
  dec %ecx
  cmp $0, %ecx
  jne inner
  st %ebx, 0x1000(%esi)
  dec %edi
  cmp $0, %edi
  jne outer
  hlt
)";
  constexpr u32 kInnerEip = kCodeBase + 3 * kInsnSize;
  obs::FlightRecorder rec;
  TraceRunResult on = RunWithTrace(source, /*trace=*/true, 10'000'000, &rec);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);

  EXPECT_EQ(on.trace.promotions, 3u) << "outer head, inner loop, outer tail";
  EXPECT_EQ(on.trace.demotions, 2u) << "only the outer loop's short runs are demoted";
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2)
      << "the inner loop must keep retiring in its trace";
  u32 demote_events = 0;
  for (const obs::Event& e : rec.Events(0)) {
    if (e.type != obs::EventType::kTraceDemote) continue;
    ++demote_events;
    EXPECT_EQ(e.cls, obs::EventClass::kEngine);
    EXPECT_NE(e.arg0, kInnerEip) << "the self-looping trace must not be demoted";
    EXPECT_LT(e.arg1, Cpu::kTraceMinYield) << "arg1 is the probation's instructions per call";
  }
  EXPECT_EQ(demote_events, on.trace.demotions);
}

// A store into a demoted run's page rebuilds the page, which resets the
// admission decision with everything else: the runs heat up, are lowered
// and are judged again, and the final state still equals the oracle's.
TEST(TraceEngine, CodePageWriteResetsDemotion) {
  // The call-per-iteration shape, whose traces lose. The store targets a
  // data word past the code on the same page (0x10800).
  const std::string source = R"(
  .global main
main:
  mov $600, %ecx
top:
  call step
  dec %ecx
  cmp $300, %ecx
  je patch
  cmp $0, %ecx
  jne top
  hlt
patch:
  st %ecx, 0x10800
  jmp top
step:
  add $1, %eax
  ret
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  // Three runs per page build: the callee, the caller's tail and — once
  // the tail's trace is demoted and the block engine reaches it — the
  // tail's second run.
  EXPECT_EQ(on.trace.promotions, 6u) << "every run must re-heat after the rebuild";
  EXPECT_EQ(on.trace.demotions, 6u) << "and be judged again";
}

// PALLADIUM_NO_TRACE=1 disables the tier at construction, exactly like
// set_trace_engine_enabled(false). The suite itself may run under that
// switch, so the inherited value is cleared first and restored at the end.
TEST(TraceEngine, EnvSwitchDisablesTraceTier) {
  const char* inherited = std::getenv("PALLADIUM_NO_TRACE");
  const std::optional<std::string> saved =
      inherited != nullptr ? std::optional<std::string>(inherited) : std::nullopt;
  ::unsetenv("PALLADIUM_NO_TRACE");
  {
    BareMachine bm;
    EXPECT_TRUE(bm.cpu().trace_engine_enabled()) << "tier defaults to on";
  }
  ::setenv("PALLADIUM_NO_TRACE", "1", 1);
  {
    BareMachine bm;
    EXPECT_FALSE(bm.cpu().trace_engine_enabled());
  }
  if (saved) {
    ::setenv("PALLADIUM_NO_TRACE", saved->c_str(), 1);
  } else {
    ::unsetenv("PALLADIUM_NO_TRACE");
  }
}

// A store executing *inside* the hot trace patches a later instruction of
// the trace's own body. The store must exit the trace at the invalidation
// boundary, the patched bytes must execute on the very same iteration, and
// once the stores move back off the code page the loop must re-heat and be
// promoted a second time.
TEST(TraceEngine, SelfModifyingStoreInsideHotTraceRepromotes) {
  // Body slot `add $1, %ebx` lives at 0x10040; its imm field is at +8.
  const std::string source = R"(
  .global main
main:
  mov $100, %ecx
  mov $0x20000, %esi
  mov $1, %edx
loop:
  st %edx, 0(%esi)
  add $1, %ebx
  dec %ecx
  cmp $25, %ecx
  je fix
  cmp $24, %ecx
  je unfix
  cmp $0, %ecx
  jne loop
  hlt
fix:
  mov $0x10048, %esi
  mov $100, %edx
  jmp loop
unfix:
  mov $0x20000, %esi
  jmp loop
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);

  const u32 ebx = on.ctx.regs[static_cast<u8>(Reg::kEbx)];
  EXPECT_GT(ebx, 100u) << "patched +100 increments must have executed";
  EXPECT_EQ((ebx - 100u) % 99u, 0u) << "every patched iteration adds exactly 99 extra";
  EXPECT_GE(on.trace.promotions, 2u)
      << "the loop must re-heat and be lowered again after the self-modify";
}

// trace_invalidate marks a trace call cut short by a decode-generation
// change, and nothing else. The loop's store walks down from the page
// above into the tail of its own code page: the first such store retires
// the page in the middle of the trace's single in-place call, which must
// exit there (one event). The page then dies on every iteration, so the loop
// never re-heats. (Plain Jcc exits recording no event is checked by the SMP
// test below, whose every slice ends through one.)
TEST(TraceEngine, TraceInvalidateEventOnlyForRealInvalidations) {
  const std::string source = R"(
  .global main
main:
  mov $150, %ecx
  mov $0x11190, %esi
loop:
  st %ecx, 0(%esi)
  sub $4, %esi
  add %ecx, %ebx
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  obs::FlightRecorder rec;
  TraceRunResult on = RunWithTrace(source, /*trace=*/true, 10'000'000, &rec);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.trace.promotions, 1u);
  EXPECT_EQ(on.trace.demotions, 0u);
  u32 invalidate_events = 0;
  for (const obs::Event& e : rec.Events(0)) {
    if (e.type != obs::EventType::kTraceInvalidate) continue;
    ++invalidate_events;
    // Store 101 (ecx = 49 before the dec) is the first into the code page.
    EXPECT_EQ(e.arg0, kCodeBase + 3 * kInsnSize) << "exit right after the store";
  }
  EXPECT_EQ(invalidate_events, 1u);
}

// An SMP neighbour's store lands on the hot trace's code page mid-loop (via
// the physical-memory write-observer fan-out, since with two vCPUs the
// victim's decode cache is not the sole observer). The victim must pick up
// the new bytes at the same retire boundary as the oracle, preserving the
// deterministic interleave byte-for-byte.
TEST(TraceEngine, SmpRemoteStoreInvalidatesHotTraceMidLoop) {
  constexpr u32 kCpu1Code = kCodeBase + 0x4000;
  auto run = [&](bool trace) {
    BareMachineConfig config;
    config.num_cpus = 2;
    BareMachine bm(config);
    Machine& m = bm.machine();
    obs::FlightRecorder rec;
    rec.Reset(2);
    for (u32 c = 0; c < 2; ++c) {
      m.cpu(c).set_block_engine_enabled(true);
      m.cpu(c).set_trace_engine_enabled(trace);
      m.cpu(c).set_recorder(&rec, c);
    }
    std::string diag;
    // vCPU 0: a hot loop; `add $1, %eax` is slot 1 (0x10010), imm at +8.
    auto img0 = bm.LoadProgram(R"(
  .global main
main:
  mov $1000, %ecx
loop:
  add $1, %eax
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)",
                               kCodeBase, &diag);
    EXPECT_TRUE(img0.has_value()) << diag;
    // vCPU 1: delay long enough for vCPU 0's loop to go hot, then patch
    // vCPU 0's increment from +1 to +7 and halt.
    auto img1 = bm.LoadProgram(R"(
  .global main
main:
  mov $30, %ecx
delay:
  dec %ecx
  cmp $0, %ecx
  jne delay
  mov $7, %edx
  st %edx, 0x10018
  hlt
)",
                               kCpu1Code, &diag);
    EXPECT_TRUE(img1.has_value()) << diag;
    bm.StartCpu(0, *img0->Lookup("main"), 0, kStackTop);
    bm.StartCpu(1, *img1->Lookup("main"), 0, kStackTop - 0x2000);

    SmpInterleaver il(m);
    il.Run(10'000'000, [&](u32, const StopInfo& stop) {
      EXPECT_EQ(stop.reason, StopReason::kHalted);
      return false;
    });
    u32 invalidate_events = 0;
    for (const obs::Event& e : rec.Events(0)) {
      if (e.type == obs::EventType::kTraceInvalidate) ++invalidate_events;
    }
    EXPECT_EQ(rec.TotalDropped(), 0u);
    struct SmpResult {
      CpuContext ctx0, ctx1;
      u64 cycles0, cycles1, insns0;
      Cpu::TraceStats trace0;
      u32 invalidate_events;
    } r{m.cpu(0).SaveContext(), m.cpu(1).SaveContext(), m.cpu(0).cycles(),
        m.cpu(1).cycles(),      m.cpu(0).instructions_retired(),
        m.cpu(0).trace_stats(), invalidate_events};
    return r;
  };

  auto on = run(/*trace=*/true);
  auto off = run(/*trace=*/false);
  const u32 eax = on.ctx0.regs[static_cast<u8>(Reg::kEax)];
  EXPECT_GT(eax, 1000u) << "patched +7 increments must have executed";
  EXPECT_EQ((eax - 1000u) % 6u, 0u) << "every patched iteration adds exactly 6 extra";
  EXPECT_GE(on.trace0.promotions, 1u) << "the victim loop must have been hot";
  // The store lands between the victim's slices, while no trace call is
  // running, so no call exits on it. Every slice ends through the trace's
  // cmp+jne terminator, and none of those exits is an invalidation.
  EXPECT_EQ(on.invalidate_events, 0u) << "a plain Jcc exit recorded trace_invalidate";
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(on.ctx0.regs[r], off.ctx0.regs[r]) << "vcpu0 reg " << static_cast<int>(r);
    EXPECT_EQ(on.ctx1.regs[r], off.ctx1.regs[r]) << "vcpu1 reg " << static_cast<int>(r);
  }
  EXPECT_EQ(on.cycles0, off.cycles0) << "interleave diverged";
  EXPECT_EQ(on.cycles1, off.cycles1);
  EXPECT_EQ(on.insns0, off.insns0);
}

// Every register-ALU opcode the lowering maps, in each operand form it has,
// plus the add/sub-immediate chains that fold into one uop. The executor
// threads each to a handler chosen by operand form and by whether its flags
// are live (`record`).
constexpr const char* kAluForms[] = {
    "add %ebx, %eax",   "add $0x7FFFFFF0, %eax",  "sub %ebx, %eax",  "sub $0x80000010, %eax",
    "cmp %ebx, %eax",   "cmp $0x40000000, %eax",  "and %ebx, %eax",  "and $0x8000FFFF, %eax",
    "test %ebx, %eax",  "test $0x80000001, %eax", "or %ebx, %eax",   "or $0x00010000, %eax",
    "xor %ebx, %eax",   "xor $0x80000001, %eax",  "shl $3, %eax",    "shr $5, %eax",
    "sar $7, %eax",     "imul %ebx, %eax",        "imul $0x10001, %eax",
    "neg %eax",         "not %eax",               "inc %eax",        "dec %eax",
    // Folds: the recorded flags are the last op's, an add's or a sub's.
    "add $5, %eax\n  sub $0x7FFFFFF0, %eax\n  add $0x40000001, %eax",
    "add $0x60000000, %eax\n  sub $0x12345, %eax",
};

// What follows the op under test. A branch reading its flags or a load that
// can fault keeps them live; the load marches into the unmapped page past
// the end of memory, so the run ends in a fault that hands EFLAGS to the
// handler. An op that overwrites all four flags makes them dead.
constexpr const char* kAluNexts[] = {
    "jl skip\n  lea 1(%ebp), %ebp",
    "jb skip\n  lea 1(%ebp), %ebp",
    "ld8 0(%esi), %edx\n  lea 16(%esi), %esi",
    "add %ecx, %ebp",
};

// A hot loop around `op` and `next`. The leading `lea`s keep every trace call
// above the yield rule's break-even and vary both operands without touching
// the flags; the closing `dec` records the CF the op leaves behind.
std::string AluFormLoop(const std::string& op, const std::string& next) {
  return R"(
  .global main
main:
  mov $300, %ecx
  mov $0x9E3779B9, %eax
  mov $0x7F4A7C15, %ebx
  mov $0xFFF800, %esi
loop:
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 0x3779B9(%eax,%ecx,8), %eax
  lea 0x5A5A5(%ebx,%eax,2), %ebx
  )" + op + R"(
  )" + next + R"(
skip:
  dec %ecx
  jne loop
  hlt
)";
}

// Each case must equal the trace-off oracle in registers, EFLAGS, cycles,
// instructions, TLB statistics and memory — at the halt, or at the fault
// for the load case — while the loop retires in its trace.
TEST(TraceEngine, AluFormsMatchOracle) {
  for (const char* op : kAluForms) {
    for (const char* next : kAluNexts) {
      const std::string source = AluFormLoop(op, next);
      SCOPED_TRACE(std::string(op) + " / " + next);
      TraceRunResult on = RunWithTrace(source, /*trace=*/true);
      TraceRunResult off = RunWithTrace(source, /*trace=*/false);
      EXPECT_NE(on.stop.reason, StopReason::kCycleLimit);
      EXPECT_EQ(on.stop.fault.vector, off.stop.fault.vector);
      EXPECT_EQ(on.stop.fault.linear_address, off.stop.fault.linear_address);
      ExpectSameState(on, off);
      EXPECT_GE(on.trace.promotions, 1u);
      EXPECT_GT(on.trace.uop_insns, on.instructions / 2) << "the loop must retire in its trace";
      EXPECT_GE(on.trace.flag_materializations, 1u);
    }
  }
}

// The end marker, where a body's final slot is not a branch the trace
// lowers: the `call` goes to the block engine each iteration, after the
// trace's batched retire state is committed at the marker.
TEST(TraceEngine, BodyEndHandsFinalSlotToBlockEngine) {
  constexpr u32 kBodyInsns = 12;
  const std::string source = R"(
  .global main
main:
  mov $200, %ecx
loop:
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  lea 1(%edi), %edi
  add %ecx, %eax
  xor $0x55, %eax
  shl $1, %ebx
  add %eax, %ebx
  push %ebx
  pop %edx
  call bump
  dec %ecx
  jne loop
  hlt
bump:
  add $3, %edx
  ret
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_GE(on.trace.promotions, 1u);
  EXPECT_GE(on.trace.uop_insns, 150u * kBodyInsns)
      << "every iteration after promotion must retire its body in the trace";
}

// The end marker of a trace whose final slot is a `jmp` back to its entry:
// the executor loops in place there, so the loop runs in one trace call
// that leaves only through its side exit at the end. `main` enters the loop
// through a jump, so its head heats up before the run after `je`.
TEST(TraceEngine, JmpLoopIteratesAtBodyEnd) {
  const std::string source = R"(
  .global main
main:
  mov $500, %ecx
  jmp loop
loop:
  add %ecx, %eax
  xor $0x55, %eax
  lea 3(%eax,%ecx,4), %edx
  dec %ecx
  je done
  add %edx, %ebx
  jmp loop
done:
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  EXPECT_EQ(on.stop.reason, StopReason::kHalted);
  ExpectSameState(on, off);
  EXPECT_EQ(on.trace.promotions, 1u);
  EXPECT_EQ(on.trace.demotions, 0u);
  EXPECT_EQ(on.trace.side_exits, 1u) << "the loop must leave only through `je done`";
  EXPECT_GT(on.trace.entries, 450u) << "each in-place iteration counts as an entry";
  EXPECT_GT(on.trace.uop_insns, on.instructions / 2);
}

// A page fault raised by a memory uop mid-trace must deliver the exact
// architectural EFLAGS even though the flag producers before it executed
// lazily: the trace's fault exit materializes the pending flags cache.
TEST(TraceEngine, LazyFlagsExactAtFaultBoundary) {
  // Stores march toward the end of identity-mapped memory (16 MiB) in a hot
  // loop; iteration ~256 faults on the first unmapped page, long after
  // promotion. The last flag write before the faulting store is the `add`
  // of the same iteration, held lazy in the flags cache.
  const std::string source = R"(
  .global main
main:
  mov $0xFFF000, %esi
  mov $5000, %ecx
loop:
  add $3, %eax
  st %eax, 0(%esi)
  add $16, %esi
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  TraceRunResult on = RunWithTrace(source, /*trace=*/true);
  TraceRunResult off = RunWithTrace(source, /*trace=*/false);
  ASSERT_EQ(on.stop.reason, StopReason::kFault);
  ASSERT_EQ(off.stop.reason, StopReason::kFault);
  EXPECT_EQ(on.stop.fault.vector, off.stop.fault.vector);
  EXPECT_EQ(on.stop.fault.error_code, off.stop.fault.error_code);
  EXPECT_EQ(on.stop.fault.linear_address, off.stop.fault.linear_address);
  ExpectSameState(on, off);
  EXPECT_GE(on.trace.promotions, 1u) << "the loop must have faulted while hot";
  EXPECT_GE(on.trace.flag_materializations, 1u)
      << "the fault exit must have materialized lazy flags";
}

}  // namespace
}  // namespace palladium
