// Property tests for CPU semantics: ALU results and flags must agree with
// host-side 32-bit arithmetic across pseudo-random operand sweeps, and
// memory round-trips must hold for every width and addressing form.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "src/hw/smp.h"
#include "src/hw/timer.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "tests/fuzz_util.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

// NextRand / FaultRecord / the fuzz-program builder live in
// tests/fuzz_util.h, shared with the threaded-SMP differential
// (tests/smp_threaded_test.cc).

// Runs `op a, b` with a in EAX, b in EBX and returns EAX plus the flags.
struct AluResult {
  u32 value;
  bool cf, zf, sf, of;
};

AluResult RunAlu(const std::string& mnemonic, u32 a, u32 b) {
  BareMachine bm;
  std::string diag;
  std::string src = R"(
  .global main
main:
  mov $)" + std::to_string(a) + R"(, %eax
  mov $)" + std::to_string(b) + R"(, %ebx
  )" + mnemonic + R"( %ebx, %eax
  hlt
)";
  auto img = bm.LoadProgram(src, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  StopInfo stop = bm.Run(10'000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  u32 fl = bm.cpu().eflags();
  return AluResult{bm.cpu().reg(Reg::kEax), (fl & kFlagCf) != 0, (fl & kFlagZf) != 0,
                   (fl & kFlagSf) != 0, (fl & kFlagOf) != 0};
}

class AluProperty : public ::testing::TestWithParam<u64> {};

TEST_P(AluProperty, AddMatchesHostSemantics) {
  u64 state = GetParam();
  for (int i = 0; i < 8; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    AluResult r = RunAlu("add", a, b);
    u32 expected = a + b;
    EXPECT_EQ(r.value, expected) << a << "+" << b;
    EXPECT_EQ(r.cf, expected < a);
    EXPECT_EQ(r.zf, expected == 0);
    EXPECT_EQ(r.sf, (expected >> 31) != 0);
    bool of = ((~(a ^ b)) & (a ^ expected) & 0x80000000u) != 0;
    EXPECT_EQ(r.of, of);
  }
}

TEST_P(AluProperty, SubMatchesHostSemantics) {
  u64 state = GetParam() * 3 + 1;
  for (int i = 0; i < 8; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    AluResult r = RunAlu("sub", a, b);
    u32 expected = a - b;
    EXPECT_EQ(r.value, expected);
    EXPECT_EQ(r.cf, a < b);
    EXPECT_EQ(r.zf, expected == 0);
    EXPECT_EQ(r.sf, (expected >> 31) != 0);
  }
}

TEST_P(AluProperty, LogicOpsMatchHostSemantics) {
  u64 state = GetParam() * 7 + 5;
  for (int i = 0; i < 5; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    EXPECT_EQ(RunAlu("and", a, b).value, a & b);
    EXPECT_EQ(RunAlu("or", a, b).value, a | b);
    EXPECT_EQ(RunAlu("xor", a, b).value, a ^ b);
    AluResult r = RunAlu("and", a, b);
    EXPECT_FALSE(r.cf);
    EXPECT_FALSE(r.of);
    EXPECT_EQ(r.zf, (a & b) == 0);
  }
}

TEST_P(AluProperty, MulDivMatchHostSemantics) {
  u64 state = GetParam() * 13 + 11;
  for (int i = 0; i < 5; ++i) {
    u32 a = NextRand(&state), b = NextRand(&state);
    EXPECT_EQ(RunAlu("imul", a, b).value,
              static_cast<u32>(static_cast<i64>(static_cast<i32>(a)) *
                               static_cast<i32>(b)));
    if (b != 0) {
      EXPECT_EQ(RunAlu("udiv", a, b).value, a / b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluProperty, ::testing::Values(1u, 42u, 0xDEADBEEFu, 7777u));

class ShiftProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShiftProperty, ShiftsMatchHostSemantics) {
  const int amount = GetParam();
  u64 state = 1000 + amount;
  for (int i = 0; i < 4; ++i) {
    u32 a = NextRand(&state);
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $)" + std::to_string(a) + R"(, %eax
  mov %eax, %ebx
  mov %eax, %ecx
  shl $)" + std::to_string(amount) + R"(, %eax
  shr $)" + std::to_string(amount) + R"(, %ebx
  sar $)" + std::to_string(amount) + R"(, %ecx
  hlt
)";
    auto img = bm.LoadProgram(src, kCodeBase, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEax), a << amount);
    EXPECT_EQ(bm.cpu().reg(Reg::kEbx), a >> amount);
    EXPECT_EQ(bm.cpu().reg(Reg::kEcx), static_cast<u32>(static_cast<i32>(a) >> amount));
  }
}

INSTANTIATE_TEST_SUITE_P(Amounts, ShiftProperty, ::testing::Values(0, 1, 7, 16, 31));

class MemWidthProperty : public ::testing::TestWithParam<int> {};

TEST_P(MemWidthProperty, StoreLoadRoundTrip) {
  const int width = GetParam();
  const char* st = width == 1 ? "st8" : (width == 2 ? "st16" : "st");
  const char* ld = width == 1 ? "ld8" : (width == 2 ? "ld16" : "ld");
  u64 state = 99 + width;
  for (int i = 0; i < 6; ++i) {
    u32 v = NextRand(&state);
    u32 mask = width == 1 ? 0xFFu : (width == 2 ? 0xFFFFu : 0xFFFFFFFFu);
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $0x20000, %ebx
  mov $)" + std::to_string(v) + R"(, %eax
  )" + st + R"( %eax, 0(%ebx)
  mov $0, %eax
  )" + ld + R"( 0(%ebx), %eax
  hlt
)";
    auto img = bm.LoadProgram(src, kCodeBase, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEax), v & mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MemWidthProperty, ::testing::Values(1, 2, 4));

TEST(MemAddressing, PageCrossingAccess) {
  // A 4-byte store straddling a page boundary must behave like two partial
  // accesses on consecutive pages.
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $0x20FFE, %ebx     ; 2 bytes before a page boundary
  mov $0xAABBCCDD, %eax
  st %eax, 0(%ebx)
  ld 0(%ebx), %ecx
  ld8 2(%ebx), %edx      ; first byte of the next page: 0xBB
  hlt
)",
                            0x10000, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEcx), 0xAABBCCDDu);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0xBBu);
}

TEST(MemAddressing, ScaledIndexSweep) {
  for (u32 scale : {1u, 2u, 4u, 8u}) {
    BareMachine bm;
    std::string diag;
    std::string src = R"(
  .global main
main:
  mov $0x20000, %ebx
  mov $3, %ecx
  mov $0x77, %eax
  st %eax, 0(%ebx,%ecx,)" + std::to_string(scale) +
                      R"()
  ld )" + std::to_string(3 * scale) +
                      R"((%ebx), %edx
  hlt
)";
    auto img = bm.LoadProgram(src, 0x10000, &diag);
    ASSERT_TRUE(img.has_value()) << diag;
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    ASSERT_EQ(bm.Run(10'000).reason, StopReason::kHalted);
    EXPECT_EQ(bm.cpu().reg(Reg::kEdx), 0x77u) << "scale " << scale;
  }
}

// --- Fast/slow differential fuzz ---------------------------------------------
// Randomized instruction sequences executed twice — D-TLB fast path on vs the
// per-byte oracle — must produce identical architectural state, memory
// images, cycle counts, TLB statistics and fault streams. Faulting
// instructions are skipped and recorded so hostile page setups yield long
// fault streams instead of stopping at the first one.

struct DiffRun {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 decode_recycled = 0;
  std::vector<u8> memory;
};

constexpr u32 kFuzzDataBase = 0x200000;
constexpr u32 kFuzzDataSpan = 4 * 4096;
constexpr u32 kFuzzMem = 8u << 20;

// Hostile-page setups rotated across seeds: none, a read-only page and a
// supervisor (PPL 0) page inside the data window.
enum class FuzzMode : int { kPlainCpl0 = 0, kPlainCpl3, kHostileCpl3, kHostileCpl0, kCount };

std::vector<u8> EncodeFuzzProgram(u64 seed, u32 iterations, u32 body_len,
                                  const FuzzShape& shape) {
  if (shape.data_in_code_page) {
    return EncodeDataInCodePageProgram(seed, iterations, body_len, kCodeBase, kCodeBase,
                                       /*esp_reset=*/0, shape);
  }
  return EncodeLoopedFuzzProgram(seed, iterations, body_len, kCodeBase, kFuzzDataBase,
                                 kFuzzDataSpan, /*esp_reset=*/0, shape);
}

DiffRun RunDifferential(const std::vector<u8>& program, FuzzMode mode, bool dtlb) {
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  BareMachine bm(config);
  bm.cpu().set_dtlb_enabled(dtlb);
  EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, program.data(),
                                 static_cast<u32>(program.size())));
  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  if (hostile) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));   // read-only
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));  // PPL 0
  }
  const u8 cpl =
      (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  bm.Start(kCodeBase, cpl, kStackTop);

  DiffRun out;
  for (;;) {
    StopInfo stop = bm.Run(50'000'000);
    if (stop.reason == StopReason::kFault && out.faults.size() < 4096) {
      out.faults.push_back(FaultRecord{bm.cpu().eip(), stop.fault.vector,
                                       stop.fault.error_code, stop.fault.linear_address});
      // Skip the faulting instruction and keep going — the hostile pages
      // produce a long fault stream, which both paths must reproduce.
      bm.cpu().set_eip(bm.cpu().eip() + kInsnSize);
      continue;
    }
    out.final_reason = stop.reason;
    break;
  }
  out.ctx = bm.cpu().SaveContext();
  out.cycles = bm.cpu().cycles();
  out.instructions = bm.cpu().instructions_retired();
  out.tlb_hits = bm.cpu().tlb_stats().hits;
  out.tlb_misses = bm.cpu().tlb_stats().misses;
  out.decode_recycled = bm.cpu().decode_cache().stats().recycled;
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  return out;
}

// One seed of the D-TLB differential: the program runs with the data fast
// path on and off, and every architectural result must agree.
void ExpectDtlbFuzzAgrees(u64 seed, const FuzzShape& shape, u64* recycled = nullptr) {
  constexpr u32 kIterations = 400;
  constexpr u32 kBodyLen = 224;  // > 10k executed instructions per seed
  static_assert(kIterations >= kFuzzMinIterations, "demotion must happen mid-run");
  const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
  const std::vector<u8> program = EncodeFuzzProgram(seed, kIterations, kBodyLen, shape);
  DiffRun fast = RunDifferential(program, mode, /*dtlb=*/true);
  DiffRun slow = RunDifferential(program, mode, /*dtlb=*/false);
  if (recycled != nullptr) *recycled += fast.decode_recycled + slow.decode_recycled;

  SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
               std::to_string(static_cast<int>(mode)) + " shape " + FuzzShapeName(shape));
  EXPECT_EQ(fast.final_reason, slow.final_reason);
  EXPECT_GE(fast.instructions, 10'000u) << "fuzz body too small to be meaningful";
  EXPECT_EQ(fast.instructions, slow.instructions);
  EXPECT_EQ(fast.cycles, slow.cycles) << "cycle model diverged";
  EXPECT_EQ(fast.tlb_hits, slow.tlb_hits) << "TLB hit accounting diverged";
  EXPECT_EQ(fast.tlb_misses, slow.tlb_misses);

  ASSERT_EQ(fast.faults.size(), slow.faults.size()) << "fault streams differ in length";
  for (size_t i = 0; i < fast.faults.size(); ++i) {
    EXPECT_TRUE(fast.faults[i] == slow.faults[i]) << "fault " << i << " diverged";
  }

  EXPECT_EQ(fast.ctx.eip, slow.ctx.eip);
  EXPECT_EQ(fast.ctx.eflags, slow.ctx.eflags);
  EXPECT_EQ(fast.ctx.cpl, slow.ctx.cpl);
  for (u8 r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(fast.ctx.regs[r], slow.ctx.regs[r]) << "reg " << static_cast<int>(r);
  }
  for (u8 s = 0; s < kNumSegRegs; ++s) {
    EXPECT_EQ(fast.ctx.segs[s].selector.raw(), slow.ctx.segs[s].selector.raw());
  }
  ASSERT_EQ(fast.memory.size(), slow.memory.size());
  EXPECT_EQ(std::memcmp(fast.memory.data(), slow.memory.data(), fast.memory.size()), 0)
      << "memory images diverged";
}

TEST(DtlbDifferential, FastAndSlowPathsAgreeOnRandomPrograms) {
  for (u64 seed = 1; seed <= 52; ++seed) ExpectDtlbFuzzAgrees(seed, FuzzShape{});
}

// The jump-shape families: forward `jmp`s in the body and top-tested loops,
// whose traces chain several runs.
TEST(DtlbDifferential, JumpShapesAgree) {
  for (const FuzzShape& shape : kJumpShapes) {
    for (u64 seed = 1; seed <= 16; ++seed) ExpectDtlbFuzzAgrees(seed, shape);
  }
}

// The DataInCodePage families: the window is the tail of the program's own
// code page, so every store retires the executing page and the next fetch
// rebuilds it in place.
TEST(DtlbDifferential, DataInCodePageAgrees) {
  u64 recycled = 0;
  for (const FuzzShape& shape : kDataInCodePageShapes) {
    for (u64 seed = 1; seed <= 12; ++seed) ExpectDtlbFuzzAgrees(seed, shape, &recycled);
  }
  EXPECT_GT(recycled, 10'000u) << "the stores barely rebuilt the code page";
}

// The AllAluForms families: `test r,r` and both `imul` forms join the pool,
// so every ALU handler form of the trace tier meets the oracle.
TEST(DtlbDifferential, AllAluFormsAgree) {
  for (const FuzzShape& shape : kAllAluFormsShapes) {
    for (u64 seed = 1; seed <= 16; ++seed) ExpectDtlbFuzzAgrees(seed, shape);
  }
}

// --- Async-interrupt differential fuzz ----------------------------------------
// The same random-program harness with a hardware timer and a scripted
// second device injecting IRQs at pseudo-random cycle counts. Delivery is
// keyed off the cycle counter at retire boundaries, so ALL architectural
// effects — registers, memory (ISR counters, interrupt frames), cycles,
// fault stream AND interrupt stream — must be identical in the eight
// engine configurations: (block engine on/off) x (decode cache on/off) x
// (D-TLB on/off). (Blocks require the decode cache; the blocks-on/decode-off
// configs degenerate to the per-instruction path and pin that the switch
// interplay stays exact.)

class ScriptedIrqDevice : public IrqDevice {
 public:
  ScriptedIrqDevice(InterruptController& pic, u32 irq, std::vector<u64> times)
      : pic_(pic), irq_(irq), times_(std::move(times)) {}
  u64 next_event() const override { return next_ < times_.size() ? times_[next_] : kIdle; }
  void Advance(u64 now) override {
    while (next_ < times_.size() && times_[next_] <= now) {
      pic_.Raise(irq_);
      ++next_;
    }
  }

 private:
  InterruptController& pic_;
  u32 irq_;
  std::vector<u64> times_;
  size_t next_ = 0;
};

constexpr u32 kIsrBase = 0x8000;       // one ISR per IRQ, 0x100 apart
constexpr u32 kIsrCounters = 0x9000;   // ISR hit counters (outside the fuzz window)

// push %eax ; eax <- [counter] ; inc ; [counter] <- eax ; pop %eax ; iret
std::vector<u8> EncodeCounterIsr(u32 counter_addr) {
  std::vector<Insn> insns(6);
  insns[0].opcode = Opcode::kPushR;
  insns[0].r1 = static_cast<u8>(Reg::kEax);
  insns[1].opcode = Opcode::kLoad;
  insns[1].r1 = static_cast<u8>(Reg::kEax);
  insns[1].r2 = kNoBaseReg;
  insns[1].size = 4;
  insns[1].disp = static_cast<i32>(counter_addr);
  insns[2].opcode = Opcode::kIncR;
  insns[2].r1 = static_cast<u8>(Reg::kEax);
  insns[3].opcode = Opcode::kStore;
  insns[3].r1 = static_cast<u8>(Reg::kEax);
  insns[3].r2 = kNoBaseReg;
  insns[3].size = 4;
  insns[3].disp = static_cast<i32>(counter_addr);
  insns[4].opcode = Opcode::kPopR;
  insns[4].r1 = static_cast<u8>(Reg::kEax);
  insns[5].opcode = Opcode::kIret;
  std::vector<u8> bytes(insns.size() * kInsnSize);
  for (size_t i = 0; i < insns.size(); ++i) insns[i].EncodeTo(bytes.data() + i * kInsnSize);
  return bytes;
}

struct IrqDiffRun {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  std::vector<Cpu::IrqEvent> irqs;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  std::vector<u8> memory;
  // Architectural flight-recorder stream: tracing+profiling run fully
  // enabled in every mode, and the kArch events must be byte-identical.
  std::vector<obs::Event> arch_events;
  u64 trace_demotions = 0;
};

IrqDiffRun RunDifferentialIrq(const std::vector<u8>& program, FuzzMode mode, bool blocks,
                              bool trace, bool decode_cache, bool dtlb, u64 timer_period,
                              const std::vector<u64>& nic_times) {
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  BareMachine bm(config);
  bm.cpu().set_block_engine_enabled(blocks);
  bm.cpu().set_trace_engine_enabled(trace);
  bm.cpu().set_decode_cache_enabled(decode_cache);
  bm.cpu().set_dtlb_enabled(dtlb);
  // Telemetry fully on: observation must be free in simulated time, so the
  // differential assertions below hold with the recorder and profiler
  // attached. Capacity is sized so nothing wraps (engine-event counts differ
  // across modes and would otherwise evict different arch events).
  obs::FlightRecorder recorder;
  recorder.Reset(1, 1u << 16);
  obs::CycleProfile profiler;
  profiler.Reset(1, bm.cpu().cycle_model().tlb_miss_penalty);
  bm.cpu().set_recorder(&recorder, 0);
  bm.cpu().set_profiler(&profiler, 0);
  EXPECT_TRUE(bm.pm().WriteBlock(kCodeBase, program.data(), static_cast<u32>(program.size())));
  auto isr0 = EncodeCounterIsr(kIsrCounters + 0);
  auto isr5 = EncodeCounterIsr(kIsrCounters + 4);
  EXPECT_TRUE(bm.pm().WriteBlock(kIsrBase, isr0.data(), static_cast<u32>(isr0.size())));
  EXPECT_TRUE(bm.pm().WriteBlock(kIsrBase + 0x100, isr5.data(), static_cast<u32>(isr5.size())));
  bm.idt().Set(0x20, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          kIsrBase, 0));
  bm.idt().Set(0x25, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          kIsrBase + 0x100, 0));

  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  if (hostile) {
    PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                       [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));
  }
  const u8 cpl = (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  bm.Start(kCodeBase, cpl, kStackTop);
  bm.cpu().set_eflags(kFlagIf);

  InterruptController pic;
  pic.set_auto_eoi(true);  // simulated ISRs have no EOI channel
  IrqHub hub(pic);
  IntervalTimer timer(pic, 0);
  ScriptedIrqDevice nic(pic, 5, nic_times);
  hub.AddDevice(&timer);
  hub.AddDevice(&nic);
  timer.Program(timer_period, 0);
  bm.cpu().set_irq_hub(&hub);

  IrqDiffRun out;
  bm.cpu().set_irq_trace(&out.irqs);
  for (;;) {
    StopInfo stop = bm.Run(30'000'000);
    if (stop.reason == StopReason::kFault && out.faults.size() < 4096) {
      out.faults.push_back(FaultRecord{bm.cpu().eip(), stop.fault.vector,
                                       stop.fault.error_code, stop.fault.linear_address});
      bm.cpu().set_eip(bm.cpu().eip() + kInsnSize);
      continue;
    }
    out.final_reason = stop.reason;
    break;
  }
  bm.cpu().set_irq_trace(nullptr);
  out.ctx = bm.cpu().SaveContext();
  out.cycles = bm.cpu().cycles();
  out.instructions = bm.cpu().instructions_retired();
  out.tlb_hits = bm.cpu().tlb_stats().hits;
  out.tlb_misses = bm.cpu().tlb_stats().misses;
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  EXPECT_EQ(recorder.TotalDropped(), 0u) << "fuzz ring sized too small to compare streams";
  out.arch_events = recorder.ArchEvents(0);
  out.trace_demotions = bm.cpu().trace_stats().demotions;
  return out;
}

// One seed of the interrupt differential across all sixteen modes. Adds the
// number of interrupts delivered to `irqs` and each tier-active mode's trace
// demotions to `demotions`.
void ExpectIrqFuzzAgrees(u64 seed, const FuzzShape& shape, u64* irqs,
                         std::map<std::string, u64>* demotions) {
  constexpr u32 kIterations = 300;
  constexpr u32 kBodyLen = 160;
  static_assert(kIterations >= kFuzzMinIterations, "demotion must happen mid-run");
  const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
  const std::vector<u8> program = EncodeFuzzProgram(seed * 31 + 7, kIterations, kBodyLen, shape);
  const u64 timer_period = 2'000 + (seed * 977) % 9'000;
  // Scripted second device: IRQ 5 at pseudo-random cycle counts.
  std::vector<u64> nic_times;
  u64 st = seed * 0xA24BAED4963EE407ull + 3;
  u64 t = 1'000;
  for (int i = 0; i < 40; ++i) {
    t += 500 + NextRand(&st) % 120'000;
    nic_times.push_back(t);
  }

  struct ModeSpec {
    bool blocks, trace, decode, dtlb;
    const char* name;
  };
  // Full 16-mode cross: engine (block/insn) x trace tier (hot/off) x
  // decode cache x D-TLB. The trace axis is inert without the block
  // engine and decode cache (the tier is entered from RunBlock over a
  // decoded page), but the inert combinations still pin down that merely
  // enabling the tier changes nothing.
  const ModeSpec specs[] = {{true, true, true, true, "block+trace/fast/fast"},
                            {true, true, true, false, "block+trace/fast/oracle"},
                            {true, true, false, true, "block+trace/oracle/fast"},
                            {true, true, false, false, "block+trace/oracle/oracle"},
                            {true, false, true, true, "block/fast/fast"},
                            {true, false, true, false, "block/fast/oracle"},
                            {true, false, false, true, "block/oracle/fast"},
                            {true, false, false, false, "block/oracle/oracle"},
                            {false, true, true, true, "insn+trace/fast/fast"},
                            {false, true, true, false, "insn+trace/fast/oracle"},
                            {false, true, false, true, "insn+trace/oracle/fast"},
                            {false, true, false, false, "insn+trace/oracle/oracle"},
                            {false, false, true, true, "insn/fast/fast"},
                            {false, false, true, false, "insn/fast/oracle"},
                            {false, false, false, true, "insn/oracle/fast"},
                            {false, false, false, false, "insn/oracle/oracle"}};
  IrqDiffRun ref;
  for (int s = 0; s < 16; ++s) {
    IrqDiffRun run = RunDifferentialIrq(program, mode, specs[s].blocks, specs[s].trace,
                                        specs[s].decode, specs[s].dtlb, timer_period,
                                        nic_times);
    SCOPED_TRACE("seed " + std::to_string(seed) + " config " + specs[s].name + " shape " +
                 FuzzShapeName(shape));
    if (specs[s].blocks && specs[s].trace && specs[s].decode) {
      (*demotions)[specs[s].name] += run.trace_demotions;
    } else {
      EXPECT_EQ(run.trace_demotions, 0u) << "the trace tier is inert in this mode";
    }
    if (s == 0) {
      ref = std::move(run);
      // Forward branches can shorten a seed's run; at least one delivery
      // per seed plus a healthy aggregate (checked below) keeps the fuzz
      // honest about interrupts actually firing.
      EXPECT_GE(ref.irqs.size(), 1u) << "interrupts must actually have fired";
      *irqs += ref.irqs.size();
      continue;
    }
    EXPECT_EQ(run.final_reason, ref.final_reason);
    EXPECT_EQ(run.instructions, ref.instructions);
    EXPECT_EQ(run.cycles, ref.cycles) << "cycle model diverged";
    ASSERT_EQ(run.faults.size(), ref.faults.size());
    for (size_t i = 0; i < run.faults.size(); ++i) {
      EXPECT_TRUE(run.faults[i] == ref.faults[i]) << "fault " << i << " diverged";
    }
    ASSERT_EQ(run.irqs.size(), ref.irqs.size()) << "interrupt streams differ in length";
    for (size_t i = 0; i < run.irqs.size(); ++i) {
      EXPECT_TRUE(run.irqs[i] == ref.irqs[i])
          << "irq " << i << " diverged: vector " << static_cast<int>(run.irqs[i].vector)
          << " at cycle " << run.irqs[i].cycle << " vs " << ref.irqs[i].cycle;
    }
    ASSERT_EQ(run.arch_events.size(), ref.arch_events.size())
        << "flight-recorder arch streams differ in length";
    for (size_t i = 0; i < run.arch_events.size(); ++i) {
      EXPECT_TRUE(run.arch_events[i] == ref.arch_events[i])
          << "arch event " << i << " (" << EventTypeName(run.arch_events[i].type)
          << ") diverged at cycle " << run.arch_events[i].cycle << " vs "
          << ref.arch_events[i].cycle;
    }
    EXPECT_EQ(run.ctx.eip, ref.ctx.eip);
    EXPECT_EQ(run.ctx.eflags, ref.ctx.eflags);
    EXPECT_EQ(run.ctx.cpl, ref.ctx.cpl);
    for (u8 r = 0; r < kNumRegs; ++r) {
      EXPECT_EQ(run.ctx.regs[r], ref.ctx.regs[r]) << "reg " << static_cast<int>(r);
    }
    // TLB statistics are an implementation counter of the *fetch* path:
    // they match whenever the decode-cache setting matches (the D-TLB
    // keeps them exact by construction); across decode settings only the
    // miss count is comparable.
    if (specs[s].decode == specs[0].decode) {
      EXPECT_EQ(run.tlb_hits, ref.tlb_hits);
    }
    EXPECT_EQ(run.tlb_misses, ref.tlb_misses);
    ASSERT_EQ(run.memory.size(), ref.memory.size());
    EXPECT_EQ(std::memcmp(run.memory.data(), ref.memory.data(), run.memory.size()), 0)
        << "memory images diverged";
  }
}

TEST(IrqDifferential, AllSixteenModesAgreeUnderRandomInterrupts) {
  u64 total_irqs = 0;
  // Trace demotions per tier-active mode, summed over seeds (a seed whose
  // hot runs all clear the yield rule demotes nothing).
  std::map<std::string, u64> demotions;
  for (u64 seed = 1; seed <= 16; ++seed) {
    ExpectIrqFuzzAgrees(seed, FuzzShape{}, &total_irqs, &demotions);
  }
  EXPECT_GT(total_irqs, 60u) << "the interrupt fuzz barely interrupted anything";
  EXPECT_EQ(demotions.size(), 2u);
  for (const auto& [mode, count] : demotions) {
    EXPECT_GT(count, 0u) << mode << " never demoted a trace mid-run";
  }
}

// The jump-shape families under the same sixteen-mode cross.
TEST(IrqDifferential, JumpShapesAgree) {
  u64 total_irqs = 0;
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kJumpShapes) {
    for (u64 seed = 1; seed <= 6; ++seed) {
      ExpectIrqFuzzAgrees(seed, shape, &total_irqs, &demotions);
    }
  }
  EXPECT_GT(total_irqs, 60u) << "the interrupt fuzz barely interrupted anything";
}

// The DataInCodePage families under the same sixteen-mode cross.
TEST(IrqDifferential, DataInCodePageAgrees) {
  u64 total_irqs = 0;
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kDataInCodePageShapes) {
    for (u64 seed = 1; seed <= 4; ++seed) {
      ExpectIrqFuzzAgrees(seed, shape, &total_irqs, &demotions);
    }
  }
  EXPECT_GT(total_irqs, 20u) << "the interrupt fuzz barely interrupted anything";
}

// The AllAluForms families under the same sixteen-mode cross.
TEST(IrqDifferential, AllAluFormsAgree) {
  u64 total_irqs = 0;
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kAllAluFormsShapes) {
    for (u64 seed = 1; seed <= 4; ++seed) {
      ExpectIrqFuzzAgrees(seed, shape, &total_irqs, &demotions);
    }
  }
  EXPECT_GT(total_irqs, 20u) << "the interrupt fuzz barely interrupted anything";
}

// --- SMP differential fuzz -----------------------------------------------------
// N vCPUs share physical memory, the identity page tables and the fuzz data
// window; the deterministic min-cycle interleaver (src/hw/smp.h) steps them
// at instruction-retire boundaries, and scripted cross-CPU shootdowns flip a
// window page's W bit at pseudo-random global cycles, flushing the page on
// every core (the kernel shootdown protocol, driven by hand). Because per-CPU
// cycle counters are byte-identical with the fast paths on or off, the whole
// interleave — and therefore every per-vCPU register file, fault stream,
// cycle count and the shared memory image — must be identical in all four
// (decode cache × D-TLB) configurations, for N ∈ {1, 2, 4}.

constexpr u32 kSmpCodeStride = 0x8000;  // per-vCPU program base spacing
// Per-vCPU stacks, one page each. Geometry rule: no page a *data* access
// can touch may share a direct-mapped TLB set with a code page (sets
// 16/24/32/40 here). The decoded-page fetch path performs fewer TLB
// lookups than the per-byte oracle (that is what makes it fast), so a
// code/data set conflict would make TLB miss counts — and thus cycle
// counts — legitimately mode-dependent. Note the "data" set includes pages
// *above* each stack top: a runtime-unbalanced forward branch can pop more
// than was pushed, reading past the initial ESP. The uniprocessor fuzz
// obeys the same rule implicitly (stack pages land in sets 63/0).
constexpr u32 kSmpStackTop = 0x80000;
constexpr u32 kSmpStackStride = 0x2000;

struct SmpCpuResult {
  StopReason final_reason = StopReason::kHalted;
  std::vector<FaultRecord> faults;
  std::vector<u64> fault_cycles;
  CpuContext ctx;
  u64 cycles = 0;
  u64 instructions = 0;
  std::vector<obs::Event> arch_events;
  u64 trace_demotions = 0;
};

struct SmpDiffRun {
  std::vector<SmpCpuResult> cpus;
  std::vector<u8> memory;
};

SmpDiffRun RunSmpDifferential(const std::vector<std::vector<u8>>& programs, FuzzMode mode,
                              bool blocks, bool trace, bool decode_cache, bool dtlb,
                              const std::vector<u64>& shootdown_cycles) {
  const u32 n = static_cast<u32>(programs.size());
  BareMachineConfig config;
  config.physical_memory_bytes = kFuzzMem;
  config.num_cpus = n;
  BareMachine bm(config);
  Machine& m = bm.machine();
  EXPECT_EQ(m.num_cpus(), n);
  // Telemetry fully on (one recorder track and one profiler slot per vCPU);
  // the per-vCPU differential assertions below must hold regardless.
  obs::FlightRecorder recorder;
  recorder.Reset(n, 1u << 16);
  obs::CycleProfile profiler;
  profiler.Reset(n, m.cpu(0).cycle_model().tlb_miss_penalty);
  for (u32 c = 0; c < n; ++c) {
    m.cpu(c).set_block_engine_enabled(blocks);
    m.cpu(c).set_trace_engine_enabled(trace);
    m.cpu(c).set_decode_cache_enabled(decode_cache);
    m.cpu(c).set_dtlb_enabled(dtlb);
    m.cpu(c).set_recorder(&recorder, c);
    m.cpu(c).set_profiler(&profiler, c);
  }
  for (u32 c = 0; c < n; ++c) {
    const u32 base = kCodeBase + c * kSmpCodeStride;
    EXPECT_TRUE(bm.pm().WriteBlock(base, programs[c].data(),
                                   static_cast<u32>(programs[c].size())));
  }
  const bool hostile = mode == FuzzMode::kHostileCpl3 || mode == FuzzMode::kHostileCpl0;
  const u32 cr3 = m.cpu(0).cr3();
  auto flush_all = [&m, n](u32 linear) {
    for (u32 c = 0; c < n; ++c) m.cpu(c).tlb().FlushPage(linear);
  };
  if (hostile) {
    PageTableEditor ed(bm.pm(), cr3, flush_all);
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + kPageSize, 0, kPteWrite));   // read-only
    EXPECT_TRUE(ed.UpdateFlags(kFuzzDataBase + 2 * kPageSize, 0, kPteUser));  // PPL 0
  }
  const u8 cpl = (mode == FuzzMode::kPlainCpl3 || mode == FuzzMode::kHostileCpl3) ? 3 : 0;
  for (u32 c = 0; c < n; ++c) {
    bm.StartCpu(c, kCodeBase + c * kSmpCodeStride, cpl, kSmpStackTop - c * kSmpStackStride);
  }

  SmpInterleaver il(m);
  // Scripted cross-CPU shootdowns: toggle the W bit of window page 3 at the
  // given global cycles, flushing the page on every core exactly as the
  // kernel's editor-hook shootdown would.
  bool write_protected = false;
  for (u64 cy : shootdown_cycles) {
    il.AddEvent(cy, [&bm, &m, cr3, &flush_all, &write_protected] {
      PageTableEditor ed(bm.pm(), cr3, flush_all);
      if (write_protected) {
        ed.UpdateFlags(kFuzzDataBase + 3 * kPageSize, kPteWrite, 0);
      } else {
        ed.UpdateFlags(kFuzzDataBase + 3 * kPageSize, 0, kPteWrite);
      }
      write_protected = !write_protected;
      (void)m;
    });
  }

  SmpDiffRun out;
  out.cpus.resize(n);
  il.Run(80'000'000, [&](u32 c, const StopInfo& stop) {
    if (stop.reason == StopReason::kFault && out.cpus[c].faults.size() < 4096) {
      out.cpus[c].faults.push_back(FaultRecord{m.cpu(c).eip(), stop.fault.vector,
                                               stop.fault.error_code,
                                               stop.fault.linear_address});
      out.cpus[c].fault_cycles.push_back(m.cpu(c).cycles());
      m.cpu(c).set_eip(m.cpu(c).eip() + kInsnSize);
      return true;  // keep running past the faulting instruction
    }
    out.cpus[c].final_reason = stop.reason;
    return false;  // halted (or fault overflow): park this vCPU
  });
  for (u32 c = 0; c < n; ++c) {
    out.cpus[c].ctx = m.cpu(c).SaveContext();
    out.cpus[c].cycles = m.cpu(c).cycles();
    out.cpus[c].instructions = m.cpu(c).instructions_retired();
    out.cpus[c].arch_events = recorder.ArchEvents(c);
    out.cpus[c].trace_demotions = m.cpu(c).trace_stats().demotions;
  }
  EXPECT_EQ(recorder.TotalDropped(), 0u) << "fuzz ring sized too small to compare streams";
  out.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
  return out;
}

// One seed of the SMP differential for N in {1, 2, 4}. Adds each
// (N, tier-active mode)'s trace demotions to `demotions`.
void ExpectSmpFuzzAgrees(u64 seed, const FuzzShape& shape,
                         std::map<std::string, u64>* demotions) {
  constexpr u32 kIterations = 150;
  constexpr u32 kBodyLen = 160;
  static_assert(kIterations >= kFuzzMinIterations, "demotion must happen mid-run");
  const FuzzMode mode = static_cast<FuzzMode>(seed % static_cast<u64>(FuzzMode::kCount));
  // Scripted shootdown points: pseudo-random global cycles early enough to
  // land inside the run.
  std::vector<u64> shootdowns;
  u64 st = seed * 0x9E3779B97F4A7C15ull + 11;
  u64 t = 1'200;
  for (int i = 0; i < 6; ++i) {
    t += 400 + NextRand(&st) % 4'000;
    shootdowns.push_back(t);
  }
  for (u32 n : {1u, 2u, 4u}) {
    std::vector<std::vector<u8>> programs;
    for (u32 c = 0; c < n; ++c) {
      // Each vCPU gets its own random body, branch targets rebased to its
      // code window. (Shared program generator: tests/fuzz_util.h.)
      const u64 pseed = seed * 101 + c * 17 + 3;
      if (shape.data_in_code_page) {
        // Each vCPU's window is the tail of the next vCPU's code page, so a
        // store retires a sibling's executing page through the write fan-out
        // and the sibling rebuilds it in place (its own page at N = 1).
        programs.push_back(EncodeDataInCodePageProgram(
            pseed, kIterations, kBodyLen, kCodeBase + c * kSmpCodeStride,
            kCodeBase + ((c + 1) % n) * kSmpCodeStride, /*esp_reset=*/0, shape));
        continue;
      }
      programs.push_back(EncodeLoopedFuzzProgram(pseed, kIterations, kBodyLen,
                                                 kCodeBase + c * kSmpCodeStride,
                                                 kFuzzDataBase, kFuzzDataSpan,
                                                 /*esp_reset=*/0, shape));
    }

    struct ModeSpec {
      bool blocks, trace, decode, dtlb;
      const char* name;
    };
    // Full 16-mode cross at N=1; the block-engine and trace-tier
    // dimensions are spot-checked against the per-instruction and
    // full-oracle configurations at N=2/4 (each extra SMP mode multiplies
    // the interleaved run count).
    const ModeSpec uni_specs[] = {
        {true, true, true, true, "block+trace/fast/fast"},
        {true, true, true, false, "block+trace/fast/oracle"},
        {true, true, false, true, "block+trace/oracle/fast"},
        {true, true, false, false, "block+trace/oracle/oracle"},
        {true, false, true, true, "block/fast/fast"},
        {true, false, true, false, "block/fast/oracle"},
        {true, false, false, true, "block/oracle/fast"},
        {true, false, false, false, "block/oracle/oracle"},
        {false, true, true, true, "insn+trace/fast/fast"},
        {false, true, true, false, "insn+trace/fast/oracle"},
        {false, true, false, true, "insn+trace/oracle/fast"},
        {false, true, false, false, "insn+trace/oracle/oracle"},
        {false, false, true, true, "insn/fast/fast"},
        {false, false, true, false, "insn/fast/oracle"},
        {false, false, false, true, "insn/oracle/fast"},
        {false, false, false, false, "insn/oracle/oracle"}};
    const ModeSpec smp_specs[] = {
        {true, true, true, true, "block+trace/fast/fast"},
        {true, true, true, false, "block+trace/fast/oracle"},
        {true, false, true, true, "block/fast/fast"},
        {true, false, true, false, "block/fast/oracle"},
        {false, true, true, true, "insn+trace/fast/fast"},
        {false, false, true, true, "insn/fast/fast"},
        {false, false, false, false, "insn/oracle/oracle"}};
    const ModeSpec* specs = n == 1 ? uni_specs : smp_specs;
    const int num_specs = n == 1 ? 16 : 7;
    SmpDiffRun ref;
    for (int s = 0; s < num_specs; ++s) {
      SmpDiffRun run = RunSmpDifferential(programs, mode, specs[s].blocks, specs[s].trace,
                                          specs[s].decode, specs[s].dtlb, shootdowns);
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n) +
                   " config " + specs[s].name + " shape " + FuzzShapeName(shape));
      for (u32 c = 0; c < n; ++c) {
        if (specs[s].blocks && specs[s].trace && specs[s].decode) {
          (*demotions)["n" + std::to_string(n) + " " + specs[s].name] +=
              run.cpus[c].trace_demotions;
        } else {
          EXPECT_EQ(run.cpus[c].trace_demotions, 0u) << "the trace tier is inert in this mode";
        }
      }
      if (s == 0) {
        ref = std::move(run);
        for (u32 c = 0; c < n; ++c) {
          EXPECT_GE(ref.cpus[c].instructions, 1'000u)
              << "vCPU " << c << " barely executed — fuzz not meaningful";
        }
        continue;
      }
      ASSERT_EQ(run.cpus.size(), ref.cpus.size());
      for (u32 c = 0; c < n; ++c) {
        SCOPED_TRACE("vcpu " + std::to_string(c));
        const SmpCpuResult& a = run.cpus[c];
        const SmpCpuResult& b = ref.cpus[c];
        EXPECT_EQ(a.final_reason, b.final_reason);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.cycles, b.cycles) << "cycle model diverged";
        ASSERT_EQ(a.faults.size(), b.faults.size()) << "fault streams differ in length";
        for (size_t i = 0; i < a.faults.size(); ++i) {
          EXPECT_TRUE(a.faults[i] == b.faults[i])
              << "fault " << i << " diverged: eip " << std::hex << a.faults[i].eip
              << " vs " << b.faults[i].eip << ", err " << a.faults[i].error_code << " vs "
              << b.faults[i].error_code << ", linear " << a.faults[i].linear << " vs "
              << b.faults[i].linear << std::dec << ", vector "
              << static_cast<int>(a.faults[i].vector) << " vs "
              << static_cast<int>(b.faults[i].vector) << ", at cycle "
              << a.fault_cycles[i] << " vs " << b.fault_cycles[i];
        }
        EXPECT_EQ(a.ctx.eip, b.ctx.eip);
        EXPECT_EQ(a.ctx.eflags, b.ctx.eflags);
        EXPECT_EQ(a.ctx.cpl, b.ctx.cpl);
        for (u8 r = 0; r < kNumRegs; ++r) {
          EXPECT_EQ(a.ctx.regs[r], b.ctx.regs[r]) << "reg " << static_cast<int>(r);
        }
        ASSERT_EQ(a.arch_events.size(), b.arch_events.size())
            << "flight-recorder arch streams differ in length";
        for (size_t i = 0; i < a.arch_events.size(); ++i) {
          EXPECT_TRUE(a.arch_events[i] == b.arch_events[i])
              << "arch event " << i << " diverged";
        }
      }
      ASSERT_EQ(run.memory.size(), ref.memory.size());
      EXPECT_EQ(std::memcmp(run.memory.data(), ref.memory.data(), run.memory.size()), 0)
          << "shared memory images diverged";
    }
  }
}

TEST(SmpDifferential, AllModesAgreePerVcpuUnderSharedMemoryAndShootdowns) {
  // Trace demotions per (N, tier-active mode), summed over seeds and vCPUs.
  std::map<std::string, u64> demotions;
  for (u64 seed = 1; seed <= 6; ++seed) ExpectSmpFuzzAgrees(seed, FuzzShape{}, &demotions);
  EXPECT_EQ(demotions.size(), 6u);  // two tier-active modes for each N
  for (const auto& [mode, count] : demotions) {
    EXPECT_GT(count, 0u) << mode << " never demoted a trace mid-run";
  }
}

// The jump-shape families under the same SMP cross.
TEST(SmpDifferential, JumpShapesAgree) {
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kJumpShapes) {
    for (u64 seed = 1; seed <= 3; ++seed) ExpectSmpFuzzAgrees(seed, shape, &demotions);
  }
}

// The DataInCodePage families under the same SMP cross.
TEST(SmpDifferential, DataInCodePageAgrees) {
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kDataInCodePageShapes) {
    for (u64 seed = 1; seed <= 2; ++seed) ExpectSmpFuzzAgrees(seed, shape, &demotions);
  }
}

// The AllAluForms families under the same SMP cross.
TEST(SmpDifferential, AllAluFormsAgree) {
  std::map<std::string, u64> demotions;
  for (const FuzzShape& shape : kAllAluFormsShapes) {
    for (u64 seed = 1; seed <= 2; ++seed) ExpectSmpFuzzAgrees(seed, shape, &demotions);
  }
}

TEST(Flags, EflagsSurviveInterruptRoundTrip) {
  // Flags are pushed/popped by int/iret; a comparison result must survive a
  // software interrupt.
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
  .global isr
main:
  mov $5, %eax
  cmp $5, %eax          ; ZF := 1
  int $0x40
  je good               ; ZF must still be set
  mov $0, %edi
  hlt
good:
  mov $1, %edi
  hlt
isr:
  mov $7, %eax
  cmp $9, %eax          ; clobber flags inside the handler
  iret
)",
                            0x10000, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  bm.idt().Set(0x40, SegmentDescriptor::MakeInterruptGate(BareMachine::CodeSelector(0).raw(),
                                                          *img->Lookup("isr"), 0));
  bm.Start(*img->Lookup("main"), 0, kStackTop);
  ASSERT_EQ(bm.Run(100'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEdi), 1u);
}

}  // namespace
}  // namespace palladium
