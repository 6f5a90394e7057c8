// Decoded-instruction cache tests: self-modifying code through simulated
// stores and host writes, kernel-style page remaps, fetch-fault fidelity,
// and cache reuse. These pin down the invalidation contract of the fetch
// fast path: stale decodes must never execute, and fetch faults must carry
// the exact faulting linear address.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/asm/assembler.h"
#include "src/hw/bare_machine.h"
#include "src/hw/paging.h"
#include "tests/fuzz_util.h"

namespace palladium {
namespace {

constexpr u32 kCodeBase = 0x10000;
constexpr u32 kStackTop = 0x80000;

StopInfo RunProgram(BareMachine& bm, const std::string& source, u8 cpl = 0,
                    const char* entry = "main") {
  std::string diag;
  auto img = bm.LoadProgram(source, kCodeBase, &diag);
  EXPECT_TRUE(img.has_value()) << diag;
  if (!img) return StopInfo{};
  auto addr = img->Lookup(entry);
  EXPECT_TRUE(addr.has_value()) << "no symbol " << entry;
  bm.Start(*addr, cpl, kStackTop);
  return bm.Run(10'000'000);
}

// The four 32-bit little-endian words of an encoded instruction, as `sti`
// immediates a simulated program can use to patch its own code.
std::array<u32, 4> InsnWords(const Insn& insn) {
  u8 raw[kInsnSize];
  insn.EncodeTo(raw);
  std::array<u32, 4> words{};
  std::memcpy(words.data(), raw, kInsnSize);
  return words;
}

// A program that executes its page (decoding it whole), then overwrites the
// instruction at `target` with `mov $42, %eax` via plain data stores, then
// falls through into the patched instruction. With a stale decode the run
// ends with EAX = 1; with correct invalidation it ends with EAX = 42.
TEST(DecodeCache, SelfModifyingStoreExecutesNewCode) {
  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 42;
  const auto w = InsnWords(patch);
  // Layout: slots 0-4 are mov+4 stores, so `target` sits at slot 5.
  const u32 target = kCodeBase + 5 * kInsnSize;
  char src[512];
  std::snprintf(src, sizeof(src), R"(
  .global main
main:
  mov $0x%x, %%ebx
  sti $0x%x, 0(%%ebx)
  sti $0x%x, 4(%%ebx)
  sti $0x%x, 8(%%ebx)
  sti $0x%x, 12(%%ebx)
target:
  mov $1, %%eax
  hlt
)",
                target, w[0], w[1], w[2], w[3]);

  BareMachine bm;
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 42u);
  const auto& stats = bm.cpu().decode_cache().stats();
  EXPECT_GE(stats.write_invalidations, 1u);  // the stores killed the page
  EXPECT_GE(stats.builds, 2u);               // ... and it was re-decoded
}

// Self-modifying store through the D-TLB fast path: the first store warms
// the D-TLB entry for the code page, so the patch stores execute on the
// inline hit path (host-pointer memcpy + direct decode-cache notification).
// The write observer must fire there too, or the stale decode of `target`
// would execute. This is the regression test for the fast-path/decode-cache
// coupling.
TEST(DecodeCache, DtlbFastPathStoreInvalidatesDecodedPage) {
  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 42;
  const auto w = InsnWords(patch);
  // Layout: slot 0 = mov, slot 1 = warm-up store, slots 2-5 = patch stores,
  // so `target` sits at slot 6.
  const u32 target = kCodeBase + 6 * kInsnSize;
  char src[640];
  std::snprintf(src, sizeof(src), R"(
  .global main
main:
  mov $0x%x, %%ebx
  sti $0, 0x700(%%ebx)   ; same code page: warms the D-TLB (and kills decode)
  sti $0x%x, 0(%%ebx)
  sti $0x%x, 4(%%ebx)
  sti $0x%x, 8(%%ebx)
  sti $0x%x, 12(%%ebx)
target:
  mov $1, %%eax
  hlt
)",
                target, w[0], w[1], w[2], w[3]);

  BareMachine bm;
  bm.cpu().set_dtlb_enabled(true);  // the fast path is the subject here
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 42u);
  // The patch stores must have hit the warm D-TLB entry...
  EXPECT_GE(bm.cpu().dtlb_stats().hits, 4u);
  // ...and every one of them still killed the decoded page.
  const auto& stats = bm.cpu().decode_cache().stats();
  EXPECT_GE(stats.write_invalidations, 2u);
  EXPECT_GE(stats.builds, 2u);
}

// Host-side writes (kernel copy-in, loaders) must invalidate too.
TEST(DecodeCache, HostWriteInvalidatesDecodedPage) {
  BareMachine bm;
  std::string diag;
  auto img = bm.LoadProgram(R"(
  .global main
main:
  mov $1, %eax
  hlt
)",
                            kCodeBase, &diag);
  ASSERT_TRUE(img.has_value()) << diag;
  const u32 main_addr = *img->Lookup("main");

  bm.Start(main_addr, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 1u);

  Insn patch;
  patch.opcode = Opcode::kMovRI;
  patch.r1 = static_cast<u8>(Reg::kEax);
  patch.imm = 2;
  u8 raw[kInsnSize];
  patch.EncodeTo(raw);
  ASSERT_TRUE(bm.pm().WriteBlock(main_addr, raw, kInsnSize));

  bm.Start(main_addr, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 2u);
}

// Kernel-style page remap: the same linear page is re-pointed at a different
// physical frame holding different code. The PTE edit (through the editor's
// invalidation hook, the kernel's INVLPG analogue) must drop the pinned
// fetch mapping; the decode of the *new* frame takes over.
TEST(DecodeCache, KernelRemapExecutesNewCode) {
  BareMachine bm;
  StopInfo stop = RunProgram(bm, R"(
  .global main
main:
  mov $1, %eax
  hlt
)");
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 1u);

  // Build the replacement code, linked for linear kCodeBase but living in a
  // different physical frame.
  const u32 alt_frame = 0x30000;
  std::string diag;
  auto alt = AssembleAndLink(R"(
  .global main
main:
  mov $2, %eax
  hlt
)",
                             kCodeBase, {}, &diag);
  ASSERT_TRUE(alt.has_value()) << diag;
  ASSERT_TRUE(bm.pm().WriteBlock(alt_frame, alt->bytes.data(),
                                 static_cast<u32>(alt->bytes.size())));

  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.SetPte(kCodeBase, MakePte(alt_frame, kPtePresent | kPteWrite | kPteUser)));

  bm.Start(kCodeBase, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().reg(Reg::kEax), 2u);
}

// A present PTE pointing past the end of physical memory: the fetch must
// surface a page fault carrying the instruction's linear address and the
// fetch (I/D) bit — not a detail-free #GP.
TEST(DecodeCache, FetchBeyondPhysicalMemoryIsFaithfulFault) {
  BareMachine bm;
  const u32 bad_linear = 0x700000;
  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.SetPte(bad_linear, MakePte(bm.pm().size(), kPtePresent | kPteWrite)));

  bm.Start(bad_linear, 0, kStackTop);
  StopInfo stop = bm.Run(1000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, bad_linear);
  EXPECT_TRUE(stop.fault.error_code & kPfErrFetch);
  EXPECT_TRUE(stop.fault.error_code & kPfErrPresent);
}

// A fetch that crosses into an unmapped page (possible with an unaligned CS
// base) must report the first unmapped byte as the faulting address.
TEST(DecodeCache, CrossPageFetchFaultReportsFaultingByte) {
  BareMachine bm;
  const u32 boundary = 0x601000;  // first byte of the unmapped page
  PageTableEditor ed(bm.pm(), bm.cpu().cr3(),
                     [&](u32 linear) { bm.cpu().tlb().FlushPage(linear); });
  ASSERT_TRUE(ed.Unmap(boundary));

  // CS with base 8: linear fetches are misaligned, so the instruction at
  // EIP = boundary - 16 spans [boundary - 8, boundary + 8).
  bm.Start(0, 0, kStackTop);
  bm.gdt().Set(BareMachine::kFirstFreeIdx, SegmentDescriptor::MakeCode(8, 0xFFFFFFFFu, 0));
  ASSERT_TRUE(bm.cpu().ForceSegment(
      SegReg::kCs, Selector::FromIndex(BareMachine::kFirstFreeIdx, 0)));
  bm.cpu().set_eip(boundary - 16);

  StopInfo stop = bm.Run(1000);
  ASSERT_EQ(stop.reason, StopReason::kFault);
  EXPECT_EQ(stop.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(stop.fault.linear_address, boundary);
  EXPECT_FALSE(stop.fault.error_code & kPfErrPresent);
  EXPECT_TRUE(stop.fault.error_code & kPfErrFetch);  // I/D bit on walk faults too
}

// Steady-state execution decodes each text page exactly once.
TEST(DecodeCache, DecodedPageReusedAcrossRuns) {
  BareMachine bm;
  const std::string src = R"(
  .global main
main:
  mov $1000, %ecx
loop:
  dec %ecx
  cmp $0, %ecx
  jne loop
  hlt
)";
  StopInfo stop = RunProgram(bm, src);
  ASSERT_EQ(stop.reason, StopReason::kHalted);
  const u64 builds_after_first = bm.cpu().decode_cache().stats().builds;
  EXPECT_GE(builds_after_first, 1u);

  bm.Start(kCodeBase, 0, kStackTop);
  ASSERT_EQ(bm.Run(10'000'000).reason, StopReason::kHalted);
  EXPECT_EQ(bm.cpu().decode_cache().stats().builds, builds_after_first);
}

// --- Rebuilding a retired page in place -----------------------------------------
// A page retired by a write is rebuilt from the image it was decoded from at
// the next GetOrBuild of the same frame: only changed slots are decoded
// again. The one property the fast path keeps is that the result equals a
// fresh build of the same bytes, field for field.

// The first field in which two decoded slots differ, or "" if none does.
std::string SlotDiff(const DecodedInsn& a, const DecodedInsn& b) {
#define PALLADIUM_CMP(field) \
  if (a.field != b.field) return #field
  PALLADIUM_CMP(state);
  PALLADIUM_CMP(fault_offset);
  PALLADIUM_CMP(seg_idx);
  PALLADIUM_CMP(is_stack);
  PALLADIUM_CMP(dispatch);
  PALLADIUM_CMP(run_len);
  PALLADIUM_CMP(cost);
  PALLADIUM_CMP(run_cost_max);
  PALLADIUM_CMP(hot);
  PALLADIUM_CMP(trace);
  PALLADIUM_CMP(insn.opcode);
  PALLADIUM_CMP(insn.seg);
  PALLADIUM_CMP(insn.r1);
  PALLADIUM_CMP(insn.r2);
  PALLADIUM_CMP(insn.r3);
  PALLADIUM_CMP(insn.scale);
  PALLADIUM_CMP(insn.size);
  PALLADIUM_CMP(insn.imm);
  PALLADIUM_CMP(insn.disp);
#undef PALLADIUM_CMP
  return "";
}

// A decode cache observing its own physical memory, as a CPU's does.
struct CacheRig {
  PhysicalMemory pm;
  CycleModel::CostTable costs = CycleModel::Measured().BuildCostTable();
  DecodeCache cache;

  explicit CacheRig(u32 mem_bytes = 1u << 20) : pm(mem_bytes) {
    cache.set_cost_table(&costs);
    pm.AddWriteObserver(&cache);
  }
  ~CacheRig() { pm.RemoveWriteObserver(&cache); }
  CacheRig(const CacheRig&) = delete;  // pm holds &cache
  CacheRig& operator=(const CacheRig&) = delete;

  void Put(u32 addr, const Insn& insn) {
    u8 raw[kInsnSize];
    insn.EncodeTo(raw);
    ASSERT_TRUE(pm.WriteBlock(addr, raw, kInsnSize));
  }
};

// Every slot of `got` against a fresh cache's build of the same frame.
void ExpectEqualsFreshBuild(const DecodeCache::Page& got, const PhysicalMemory& pm,
                            const CycleModel::CostTable& costs, u32 frame) {
  DecodeCache fresh;
  fresh.set_cost_table(&costs);
  const DecodeCache::Page* want = fresh.GetOrBuild(pm, frame);
  EXPECT_TRUE(got.traces.empty()) << "a rebuilt page must drop its traces";
  for (u32 s = 0; s < DecodeCache::kSlotsPerPage; ++s) {
    EXPECT_EQ(SlotDiff(got.slots[s], want->slots[s]), "") << "slot " << s;
  }
}

Insn MakeInsn(Opcode op, u8 r1 = 0, i32 imm = 0) {
  Insn in;
  in.opcode = op;
  in.r1 = r1;
  in.imm = imm;
  in.disp = 0x20000;
  return in;
}

// The base page: a straight-line run of mixed ALU and memory instructions
// long enough to hit the kMaxBlockInsns cap (slots 0-199), one jmp (slot
// 120), an undecodable slot (150, 0xFF bytes), and zero data bytes from
// slot 200 on (zero bytes do not decode: size 0 is invalid).
void WriteBasePage(CacheRig& rig, u32 frame) {
  const Opcode ops[] = {Opcode::kAddRI, Opcode::kLoad, Opcode::kXorRI, Opcode::kStore,
                        Opcode::kIncR, Opcode::kImulRI};
  for (u32 s = 0; s < 200; ++s) {
    rig.Put(frame + s * kInsnSize, MakeInsn(ops[s % 6], static_cast<u8>(s % 4), 3));
  }
  rig.Put(frame + 120 * kInsnSize, MakeInsn(Opcode::kJmp, 0, static_cast<i32>(frame)));
  u8 junk[kInsnSize];
  std::memset(junk, 0xFF, sizeof junk);
  ASSERT_TRUE(rig.pm.WriteBlock(frame + 150 * kInsnSize, junk, kInsnSize));
}

// Builds the frame, heats a few slots and attaches a trace placeholder, lets
// `patch` write the frame, and checks the rebuild: taken from the retired
// page, `expect_decoded` slots decoded again, equal to a fresh build.
template <typename Patch>
void ExpectRebuildEqualsFresh(CacheRig& rig, u32 frame, u64 expect_decoded, Patch patch) {
  DecodeCache::Page* page = rig.cache.GetOrBuild(rig.pm, frame);
  for (u32 s = 0; s < DecodeCache::kSlotsPerPage; s += 7) {
    page->slots[s].hot = static_cast<u16>(s + 1);
    page->slots[s].trace = static_cast<u16>(s % 3);
  }
  page->traces.emplace_back();  // stands in for a lowered trace
  const DecodeCache::Stats before = rig.cache.stats();
  patch();
  DecodeCache::Page* rebuilt = rig.cache.GetOrBuild(rig.pm, frame);
  const DecodeCache::Stats& after = rig.cache.stats();
  EXPECT_EQ(after.write_invalidations, before.write_invalidations + 1);
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.recycled, before.recycled + 1);
  EXPECT_EQ(rebuilt, page) << "the retired page is rebuilt in place";
  EXPECT_EQ(after.slots_decoded - before.slots_decoded, expect_decoded);
  ExpectEqualsFreshBuild(*rebuilt, rig.pm, rig.costs, frame);
}

TEST(DecodeCacheRebuild, RecycledPageEqualsFreshBuild) {
  constexpr u32 kFrame = 0x10000;
  auto slot = [](u32 s) { return kFrame + s * kInsnSize; };
  struct Case {
    const char* name;
    u64 decoded;
    std::function<void(CacheRig&)> patch;
  };
  const std::vector<Case> cases = {
      {"data-only slot", 1,
       [&](CacheRig& r) { ASSERT_TRUE(r.pm.Write32(slot(230) + 4, 0xDEADBEEF)); }},
      // Slot 100 sits 62 slots past slot 38, whose capped run's last
      // interior slot it is: changing its cost moves run_cost_max back there.
      {"mid-run code slot", 1,
       [&](CacheRig& r) { r.Put(slot(100), MakeInsn(Opcode::kStore, 1, 0)); }},
      {"inserted terminator", 1,
       [&](CacheRig& r) { r.Put(slot(100), MakeInsn(Opcode::kJne, 0, kFrame)); }},
      {"removed terminator", 1,
       [&](CacheRig& r) { r.Put(slot(120), MakeInsn(Opcode::kAddRI, 2, 9)); }},
      {"undecodable to decodable", 1,
       [&](CacheRig& r) { r.Put(slot(150), MakeInsn(Opcode::kLoad, 3, 0)); }},
      {"slot 255", 1, [&](CacheRig& r) { r.Put(slot(255), MakeInsn(Opcode::kAddRI, 1, 1)); }},
      {"slot 0 and slot 254", 2,
       [&](CacheRig& r) {
         r.Put(slot(0), MakeInsn(Opcode::kHlt));
         r.Put(slot(254), MakeInsn(Opcode::kLoad, 2, 0));
       }},
      {"same bytes rewritten", 0,
       [&](CacheRig& r) {
         u8 raw[kInsnSize];
         ASSERT_TRUE(r.pm.ReadBlock(slot(10), raw, kInsnSize));
         ASSERT_TRUE(r.pm.WriteBlock(slot(10), raw, kInsnSize));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CacheRig rig;
    WriteBasePage(rig, kFrame);
    ExpectRebuildEqualsFresh(rig, kFrame, c.decoded, [&] { c.patch(rig); });
  }
}

// The last frame of a physical memory that ends 8 bytes into slot 128:
// slots 0-127 decode, slot 128 is a bus error at offset 8, the rest at 0.
// A patch below the end rebuilds in place; the bus-error slots stay exact.
TEST(DecodeCacheRebuild, BusErrorTailFrameEqualsFreshBuild) {
  constexpr u32 kFrame = 0x10000;
  CacheRig rig(kFrame + 128 * kInsnSize + 8);
  for (u32 s = 0; s < 128; ++s) {
    rig.Put(kFrame + s * kInsnSize, MakeInsn(s % 9 == 8 ? Opcode::kJe : Opcode::kAddRI, 1, 5));
  }
  const DecodeCache::Page* first = rig.cache.GetOrBuild(rig.pm, kFrame);
  EXPECT_EQ(first->slots[128].state, DecodedInsn::State::kBusError);
  EXPECT_EQ(first->slots[128].fault_offset, 8u);
  ExpectRebuildEqualsFresh(rig, kFrame, 1, [&] {
    rig.Put(kFrame + 127 * kInsnSize, MakeInsn(Opcode::kLoad, 2, 0));
  });
}

// Random patches, one after another on the same recycled page: random
// instructions (terminators included) and random junk over random slots,
// each rebuild compared with a fresh build. Catches a relink window that is
// off by a slot anywhere in the page.
TEST(DecodeCacheRebuild, RandomPatchSequenceEqualsFreshBuild) {
  constexpr u32 kFrame = 0x10000;
  CacheRig rig;
  WriteBasePage(rig, kFrame);
  const Opcode ops[] = {Opcode::kAddRI, Opcode::kLoad, Opcode::kStore, Opcode::kJmp,
                        Opcode::kJe,    Opcode::kRet,  Opcode::kHlt,   Opcode::kPushR};
  u64 state = 12345;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const u32 patches = 1 + NextRand(&state) % 3;
    u64 decoded = 0;
    rig.cache.GetOrBuild(rig.pm, kFrame);
    const u64 before = rig.cache.stats().slots_decoded;
    std::vector<bool> changed(DecodeCache::kSlotsPerPage, false);
    for (u32 p = 0; p < patches; ++p) {
      const u32 s = NextRand(&state) % DecodeCache::kSlotsPerPage;
      u8 old_raw[kInsnSize], raw[kInsnSize];
      ASSERT_TRUE(rig.pm.ReadBlock(kFrame + s * kInsnSize, old_raw, kInsnSize));
      if (NextRand(&state) % 5 == 0) {
        for (u8& b : raw) b = static_cast<u8>(NextRand(&state));
      } else {
        MakeInsn(ops[NextRand(&state) % 8], static_cast<u8>(NextRand(&state) % 4), 7)
            .EncodeTo(raw);
      }
      ASSERT_TRUE(rig.pm.WriteBlock(kFrame + s * kInsnSize, raw, kInsnSize));
      if (std::memcmp(old_raw, raw, kInsnSize) != 0) changed[s] = true;
    }
    for (bool c : changed) decoded += c ? 1 : 0;
    DecodeCache::Page* page = rig.cache.GetOrBuild(rig.pm, kFrame);
    EXPECT_LE(rig.cache.stats().slots_decoded - before, patches);
    EXPECT_GE(rig.cache.stats().slots_decoded - before, decoded > 0 ? 1u : 0u);
    ExpectEqualsFreshBuild(*page, rig.pm, rig.costs, kFrame);
    if (HasFailure()) break;
  }
  EXPECT_GT(rig.cache.stats().recycled, 250u);
}

// A cost-model change makes every retired page's cost annotations stale, so
// none of them may be rebuilt in place: neither a page a write retired just
// before the change nor one InvalidateAll itself retires.
TEST(DecodeCacheRebuild, CostModelChangeNeverRecycles) {
  constexpr u32 kFrame = 0x10000;
  CacheRig rig;
  WriteBasePage(rig, kFrame);
  rig.cache.GetOrBuild(rig.pm, kFrame);
  CycleModel theory = CycleModel::TheoryPentium();
  theory.alu += 3;  // every ALU slot's cost differs from the measured model's
  const CycleModel::CostTable theory_costs = theory.BuildCostTable();

  // Retired by a write, then the cost model changes before the next fetch.
  rig.Put(kFrame + 230 * kInsnSize, MakeInsn(Opcode::kNop));
  rig.costs = theory_costs;
  rig.cache.InvalidateAll();
  DecodeCache::Page* page = rig.cache.GetOrBuild(rig.pm, kFrame);
  EXPECT_EQ(rig.cache.stats().recycled, 0u);
  EXPECT_EQ(rig.cache.stats().slots_decoded, 2u * DecodeCache::kSlotsPerPage);
  ExpectEqualsFreshBuild(*page, rig.pm, rig.costs, kFrame);

  // Retired by InvalidateAll itself, then written before the next fetch.
  rig.costs = CycleModel::Measured().BuildCostTable();
  rig.cache.InvalidateAll();
  rig.Put(kFrame + 231 * kInsnSize, MakeInsn(Opcode::kNop));
  page = rig.cache.GetOrBuild(rig.pm, kFrame);
  EXPECT_EQ(rig.cache.stats().recycled, 0u);
  ExpectEqualsFreshBuild(*page, rig.pm, rig.costs, kFrame);

  // A write-retired page with no cost change in between is rebuilt in place.
  rig.Put(kFrame + 232 * kInsnSize, MakeInsn(Opcode::kNop));
  page = rig.cache.GetOrBuild(rig.pm, kFrame);
  EXPECT_EQ(rig.cache.stats().recycled, 1u);
  ExpectEqualsFreshBuild(*page, rig.pm, rig.costs, kFrame);
}

// The engine configurations a CPU can run in, each with the D-TLB on and off.
struct EngineMode {
  bool blocks, trace, decode, dtlb;
  const char* name;
};
constexpr EngineMode kEngineModes[] = {
    {true, true, true, true, "trace/dtlb"},   {true, true, true, false, "trace/oracle"},
    {true, false, true, true, "block/dtlb"},  {true, false, true, false, "block/oracle"},
    {false, false, true, true, "insn/dtlb"},  {false, false, true, false, "insn/oracle"},
    {false, false, false, true, "oracle/dtlb"}, {false, false, false, false, "oracle/oracle"}};

void ConfigureEngine(BareMachine& bm, const EngineMode& m) {
  bm.cpu().set_block_engine_enabled(m.blocks);
  bm.cpu().set_trace_engine_enabled(m.trace);
  bm.cpu().set_decode_cache_enabled(m.decode);
  bm.cpu().set_dtlb_enabled(m.dtlb);
}

// The shape of a protected call's prepare stub: save slots in slot 0 of the
// code page, code from +64, and a loop that stores into those slots on
// every iteration — one store of a changing value (ECX), one of an
// unchanging one (EBP). Every store retires the page; each rebuild decodes
// again only slot 0, and only when its bytes changed. The architectural
// result matches the full oracle in every engine x D-TLB mode.
TEST(DecodeCacheRebuild, PrepareStubShapeRedecodesChangedSlotsOnly) {
  constexpr u32 kIterations = 500;
  char src[768];
  std::snprintf(src, sizeof(src), R"(
  .global main
save:
  .space 64
main:
  mov $%u, %%ecx
  mov $0x%x, %%ebx
  mov $7, %%ebp
loop:
  st %%ecx, 0(%%ebx)
  st %%ebp, 4(%%ebx)
  add %%ecx, %%eax
  xor $5, %%eax
  ld 0(%%ebx), %%edx
  add %%edx, %%eax
  dec %%ecx
  cmp $0, %%ecx
  jne loop
  hlt
)",
                kIterations, kCodeBase);
  struct Result {
    std::array<u32, kNumRegs> regs;
    u64 cycles, insns;
    std::vector<u8> memory;
  };
  std::vector<Result> results;
  for (const EngineMode& mode : kEngineModes) {
    SCOPED_TRACE(mode.name);
    BareMachine bm;
    ConfigureEngine(bm, mode);
    StopInfo stop = RunProgram(bm, src);
    ASSERT_EQ(stop.reason, StopReason::kHalted);
    Result r;
    for (u8 i = 0; i < kNumRegs; ++i) r.regs[i] = bm.cpu().reg(static_cast<Reg>(i));
    r.cycles = bm.cpu().cycles();
    r.insns = bm.cpu().instructions_retired();
    r.memory.assign(bm.pm().HostData(), bm.pm().HostData() + bm.pm().size());
    results.push_back(std::move(r));
    const DecodeCache::Stats& st = bm.cpu().decode_cache().stats();
    if (!mode.decode) {
      EXPECT_EQ(st.builds, 0u);
      continue;
    }
    // Two stores per iteration, each retiring the page the loop runs on.
    EXPECT_GE(st.write_invalidations, 2u * kIterations);
    EXPECT_EQ(st.builds, st.recycled + 1) << "only the first build is fresh";
    // One full page for the first build, then slot 0 once per iteration
    // (the ECX store changes it) and once more for the first EBP store;
    // every later EBP store rewrites the same bytes.
    EXPECT_EQ(st.slots_decoded, DecodeCache::kSlotsPerPage + kIterations + 1);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(kEngineModes[i].name);
    EXPECT_EQ(results[i].regs, results.back().regs);
    EXPECT_EQ(results[i].cycles, results.back().cycles);
    EXPECT_EQ(results[i].insns, results.back().insns);
    EXPECT_TRUE(results[i].memory == results.back().memory) << "memory images diverged";
  }
}

// A hot trace on a page that is then rebuilt in place dies with it: the
// rebuilt page starts cold, exactly like a fresh build. The program runs a
// long loop (its trace loops in place and passes probation) and a short
// one whose traces exit on most calls (demoted after probation), then
// halts; at each halt the host writes a data word on the program's code
// page, as a kernel copy-in would, and resumes. The reference run also
// reloads the same cost model at each halt, after which the retired page
// is never a rebuild candidate: every build there is fresh. Promotions,
// demotions, trace entries and the architectural result must match.
TEST(DecodeCacheRebuild, HotTraceDiesWithRecycledPage) {
  const std::string src = R"(
  .global main
main:
  mov $12, %esi
outer:
  mov %esi, %ecx
  add $20, %ecx
long_loop:
  add $3, %eax
  xor $5, %eax
  add %ecx, %eax
  add $1, %edx
  xor %eax, %edx
  add $7, %eax
  add %edx, %eax
  xor $9, %edx
  add $2, %eax
  add $3, %edx
  dec %ecx
  cmp $0, %ecx
  jne long_loop
  mov $200, %ecx
short_loop:
  dec %ecx
  test $1, %ecx
  je skip
  add $1, %eax
skip:
  cmp $0, %ecx
  jne short_loop
  hlt
  dec %esi
  cmp $0, %esi
  jne outer
  hlt
  .space 32
data:
  .space 16
)";
  struct Result {
    Cpu::TraceStats trace;
    u64 cycles, recycled;
    u32 eax, edx;
  };
  auto run = [&](bool fresh_builds) {
    BareMachine bm;
    ConfigureEngine(bm, kEngineModes[0]);
    std::string diag;
    auto img = bm.LoadProgram(src, kCodeBase, &diag);
    EXPECT_TRUE(img.has_value()) << diag;
    if (!img) return Result{};
    const u32 data = *img->Lookup("data");
    EXPECT_EQ(PageNumber(data), PageNumber(kCodeBase)) << "data must share the code page";
    bm.Start(*img->Lookup("main"), 0, kStackTop);
    StopInfo stop = bm.Run(10'000'000);
    int halts = 1;
    while (stop.reason == StopReason::kHalted && bm.cpu().reg(Reg::kEsi) != 0 && halts < 100) {
      EXPECT_TRUE(bm.pm().Write32(data, static_cast<u32>(halts)));
      if (fresh_builds) bm.cpu().set_cycle_model(bm.cpu().cycle_model());
      stop = bm.Run(10'000'000);
      ++halts;
    }
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(halts, 13) << "one halt per outer iteration and the final one";
    return Result{bm.cpu().trace_stats(), bm.cpu().cycles(),
                  bm.cpu().decode_cache().stats().recycled, bm.cpu().reg(Reg::kEax),
                  bm.cpu().reg(Reg::kEdx)};
  };
  const Result recycled = run(false);
  const Result fresh = run(true);
  EXPECT_EQ(recycled.recycled, 12u) << "one rebuild in place per host write";
  EXPECT_EQ(fresh.recycled, 0u);
  EXPECT_GT(recycled.trace.promotions, 24u) << "the loops must heat up after every rebuild";
  EXPECT_GT(recycled.trace.demotions, 12u) << "the short loop's traces must be demoted";
  EXPECT_EQ(recycled.trace.promotions, fresh.trace.promotions);
  EXPECT_EQ(recycled.trace.demotions, fresh.trace.demotions);
  EXPECT_EQ(recycled.trace.entries, fresh.trace.entries);
  EXPECT_EQ(recycled.trace.uop_insns, fresh.trace.uop_insns);
  EXPECT_EQ(recycled.cycles, fresh.cycles);
  EXPECT_EQ(recycled.eax, fresh.eax);
  EXPECT_EQ(recycled.edx, fresh.edx);
}

}  // namespace
}  // namespace palladium
