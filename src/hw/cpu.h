// The simulated CPU: fetch/decode/execute with full segment-level and
// page-level protection checks on every memory access, call gates with TSS
// stack switching, far returns to outer privilege levels, and software
// interrupts — i.e. exactly the IA-32 machinery of Section 3 of the paper.
//
// The kernel model is host C++ code; control enters it whenever the CPU
// would fetch from the "host entry" linear range (interrupt-gate and
// call-gate targets for kernel services point there). Faults likewise stop
// execution and surface to the host, which is the fault handler.
#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <array>
#include <vector>

#include "src/hw/cycle_model.h"
#include "src/hw/dtlb.h"
#include "src/hw/fault.h"
#include "src/hw/physical_memory.h"
#include "src/hw/segment.h"
#include "src/hw/tlb.h"
#include "src/hw/types.h"
#include "src/isa/decode_cache.h"
#include "src/isa/insn.h"

namespace palladium {

// Why Run()/Step() stopped.
enum class StopReason : u8 {
  kHalted,      // HLT executed
  kFault,       // processor exception; see StopInfo::fault
  kHostCall,    // control reached a host entry point (gate into kernel C++)
  kCycleLimit,  // cycle budget exhausted (the kernel's timer-limit hook)
};

struct StopInfo {
  StopReason reason = StopReason::kHalted;
  Fault fault;
  u32 host_call_id = 0;  // valid when reason == kHostCall
};

// Task State Segment (the parts Palladium uses): one stack pointer per
// privilege level 0..2. Level 3's stack needs no TSS slot (Section 3.2).
struct Tss {
  std::array<u16, 3> ss{};
  std::array<u32, 3> esp{};
};

// A loaded segment register: selector plus the descriptor shadow copy, as on
// real hardware (later GDT edits do not affect already-loaded registers).
struct LoadedSegment {
  Selector selector;
  SegmentDescriptor cache;
  bool valid = false;
};

// Full architectural register state, for host-side context switching.
struct CpuContext {
  std::array<u32, kNumRegs> regs{};
  u32 eip = 0;
  u32 eflags = 0;
  u8 cpl = 0;
  std::array<LoadedSegment, kNumSegRegs> segs{};
};

// The EFLAGS bit constants (kFlagCf, kFlagZf, kFlagSf, kFlagIf, kFlagOf)
// live in src/isa/uop.h — next to the lazy-flags materialization that
// reconstructs them — and arrive here through decode_cache.h.

class IrqHub;

namespace obs {
class CycleProfile;
class FlightRecorder;
}  // namespace obs

class Cpu {
 public:
  Cpu(PhysicalMemory& pm, DescriptorTable& gdt, DescriptorTable& idt,
      CycleModel model = CycleModel::Measured());

  // --- Architectural state -------------------------------------------------
  u32 reg(Reg r) const { return regs_[static_cast<u8>(r)]; }
  void set_reg(Reg r, u32 v) { regs_[static_cast<u8>(r)] = v; }
  u32 eip() const { return eip_; }
  void set_eip(u32 v) { eip_ = v; }
  u8 cpl() const { return cpl_; }
  u32 eflags() const { return eflags_; }
  void set_eflags(u32 v) { eflags_ = v; }

  u32 cr3() const { return cr3_; }
  // Loading CR3 flushes the TLB, as on the real hardware.
  void LoadCr3(u32 cr3) {
    cr3_ = cr3;
    tlb_.Flush();
  }

  Tss& tss() { return tss_; }
  const LoadedSegment& seg(SegReg s) const { return segs_[static_cast<u8>(s)]; }

  // Privilege-checked segment load (the semantics of `mov %r, %seg`).
  // On failure records the fault in *fault and returns false.
  bool LoadSegmentChecked(SegReg sr, Selector sel, Fault* fault);

  // Host-level (kernel) state setup: loads a segment register with explicit
  // descriptor-table lookup but no privilege checks, and for CS also sets
  // CPL from the selector RPL. Used when the kernel dispatches to user code,
  // extensions, or signal handlers.
  bool ForceSegment(SegReg sr, Selector sel);
  void set_cpl(u8 cpl) { cpl_ = cpl; }

  CpuContext SaveContext() const;
  void RestoreContext(const CpuContext& ctx);

  // --- Execution ------------------------------------------------------------
  // Runs until HLT, fault, host call, or the *cumulative* cycle counter
  // reaches `cycle_limit` (pass ~0ull for no limit).
  StopInfo Run(u64 cycle_limit = ~0ull);

  u64 cycles() const { return cycles_; }
  void set_cycles(u64 c) { cycles_ = c; }
  u64 instructions_retired() const { return instructions_; }
  const Tlb::Stats& tlb_stats() const { return tlb_.stats(); }
  Tlb& tlb() { return tlb_; }
  DecodeCache& decode_cache() { return dcache_; }
  const DecodeCache& decode_cache() const { return dcache_; }
  // Disables the decoded-page fetch fast path (every fetch translates all 16
  // instruction bytes and re-decodes). Exists so benches can measure the
  // pre-cache baseline; correctness is identical either way. Implies the
  // block engine is off too (blocks execute out of decoded pages).
  void set_decode_cache_enabled(bool enabled) { decode_cache_enabled_ = enabled; }
  // Disables the superblock engine: Run falls back to the PR 2
  // per-instruction fast path (decode cache + D-TLB, dispatched one
  // instruction at a time). The per-instruction path is the block engine's
  // differential oracle — registers, memory, cycle counts, TLB stats, fault
  // and interrupt streams are byte-identical either way. Env analogue:
  // PALLADIUM_NO_BLOCKS=1.
  void set_block_engine_enabled(bool enabled) { block_engine_enabled_ = enabled; }
  bool block_engine_enabled() const { return block_engine_enabled_; }

  // Block-engine observability: how often Run entered block dispatch, how
  // many instructions retired inside it, and how many taken branches chained
  // directly block-to-block without leaving the dispatch loop.
  struct BlockStats {
    u64 entries = 0;  // block dispatch activations from the outer loop
    u64 insns = 0;    // instructions retired inside block dispatch
    u64 chains = 0;   // direct block->block transfers (same-page branches)
  };
  const BlockStats& block_stats() const { return block_stats_; }

  // Disables the hot-trace translation tier: block dispatch never promotes
  // runs to micro-op traces and executes every slot through the per-opcode
  // handlers. The block engine is the trace tier's in-binary differential
  // oracle — registers, memory, cycle counts, TLB stats, fault and
  // interrupt streams are byte-identical either way. Env analogue:
  // PALLADIUM_NO_TRACE=1. Effective only while the block engine runs.
  void set_trace_engine_enabled(bool enabled) { trace_engine_enabled_ = enabled; }
  bool trace_engine_enabled() const { return trace_engine_enabled_; }

  // Promotion threshold: run-head executions before lowering. High enough
  // that cold code never pays the lowering cost, low enough that any loop
  // worth measuring gets promoted almost immediately.
  static constexpr u16 kTraceHotThreshold = 16;
  // Admission by yield. A trace's first kTraceProbation executor calls are
  // its probation. If they retired fewer than kTraceMinYield instructions
  // per call (in-place loop-backs included), entry and exit cost more than
  // the micro-ops save, and the run goes back to the block engine until its
  // page is rebuilt. kTraceMinYield is the measured break-even of a trace
  // that leaves through its Jcc terminator, the costlier exit (README,
  // "Admission by yield"). kTraceProbation equals the hot threshold: a doomed
  // trace runs at most that many losing calls, about twice its lowering cost.
  static constexpr u32 kTraceProbation = 16;
  static constexpr u32 kTraceMinYield = 12;

  // Trace-tier observability: promotion/elision rates, so regressions in
  // the optimizations themselves (not just end-to-end sim-MIPS) are
  // measurable.
  struct TraceStats {
    u64 promotions = 0;             // runs lowered to micro-op traces
    u64 entries = 0;                // trace-body executions begun
    u64 uop_insns = 0;              // instructions retired inside trace bodies
    u64 flag_materializations = 0;  // lazy EFLAGS computed at an exit
    u64 probes_elided = 0;          // D-TLB probes answered by a live pin
    u64 demotions = 0;              // traces sent back to blocks for low yield
    u64 side_exits = 0;             // calls left through a taken mid-trace jcc
  };
  const TraceStats& trace_stats() const { return trace_stats_; }

  DTlb& dtlb() { return dtlb_; }
  const DTlb::Stats& dtlb_stats() const { return dtlb_.stats(); }
  // Disables the data-access fast path (every load/store/push/pop goes back
  // to the per-byte translate loop). The slow path is the differential
  // oracle: architectural state, memory image, cycle counts and fault
  // streams are identical either way.
  void set_dtlb_enabled(bool enabled) { dtlb_enabled_ = enabled; }
  bool dtlb_enabled() const { return dtlb_enabled_; }

  // Host-side (kernel) copies through the D-TLB: probe-only supervisor
  // access to one page's worth of current-address-space memory. Never fills,
  // never charges cycles, never faults — returns false on a miss (or when
  // the span leaves the page / the fast path is disabled) and the caller
  // falls back to its page-table walk. Writes fire the physical-memory
  // write observer exactly like PhysicalMemory::WriteBlock.
  bool DtlbHostRead(u32 linear, void* dst, u32 len);
  bool DtlbHostWrite(u32 linear, const void* src, u32 len);
  const CycleModel& cycle_model() const { return model_; }
  void set_cycle_model(const CycleModel& m) {
    model_ = m;
    RebuildCostTable();
  }

  // --- Hardware interrupts ----------------------------------------------------
  // Attaching a hub makes the CPU poll for pending IRQs at instruction-
  // retire boundaries (and only there), keyed off the cycle counter — so
  // delivery points are deterministic and identical with the decode-cache /
  // D-TLB fast paths on or off. Delivery requires EFLAGS.IF; entering an
  // interrupt gate clears IF and IRET restores it, as on the hardware.
  void set_irq_hub(IrqHub* hub) { irq_hub_ = hub; }
  IrqHub* irq_hub() const { return irq_hub_; }

  // One record per delivered hardware interrupt, for differential harnesses
  // (the "interrupt stream" analogue of the fault stream).
  struct IrqEvent {
    u8 vector = 0;
    u8 cpl = 0;      // privilege level the interrupt arrived at
    u32 eip = 0;     // EIP of the interrupted boundary
    u64 cycle = 0;   // cycle counter at delivery
    bool operator==(const IrqEvent& o) const {
      return vector == o.vector && cpl == o.cpl && eip == o.eip && cycle == o.cycle;
    }
  };
  // Enables tracing into caller-owned storage (nullptr disables).
  void set_irq_trace(std::vector<IrqEvent>* trace) { irq_trace_ = trace; }

  // --- Observability (optional, pure observers) ------------------------------
  // A flight recorder receives IRQ-delivery events (kArch class) and
  // trace-tier compile/invalidate/demote events (kEngine class) on `track`;
  // a cycle profiler is switched to Category::kIrq at hardware-interrupt
  // delivery.
  // Both only *read* the cycle/stat counters — attaching them cannot perturb
  // execution, so every differential mode stays byte-identical with
  // telemetry on. nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder, u32 track) {
    recorder_ = recorder;
    obs_track_ = track;
  }
  void set_profiler(obs::CycleProfile* profiler, u32 cpu_index) {
    profiler_ = profiler;
    obs_track_ = cpu_index;
  }

  // Host entry range: instruction fetches whose *linear* address lands in
  // [base, base+size) stop execution with kHostCall and
  // host_call_id = (linear - base) / kInsnSize.
  void SetHostCallRange(u32 base, u32 size) {
    host_base_ = base;
    host_size_ = size;
  }
  u32 host_call_base() const { return host_base_; }

  // Stack helpers running with the current SS:ESP and full checks; used by
  // the host kernel to build and consume frames (signal delivery, returns).
  bool Push32(u32 v, Fault* fault);
  bool Pop32(u32* v, Fault* fault);

  // Checked virtual-memory access through a segment register, as an
  // executing instruction would perform it. Exposed for the kernel model.
  bool ReadVirt(SegReg sr, u32 offset, u32 size, u32* out, Fault* fault);
  bool WriteVirt(SegReg sr, u32 offset, u32 size, u32 value, Fault* fault);

  ~Cpu();

 private:
  friend class CpuTestPeer;

  // --- Shared per-opcode execution core --------------------------------------
  // What an instruction handler reports back to its dispatch loop.
  enum class ExecStatus : u8 {
    kNext,   // sequential: EIP already advanced past the instruction
    kJump,   // near transfer retired: EIP holds the target, CS unchanged
    kFar,    // far transfer retired: CS/CPL/EFLAGS.IF may have changed
    kFault,  // ctx.fault filled; caller restores EIP and stops
    kHalt,   // HLT retired at CPL 0
  };
  struct ExecCtx {
    Fault fault;
    u32 extra_cycles = 0;  // far-transfer privilege premium
    bool taken = false;    // conditional branch taken (picks the taken cost)
  };
  // The ONE implementation of every opcode's semantics, specialized per
  // opcode at compile time. StepOne's switch and RunBlock's threaded
  // dispatch both expand to calls of these, so the per-instruction oracle
  // and the block engine cannot diverge semantically by construction.
  template <Opcode kOp>
  static ExecStatus ExecOp(Cpu& c, const DecodedInsn& d, ExecCtx& ctx);

  bool cf() const { return eflags_ & kFlagCf; }
  bool zf() const { return eflags_ & kFlagZf; }
  bool sf() const { return eflags_ & kFlagSf; }
  bool of() const { return eflags_ & kFlagOf; }
  void SetFlags(bool cf, bool zf, bool sf, bool of) {
    eflags_ = (eflags_ & ~(kFlagCf | kFlagZf | kFlagSf | kFlagOf)) | (cf ? kFlagCf : 0) |
              (zf ? kFlagZf : 0) | (sf ? kFlagSf : 0) | (of ? kFlagOf : 0);
  }
  void SetLogicFlags(u32 result) { SetFlags(false, result == 0, (result >> 31) & 1, false); }

  // One instruction. Returns false when execution must stop (*stop filled).
  bool StepOne(StopInfo* stop);

  // The superblock engine: executes decoded basic-block runs with threaded
  // dispatch and direct block->block chaining, preserving per-instruction
  // retire-boundary semantics exactly (see cpu.cc).
  enum class BlockExit : u8 {
    kNoBlock,  // could not enter block dispatch here; caller single-steps
    kYield,    // retired >= 0 instructions; re-run the outer boundary checks
    kStopped,  // *stop filled (fault / halt)
  };
  BlockExit RunBlock(u64 cycle_limit, StopInfo* stop);

  // The hot-trace tier: executes a lowered chain of runs (see
  // src/isa/uop.h). Called from inside block dispatch once the first run is
  // proved below the cycle/IRQ frontier; returns how the call ended.
  enum class TraceExit : u8 {
    kBody,     // body fully retired; dispatch the trace's final slot
    kBranch,   // left along a branch edge or at a run head; continue at `chain`
    kYield,    // decode generation changed during the call; leave block dispatch
    kStopped,  // fault: *stop filled, EIP on the faulting instruction
  };
  TraceExit ExecTrace(DecodeCache::Page* page, Trace& t, u64 gen0, u64 until,
                      u32 run_cost_max, StopInfo* stop);

  // Address translation: linear -> physical with paging + TLB. `flags_out`
  // (optional) receives the effective PTE flags of the translation;
  // `is_fetch` marks instruction fetches so page faults carry the I/D bit.
  bool Translate(u32 linear, bool is_write, u32* phys, Fault* fault,
                 u32* flags_out = nullptr, bool is_fetch = false);

  // Data-access fast path. Translates an access wholly inside one page
  // through the D-TLB, filling it from Translate on a miss. Returns
  //   +1 hit  — *host/*phys point at the access; writes must NotifyWrite
  //    0 miss — not cacheable (disabled, partial frame): take the byte loop
  //   -1 fault — *fault filled exactly as the per-byte path would
  int DtlbTranslate(u32 linear, u32 size, bool is_write, u8** host, u32* phys, Fault* fault);

  // The per-byte access loops (page-crossing semantics, bus errors). `start`
  // lets a caller that already translated and consumed byte 0 — the D-TLB
  // fill path whose frame turned out not host-mappable — resume at byte 1,
  // keeping TLB statistics equal to a pure per-byte run. `*value` holds the
  // accumulated low bytes on entry for reads.
  bool ReadBytesSlow(u32 linear, u32 start, u32 size, u32* value, Fault* fault);
  bool WriteBytesSlow(u32 linear, u32 start, u32 size, u32 value, Fault* fault);

  // Segment-checked access path. `is_exec` marks instruction fetches.
  bool CheckSegmentAccess(const LoadedSegment& seg, u32 offset, u32 size, bool is_write,
                          bool is_stack, Fault* fault);
  bool MemRead(const LoadedSegment& seg, u32 offset, u32 size, bool is_stack, u32* out,
               Fault* fault);
  bool MemWrite(const LoadedSegment& seg, u32 offset, u32 size, bool is_stack, u32 value,
                Fault* fault);

  // Far-transfer implementations.
  bool DoLcall(const Insn& insn, Fault* fault, u32* extra_cycles);
  // `release_bytes` implements `lret $n`: parameters copied by the gate are
  // released from both the inner and the outer stack.
  bool DoLret(u32 release_bytes, Fault* fault, u32* extra_cycles);
  bool DoInt(u8 vector, bool software, Fault* fault);
  bool DoIret(Fault* fault);

  // Fetches the instruction at CS:EIP. On success *insn points at storage
  // owned by the CPU (a decode-cache slot or fetch_scratch_) that stays
  // valid for the duration of the current instruction.
  bool FetchInsn(const DecodedInsn** insn, Fault* fault);
  bool FetchFromSlot(u32 linear, const DecodedInsn** insn, Fault* fault);
  Fault FetchBusFault(u32 linear) const;

  // Rebuilds the shared retire-cost table (CycleModel::BuildCostTable) and
  // drops decoded pages whose per-slot cost annotations became stale.
  void RebuildCostTable();

  PhysicalMemory& pm_;
  DescriptorTable& gdt_;
  DescriptorTable& idt_;
  CycleModel model_;
  // The one per-opcode retire-cost table (see CycleModel::CostTable): the
  // interpreter's retire path, the decode cache's slot annotations and the
  // block pre-summer all read this instance.
  CycleModel::CostTable cost_{};
  Tlb tlb_;

  std::array<u32, kNumRegs> regs_{};
  std::array<LoadedSegment, kNumSegRegs> segs_{};
  u32 eip_ = 0;
  u32 eflags_ = 0;
  u8 cpl_ = 0;
  u32 cr3_ = 0;
  Tss tss_;

  u64 cycles_ = 0;
  u64 instructions_ = 0;
  u32 host_base_ = 0;
  u32 host_size_ = 0;

  // --- Hardware interrupt fabric (optional) ---------------------------------
  IrqHub* irq_hub_ = nullptr;
  std::vector<IrqEvent>* irq_trace_ = nullptr;

  // --- Observability (optional) ---------------------------------------------
  // Both hooks share the track/index: a CPU records onto its own vCPU track.
  obs::FlightRecorder* recorder_ = nullptr;
  obs::CycleProfile* profiler_ = nullptr;
  u32 obs_track_ = 0;

  // --- Data access fast path -------------------------------------------------
  // Host-pointer pages keyed by linear page, validated against the TLB's
  // change counter (see dtlb.h for the full invalidation contract).
  DTlb dtlb_;
  bool dtlb_enabled_ = true;

  // --- Instruction fetch fast path -----------------------------------------
  // Decoded pages keyed by physical frame, shared across address spaces.
  DecodeCache dcache_;
  bool decode_cache_enabled_ = true;
  // Superblock engine switch (see set_block_engine_enabled). Effective only
  // while the decode cache is enabled.
  bool block_engine_enabled_ = true;
  BlockStats block_stats_;
  // Hot-trace tier switch (see set_trace_engine_enabled) and counters.
  bool trace_engine_enabled_ = true;
  TraceStats trace_stats_;
  // One-entry fetch TLB pinning (linear page -> decoded physical page). An
  // entry is live only while both generation tags still match; TLB flushes
  // (CR3 load, INVLPG) and decode-cache invalidations (self-modifying code)
  // each kill it in O(1) by bumping their counter.
  u32 fetch_vpn_ = 0;
  u32 fetch_flags_ = 0;
  DecodeCache::Page* fetch_page_ = nullptr;
  u64 fetch_tlb_change_ = ~0ull;
  u64 fetch_dcache_gen_ = ~0ull;
  // Slow-path decode target (unaligned / page-crossing fetches), annotated
  // exactly like a cache slot so the execution core sees one shape.
  DecodedInsn fetch_scratch_;
};

}  // namespace palladium

#endif  // SRC_HW_CPU_H_
