// Decoded-instruction cache: decode once per physical page, execute many
// times. This is the standard ISS fast path (libriscv's decoder cache,
// riscv-vp++'s DBB cache): instead of re-walking the page tables for all 16
// instruction bytes and re-running Insn::Decode on every step, the CPU
// translates CS:EIP once per page and indexes into a pre-decoded image of
// that *physical* page.
//
// Since the superblock engine (PR 5) a decoded page is more than an array of
// instructions: each slot carries the precomputed execution info the
// threaded dispatch loop (Cpu::RunBlock) needs — the dispatch index, the
// resolved memory segment, the base retire cost from the CPU's cycle model —
// and the page's slots are linked into *basic-block runs*: `run_len` is the
// number of straight-line slots executable from here before the engine must
// re-decide (a control transfer, a non-decodable slot, the page end, or the
// kMaxBlockInsns cap), and `run_cost_max` is a pre-summed upper bound on the
// cycles those slots can charge, which lets the engine prove an entire block
// retires below the cycle-limit/IRQ frontier and skip the per-retire
// boundary checks inside it.
//
// Keying by physical page means entries stay valid across CR3 switches (all
// processes mapping the same text frame share one decoded image) and that
// correctness reduces to one rule: whenever the bytes of a physical page
// change, its decoded image dies. The cache learns about byte changes by
// registering as the PhysicalMemory write observer, which covers simulated
// stores (self-modifying code), kernel copy-in, loaders, and frame zeroing
// on reallocation. Linear-mapping changes (PTE edits, CR3 loads) are the
// TLB's problem; the CPU revalidates its fetch TLB against Tlb::change_count.
//
// A page keeps the bytes it was decoded from. When a write retires it and
// the next fetch asks for the same page — a stub that stores into a save
// slot on its own code page does this on every call — the page is rebuilt
// in place from that image: only the slots whose bytes changed are decoded
// again, and only the runs that can reach them are relinked. The result is
// the page a fresh build of the same bytes would give, field for field
// (tests/decode_cache_test.cc checks this); a fresh build is the same
// rebuild with every slot counted as changed.
#ifndef SRC_ISA_DECODE_CACHE_H_
#define SRC_ISA_DECODE_CACHE_H_

#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hw/cycle_model.h"
#include "src/hw/physical_memory.h"
#include "src/hw/types.h"
#include "src/isa/insn.h"
#include "src/isa/uop.h"

namespace palladium {

// Dispatch indices for the execution engine's handler table: one per opcode
// (the opcode's own value), plus sentinels for slots that cannot execute.
// Opcode::kCount doubles as the undecodable sentinel — Insn::Decode never
// yields it, so the index is free.
inline constexpr u16 kDispatchUndecodable = kNumOpcodes;
inline constexpr u16 kDispatchBusError = kNumOpcodes + 1;
inline constexpr u16 kNumDispatch = kNumOpcodes + 2;

// Instruction classification shared by the decoder-side pre-summer and the
// execution engine. Constexpr so the per-opcode handler templates can
// specialize on it.
constexpr bool IsJcc(Opcode op) {
  return op >= Opcode::kJe && op <= Opcode::kJns;
}
// Near transfers whose target stays in the current code segment; the block
// engine may chain directly to a same-page target.
constexpr bool IsNearJump(Opcode op) {
  return op == Opcode::kJmp || op == Opcode::kJmpR || op == Opcode::kCall ||
         op == Opcode::kCallR || op == Opcode::kRet || op == Opcode::kRetN;
}
// Far transfers can change CS/CPL/EFLAGS.IF; the block engine always yields
// to the outer dispatch loop after one.
constexpr bool IsFarTransfer(Opcode op) {
  return op == Opcode::kLcall || op == Opcode::kLret || op == Opcode::kInt ||
         op == Opcode::kIret;
}
// Any instruction after which straight-line execution cannot blindly
// continue: control transfers and HLT end a basic-block run.
constexpr bool IsBlockTerminator(Opcode op) {
  return IsJcc(op) || IsNearJump(op) || IsFarTransfer(op) || op == Opcode::kHlt;
}
// Sequential (non-terminator) instructions that touch simulated memory. A
// memory access can retire code bytes — a store into a decoded page, or even
// a load whose page-table walk sets A/D bits inside one — so the block
// engine re-checks the cache generation after each of these and the
// pre-summer charges them the TLB-miss bound.
constexpr bool TouchesMemSeq(Opcode op) {
  return op == Opcode::kLoad || op == Opcode::kStore || op == Opcode::kStoreI ||
         op == Opcode::kPushR || op == Opcode::kPushI || op == Opcode::kPopR ||
         op == Opcode::kPushSeg || op == Opcode::kPopSeg;
}

// One fetch-aligned 16-byte slot of a decoded page, annotated with the
// precomputed execution info described above.
struct DecodedInsn {
  enum class State : u8 {
    kDecoded,      // insn holds the decoded instruction
    kUndecodable,  // bytes do not decode; executing here is #UD
    kBusError,     // slot extends past physical memory; fault_offset is the
                   // offset of the first out-of-range byte within the slot
  };
  State state = State::kUndecodable;
  u8 fault_offset = 0;
  // --- Precomputed operand info (valid when state == kDecoded) --------------
  u8 seg_idx = 2;       // resolved data-segment register index (override rule)
  bool is_stack = false;  // resolved segment is SS (stack-fault semantics)
  // --- Threaded dispatch / superblock metadata ------------------------------
  u16 dispatch = kDispatchUndecodable;  // handler index for Cpu::RunBlock
  u8 run_len = 1;       // straight-line slots executable from here (>= 1)
  u32 cost = 1;         // base retire cost from the CPU's cost table
  u32 run_cost_max = 0; // pre-summed cycle upper bound for the whole run
  // --- Hot-trace tier (mutated by the CPU, reset with the page) -------------
  u16 hot = 0;          // run-head executions seen; promotion counter
  u16 trace = kTraceNone;  // index into Page::traces, or a kTrace* sentinel
  Insn insn;
};

// Fills the precomputed per-instruction execution info of a *decoded* slot
// (dispatch index, resolved segment, retire cost). Shared by the page
// builder and the CPU's slow fetch path, so the scratch instruction a
// non-aligned fetch decodes carries exactly the same annotations as a
// cached slot.
void FillExecInfo(DecodedInsn& d, const CycleModel::CostTable& costs);

class DecodeCache : public PhysicalMemory::WriteObserver {
 public:
  static constexpr u32 kSlotsPerPage = kPageSize / kInsnSize;
  // Above this many cached pages the whole cache is retired; a runaway
  // working set (pathological for a 32-bit guest) cannot exhaust host memory.
  static constexpr u32 kMaxPages = 1024;
  // Cap on instructions per basic-block run. Bounds the worst-case latency
  // between two boundary checks in the block engine and keeps the pre-summed
  // cost a tight bound.
  static constexpr u32 kMaxBlockInsns = 64;
  static constexpr u32 kNoPfn = ~0u;

  struct Page {
    std::array<DecodedInsn, kSlotsPerPage> slots;
    // Lowered hot-run traces, indexed by DecodedInsn::trace of the run's
    // head slot. Owned by the page: every invalidation source (write
    // observer, frame eviction, capacity retirement, cost-model rebuild)
    // kills the page's traces by killing the page itself. Like the page,
    // a trace stays allocated until the next GetOrBuild, so a store that
    // retires the currently-executing trace cannot free it mid-run.
    std::vector<std::unique_ptr<Trace>> traces;
    // The page number the slots were decoded for (kNoPfn once the cost
    // annotations are stale: such a page is never rebuilt in place) and the
    // bytes they were decoded from. Slots past the end of physical memory
    // have no bytes here; they are bus errors for good.
    u32 pfn = kNoPfn;
    std::array<u8, kPageSize> image;
  };

  struct Stats {
    u64 builds = 0;              // pages decoded (a rebuilt retired page counts once)
    u64 write_invalidations = 0; // pages killed by a write to their bytes
    u64 evictions = 0;           // pages dropped by the capacity cap
    u64 recycled = 0;            // builds that rebuilt a retired page in place
    u64 slots_decoded = 0;       // slots run through Insn::Decode
  };

  // The cost table used to annotate decoded slots (the CPU's, rebuilt on
  // set_cycle_model). Must be set before GetOrBuild; the pointee must
  // outlive the cache's pages — call InvalidateAll when it is rebuilt.
  void set_cost_table(const CycleModel::CostTable* costs) { costs_ = costs; }

  // Returns the decoded image of the page at physical `frame` (page-aligned),
  // building it on first use. The pointer stays valid until the *next* call
  // to GetOrBuild — invalidated pages are retired, not freed, so an
  // instruction that modifies its own page keeps a live decode of itself
  // until the CPU fetches again. That next call may rebuild a retired page
  // in place and return the same address, so a holder must revalidate by
  // generation(), never by pointer. Non-const: the CPU's trace tier bumps
  // per-slot hotness counters and attaches lowered traces in place.
  Page* GetOrBuild(const PhysicalMemory& pm, u32 frame);

  // PhysicalMemory::WriteObserver: kills the decoded image of every page the
  // write touches. O(1) per untracked page (a bitmap probe); inline so the
  // CPU's store fast path pays only the probe, not a call, per store.
  void OnPhysicalWrite(u32 addr, u32 len) override {
    if (len == 0) return;
    const u32 first = PageNumber(addr);
    const u32 last = PageNumber(addr + len - 1);
    for (u32 pfn = first; pfn <= last; ++pfn) {
      if (pfn < has_code_.size() && has_code_[pfn] != 0) Retire(pfn);
    }
  }

  // Explicit eviction for a frame being repurposed (e.g. freed back to the
  // kernel's frame allocator).
  void EvictFrame(u32 frame);

  // Retires every cached page (cost-model change: the per-slot cost
  // annotations are stale, so no retired page is rebuilt in place).
  void InvalidateAll();

  // Bumped whenever any cached page dies; consumers holding a Page* compare
  // generations before dereferencing. Atomic for the threaded SMP mode:
  // the owning vCPU's thread is the only *writer* (bumps ride its own
  // OnPhysicalWrite, or the quiesced barrier window for cross-CPU replays
  // and kernel evictions), but sibling threads may read the counter through
  // staged shootdown checks. Release on the bump / acquire on the read
  // orders the retire itself before any observed generation change.
  u64 generation() const { return generation_.load(std::memory_order_acquire); }

  // Direct view of the has-code bitmap for the trace executor's store fast
  // path: a zero byte proves OnPhysicalWrite would be a no-op for that page,
  // so the post-store generation re-check can be skipped entirely. The
  // pointer is stable across a trace body — only Populate (instruction
  // fetch, never inside a body) grows the vector.
  const u8* has_code_data() const { return has_code_.data(); }
  u32 has_code_pages() const { return static_cast<u32>(has_code_.size()); }

  const Stats& stats() const { return stats_; }

 private:
  void Retire(u32 pfn);
  // Decodes every slot of `frame` whose bytes differ from page.image (every
  // slot when `fresh`), relinks the runs that can reach a changed slot and
  // clears the hot-trace state: afterwards `page` is what a fresh build of
  // the frame's current bytes gives.
  void Build(Page& page, const PhysicalMemory& pm, u32 frame, bool fresh);
  // Recomputes run_len/run_cost_max of slots [lo, hi].
  void Link(Page& page, u32 lo, u32 hi) const;

  const CycleModel::CostTable* costs_ = nullptr;
  std::unordered_map<u32, std::unique_ptr<Page>> pages_;  // keyed by pfn
  // Freed on the next GetOrBuild, unless that call rebuilds one in place.
  std::vector<std::unique_ptr<Page>> retired_;
  // Plain bytes on purpose: probed only by the owning vCPU's thread or
  // inside the quiesced barrier window (see WriteLane in physical_memory.h).
  std::vector<u8> has_code_;                    // pfn -> has a live entry
  std::atomic<u64> generation_{0};
  Stats stats_;
};

}  // namespace palladium

#endif  // SRC_ISA_DECODE_CACHE_H_
