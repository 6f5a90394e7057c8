// Micro-op IR for the hot-trace translation tier (the third execution tier,
// above the superblock engine). When a basic-block run crosses the hotness
// threshold, Cpu::RunBlock lowers it — and a short chain of the runs that
// follow it in the same decoded page — into a compact uop vector and
// executes that instead. The chain follows two kinds of edge:
//
//  * a direct near `jmp` to a slot-aligned target in the same page: the
//    jump is elided (its instruction and cost go into the prefix sums) and a
//    kHead uop re-checks the cycle/IRQ frontier at the target run's head;
//  * the not-taken edge of a `jcc`: the branch becomes a side-exit uop that
//    leaves the trace with exact state when taken, and re-checks the
//    frontier at the fall-through run's head when not.
//
// The chain stops at a loop-back to the entry slot (which iterates in place,
// whether the edge back is a taken branch, a fall-through or a `jmp`),
// at any other terminator, at the page end, or at kMaxTraceSlots. A
// chain-ending slot that is not a conditional branch still dispatches
// through the block engine's own handler, so chaining, far-transfer and halt
// semantics stay in one place.
//
// The lowering pass performs the three optimisations of this tier:
//
//  * Lazy flags: ALU uops do not compute EFLAGS. They record the operands of
//    the last flag-producing op in a FlagsCache, and the flags are
//    materialized — with formulas bit-for-bit identical to Cpu::ExecOp's —
//    only when something can observe them: a fault (the handler must see
//    exact EFLAGS), or any trace exit (the terminator may be a Jcc; retire
//    boundaries are architectural). A static liveness pass additionally
//    marks flag writes that are provably overwritten before any observer so
//    they record nothing at all.
//  * Redundant-translation elimination: each memory uop carries a persistent
//    pin of its last translation (host pointer + PTE flags), revalidated by
//    three counter compares instead of the D-TLB probe-and-permission walk.
//    The pin is provably the live D-TLB entry (no TLB change, no fill or
//    eviction since pin time), so cycles and TLB statistics are charged
//    exactly as the oracle's hit path would charge them.
//  * Constant folding: chains of add/sub-immediate on one register collapse
//    into a single uop that retires the whole chain's instructions and
//    cycles at once and records the *last* op's operands for the flags.
//
// Invalidation needs no machinery of its own: traces are owned by the
// decoded page they were lowered from, so every existing invalidation source
// (write observer, frame eviction, capacity retirement, cost-model rebuild)
// kills them with the page, and the block engine's generation re-check after
// every memory-touching uop bounds how long a dead trace can keep running —
// to exactly the one instruction the per-instruction rule allows.
#ifndef SRC_ISA_UOP_H_
#define SRC_ISA_UOP_H_

#include <memory>
#include <vector>

#include "src/hw/types.h"

namespace palladium {

struct DecodedInsn;  // src/isa/decode_cache.h (includes this header)

// EFLAGS bit positions (x86 layout for the flags we model). Defined here —
// next to the lazy-flags machinery that reconstructs them — and re-exported
// through cpu.h's include chain.
inline constexpr u32 kFlagCf = 1u << 0;
inline constexpr u32 kFlagZf = 1u << 6;
inline constexpr u32 kFlagSf = 1u << 7;
inline constexpr u32 kFlagIf = 1u << 9;  // hardware-interrupt enable
inline constexpr u32 kFlagOf = 1u << 11;

// Sentinels for DecodedInsn::trace (a slot's lowered-trace index within its
// page). Values below kTraceUntraceable index Page::traces.
inline constexpr u16 kTraceNone = 0xFFFF;  // not (yet) lowered
// Stay on blocks: lowering declined, or the trace was demoted for low yield.
inline constexpr u16 kTraceUntraceable = 0xFFFE;

// The last flag-producing operation, recorded instead of executed. One entry
// suffices: every producer either overwrites all four flags from (a, b), or
// — INC/DEC, which preserve CF — captures the carry it inherited as `b` at
// record time, so the cache never needs to reach further back than one op.
struct FlagsCache {
  enum class Op : u8 {
    kEager,  // eflags is architecturally current; nothing pending
    kAdd,    // r = a + b
    kSub,    // r = a - b (also CMP)
    kLogic,  // a = result; CF = OF = 0
    kImul,   // a = low-32 result, b = overflow bit (CF = OF = b)
    kNeg,    // r = -a
    kInc,    // r = a + 1, CF preserved in b
    kDec,    // r = a - 1, CF preserved in b
  };
  Op op = Op::kEager;
  u32 a = 0;
  u32 b = 0;
};

// Single-flag reads against the lazy cache, for consumers that need one or
// two bits (INC/DEC capturing CF; the in-trace Jcc terminator evaluating its
// condition) without paying a full materialization. Each case is the
// corresponding MaterializeFlags branch restricted to one flag.
inline bool LazyCf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagCf) != 0;
    case FlagsCache::Op::kAdd:
      return fc.a + fc.b < fc.a;
    case FlagsCache::Op::kSub:
      return fc.a < fc.b;
    case FlagsCache::Op::kLogic:
      return false;
    case FlagsCache::Op::kImul:
      return fc.b != 0;
    case FlagsCache::Op::kNeg:
      return fc.a != 0;
    case FlagsCache::Op::kInc:
    case FlagsCache::Op::kDec:
      return fc.b != 0;
  }
  return false;
}

inline bool LazyZf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagZf) != 0;
    case FlagsCache::Op::kAdd:
      return fc.a + fc.b == 0;
    case FlagsCache::Op::kSub:
      return fc.a == fc.b;
    case FlagsCache::Op::kLogic:
    case FlagsCache::Op::kImul:
    case FlagsCache::Op::kNeg:
      return fc.a == 0;
    case FlagsCache::Op::kInc:
      return fc.a + 1 == 0;
    case FlagsCache::Op::kDec:
      return fc.a == 1;
  }
  return false;
}

inline bool LazySf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagSf) != 0;
    case FlagsCache::Op::kAdd:
      return ((fc.a + fc.b) >> 31) != 0;
    case FlagsCache::Op::kSub:
      return ((fc.a - fc.b) >> 31) != 0;
    case FlagsCache::Op::kLogic:
    case FlagsCache::Op::kImul:
      return (fc.a >> 31) != 0;
    case FlagsCache::Op::kNeg:
      return ((0 - fc.a) >> 31) != 0;
    case FlagsCache::Op::kInc:
      return ((fc.a + 1) >> 31) != 0;
    case FlagsCache::Op::kDec:
      return ((fc.a - 1) >> 31) != 0;
  }
  return false;
}

inline bool LazyOf(const FlagsCache& fc, u32 eflags) {
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return (eflags & kFlagOf) != 0;
    case FlagsCache::Op::kAdd:
      return ((~(fc.a ^ fc.b)) & (fc.a ^ (fc.a + fc.b)) & 0x80000000u) != 0;
    case FlagsCache::Op::kSub:
      return (((fc.a ^ fc.b) & (fc.a ^ (fc.a - fc.b))) & 0x80000000u) != 0;
    case FlagsCache::Op::kLogic:
      return false;
    case FlagsCache::Op::kImul:
      return fc.b != 0;
    case FlagsCache::Op::kNeg:
      return fc.a == 0x80000000u;
    case FlagsCache::Op::kInc:
      return fc.a == 0x7FFFFFFFu;
    case FlagsCache::Op::kDec:
      return fc.a == 0x80000000u;
  }
  return false;
}

// Returns `eflags` with CF/ZF/SF/OF replaced by the recorded op's results.
// Each branch is the corresponding Cpu::ExecOp SetFlags call, bit for bit —
// the differential fuzz holds this function to the interpreter's output.
inline u32 MaterializeFlags(const FlagsCache& fc, u32 eflags) {
  bool cf = false, zf = false, sf = false, of = false;
  switch (fc.op) {
    case FlagsCache::Op::kEager:
      return eflags;
    case FlagsCache::Op::kAdd: {
      const u32 r = fc.a + fc.b;
      cf = r < fc.a;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = ((~(fc.a ^ fc.b)) & (fc.a ^ r) & 0x80000000u) != 0;
      break;
    }
    case FlagsCache::Op::kSub: {
      const u32 r = fc.a - fc.b;
      cf = fc.a < fc.b;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = (((fc.a ^ fc.b) & (fc.a ^ r)) & 0x80000000u) != 0;
      break;
    }
    case FlagsCache::Op::kLogic:
      zf = fc.a == 0;
      sf = (fc.a >> 31) & 1;
      break;
    case FlagsCache::Op::kImul:
      cf = of = fc.b != 0;
      zf = fc.a == 0;
      sf = (fc.a >> 31) & 1;
      break;
    case FlagsCache::Op::kNeg: {
      const u32 r = 0 - fc.a;
      cf = fc.a != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x80000000u;
      break;
    }
    case FlagsCache::Op::kInc: {
      const u32 r = fc.a + 1;
      cf = fc.b != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x7FFFFFFFu;
      break;
    }
    case FlagsCache::Op::kDec: {
      const u32 r = fc.a - 1;
      cf = fc.b != 0;
      zf = r == 0;
      sf = (r >> 31) & 1;
      of = fc.a == 0x80000000u;
      break;
    }
  }
  return (eflags & ~(kFlagCf | kFlagZf | kFlagSf | kFlagOf)) | (cf ? kFlagCf : 0) |
         (zf ? kFlagZf : 0) | (sf ? kFlagSf : 0) | (of ? kFlagOf : 0);
}

// Branch conditions, indexed by Opcode - kJe (je jne jb jae jbe ja jl jge
// jle jg js jns). JccTaken reads the lazy cache one flag at a time;
// CmpJccTaken evaluates straight from a compare's operands via the standard
// sub-flag identities (jb is unsigned a < b, jl is signed a < b, js is the
// sign of a - b, ...), which are exactly what ExecOp's per-flag reads of a
// cmp's EFLAGS compute.
inline bool JccTaken(u8 cond, const FlagsCache& fc, u32 eflags) {
  switch (cond) {
    case 0: return LazyZf(fc, eflags);
    case 1: return !LazyZf(fc, eflags);
    case 2: return LazyCf(fc, eflags);
    case 3: return !LazyCf(fc, eflags);
    case 4: return LazyCf(fc, eflags) || LazyZf(fc, eflags);
    case 5: return !LazyCf(fc, eflags) && !LazyZf(fc, eflags);
    case 6: return LazySf(fc, eflags) != LazyOf(fc, eflags);
    case 7: return LazySf(fc, eflags) == LazyOf(fc, eflags);
    case 8: return LazyZf(fc, eflags) || LazySf(fc, eflags) != LazyOf(fc, eflags);
    case 9: return !LazyZf(fc, eflags) && LazySf(fc, eflags) == LazyOf(fc, eflags);
    case 10: return LazySf(fc, eflags);
    default: return !LazySf(fc, eflags);
  }
}

inline bool CmpJccTaken(u8 cond, u32 a, u32 b) {
  switch (cond) {
    case 0: return a == b;
    case 1: return a != b;
    case 2: return a < b;
    case 3: return a >= b;
    case 4: return a <= b;
    case 5: return a > b;
    case 6: return static_cast<i32>(a) < static_cast<i32>(b);
    case 7: return static_cast<i32>(a) >= static_cast<i32>(b);
    case 8: return static_cast<i32>(a) <= static_cast<i32>(b);
    case 9: return static_cast<i32>(a) > static_cast<i32>(b);
    case 10: return ((a - b) >> 31) != 0;
    default: return ((a - b) >> 31) == 0;
  }
}

// Signed 32 x 32 multiply, full width: IMUL's low half is the result, and
// the product overflows iff it differs from that half sign-extended.
inline i64 SignedProduct(u32 a, u32 b) {
  return i64{static_cast<i32>(a)} * i64{static_cast<i32>(b)};
}

// Every micro-op kind, in enum order. UopKind, the executor's label table
// and its register-ALU handlers are all generated from this one list.
//
//   PLAIN(kind)                        one executor handler, `u_<kind>`;
//   ALU(kind, forms, result, flags...) a register-ALU op, with one handler
//                                      per operand form and `record`.
//
// The ALU ops (CMP and TEST included) write the flags; of the other kinds
// only the fused compare-and-branches do. In `result` and `flags`, `a` is
// regs[r1], `b` operand b and `r` the result; `flags` initializes the
// FlagsCache recorded when `record` is set. The list is expanded inside
// Cpu::ExecTrace, so these may also read `u` (the uop), `fc` (the lazy flags
// before the op: INC and DEC keep its CF) and `eflags_`. `forms` gives
// operand b and the handlers:
//
//   RR_RI  b = regs[r2] (b_imm false) or imm (b_imm true); r1 <- r
//   CMP    as RR_RI, but r1 is not written, so a non-recording one is a nop
//   RI     b = imm (the shift count); r1 <- r
//   R      unary; r1 <- r
//
// The kinds:
//   kNop     retire accounting only
//   kMovRR   r1 <- r2
//   kMovRI   r1 <- imm
//   kLea     r1 <- effective address
//   kNot     r1 <- ~r1 (no flags)
//   kFold    a folded add/sub-immediate chain: r1 += imm (the summed delta),
//            retiring `span` instructions. Its flags are the last op's: imm2
//            is the delta before the last op, disp the last op's immediate
//            and fold_op its FlagsCache op (kAdd or kSub).
//   kLoad    r1 <- [seg: ea], `size` bytes zero-extended
//   kStore   [seg: ea] <- r1
//   kStoreI  [seg: ea] <- imm
//            Memory uops: `pin` indexes Trace::pins. Push/pop lower to these
//            kinds too: PUSH r/i is a store at SS:ESP-4 and POP r a load at
//            SS:ESP, with esp_post applying the stack-pointer move after a
//            successful access (the fault path leaves ESP untouched, exactly
//            like Push32/Pop32).
//   kExec    fallback: dispatch the source slot through the shared
//            per-opcode execution core (segment moves, udiv). Never writes
//            flags (no such non-terminator opcode does), may fault or touch
//            memory.
//   kJcc     the trace's final slot when it is a conditional branch. r1 =
//            condition (Opcode - kJe), imm = taken target, cost = the slot's
//            not-taken cost (taken charges the model's taken-branch cost).
//            Evaluated from the lazy cache one flag at a time; when taken
//            straight back to the trace's own entry under the frontier the
//            block engine would re-check, the executor loops in place — a
//            hot loop iterates entirely inside the trace and the per-entry
//            overhead amortizes over the whole loop.
//   kCmpJcc  fused compare-and-branch: a kCmp that immediately precedes the
//            kJcc terminator merges into it. r1/r2/b_imm/imm2 are the
//            compare's operands (imm2 because `imm` holds the branch
//            target), r3 = condition, cost = the compare's base cost, cost2
//            = the branch's not-taken cost, span = 2. The condition evaluates
//            directly from the compare operands (CmpJccTaken), skipping a
//            dispatch and the lazy-flag round-trip on the hottest edge in any
//            loop: its own backward branch. The operands are still recorded
//            into the flags cache so every exit materializes the compare's
//            EFLAGS exactly.
//   kSideJcc, kSideCmpJcc
//            side exits: kJcc / kCmpJcc in the middle of the trace, with the
//            same operand layout. Taken leaves the trace at the branch
//            target. Not taken continues into the fall-through run after the
//            run-head frontier check (`head_cost`), leaving at that head with
//            exact state if it fails.
//   kHead    the head of a run reached through an elided `jmp`: re-checks
//            the frontier (`head_cost`) and the decode generation —
//            Cpu::RunBlock's `chain` and `run_start` checks — and leaves at
//            the head if either fails. Retires nothing (span 0); `slot` is
//            the head slot and `imm` the elided jump's target EIP.
//   kEnd     the end marker LowerRun appends after every body: reaching it
//            completes the body, so no other uop tests for the end.
#define PALLADIUM_FOR_EACH_UOP(PLAIN, ALU)                                        \
  PLAIN(kNop)                                                                     \
  PLAIN(kMovRR)                                                                   \
  PLAIN(kMovRI)                                                                   \
  PLAIN(kLea)                                                                     \
  ALU(kAdd, RR_RI, a + b, FlagsCache::Op::kAdd, a, b)                             \
  ALU(kSub, RR_RI, a - b, FlagsCache::Op::kSub, a, b)                             \
  ALU(kCmp, CMP, a - b, FlagsCache::Op::kSub, a, b)                               \
  ALU(kAnd, RR_RI, a & b, FlagsCache::Op::kLogic, r, 0)                           \
  ALU(kTest, CMP, a & b, FlagsCache::Op::kLogic, r, 0)                            \
  ALU(kOr, RR_RI, a | b, FlagsCache::Op::kLogic, r, 0)                            \
  ALU(kXor, RR_RI, a ^ b, FlagsCache::Op::kLogic, r, 0)                           \
  ALU(kShl, RI, a << (b & 31), FlagsCache::Op::kLogic, r, 0)                      \
  ALU(kShr, RI, a >> (b & 31), FlagsCache::Op::kLogic, r, 0)                      \
  ALU(kSar, RI, static_cast<u32>(static_cast<i32>(a) >> (b & 31)),                \
      FlagsCache::Op::kLogic, r, 0)                                               \
  ALU(kImul, RR_RI, static_cast<u32>(SignedProduct(a, b)), FlagsCache::Op::kImul, \
      r, SignedProduct(a, b) != static_cast<i32>(r))                              \
  ALU(kNeg, R, 0 - a, FlagsCache::Op::kNeg, a, 0)                                 \
  PLAIN(kNot)                                                                     \
  ALU(kInc, R, a + 1, FlagsCache::Op::kInc, a, LazyCf(fc, eflags_))               \
  ALU(kDec, R, a - 1, FlagsCache::Op::kDec, a, LazyCf(fc, eflags_))               \
  ALU(kFold, R, a + static_cast<u32>(u->imm), u->fold_op,                         \
      a + static_cast<u32>(u->imm2), static_cast<u32>(u->disp))                   \
  PLAIN(kLoad)                                                                    \
  PLAIN(kStore)                                                                   \
  PLAIN(kStoreI)                                                                  \
  PLAIN(kExec)                                                                    \
  PLAIN(kJcc)                                                                     \
  PLAIN(kCmpJcc)                                                                  \
  PLAIN(kSideJcc)                                                                 \
  PLAIN(kSideCmpJcc)                                                              \
  PLAIN(kHead)                                                                    \
  PLAIN(kEnd)

enum class UopKind : u8 {
#define PALLADIUM_UOP_KIND(kind, ...) kind,
  PALLADIUM_FOR_EACH_UOP(PALLADIUM_UOP_KIND, PALLADIUM_UOP_KIND)
#undef PALLADIUM_UOP_KIND
};

struct Uop {
  UopKind kind = UopKind::kNop;
  // Direct-threading cache: the executor's handler for this uop, filled in
  // on the trace's first run (labels are function-local, so the lowering
  // pass cannot know them). It is chosen from everything static about the
  // uop — kind, operand form and `record` for the ALU kinds, size and ESP
  // move for the memory kinds — so a handler tests none of those fields, and
  // a dispatch is one dependent load.
  const void* target = nullptr;
  u8 r1 = 0, r2 = 0, r3 = 0;
  u8 scale = 0;
  u8 size = 4;
  u8 seg_idx = 2;
  bool is_stack = false;
  bool b_imm = false;             // ALU operand b is `imm`, not regs[r2]
  bool record = false;            // flag result observable: record it
  FlagsCache::Op fold_op = FlagsCache::Op::kAdd;  // kFold: the last op's kind
  i8 esp_post = 0;             // push/pop: ESP += this after a successful access
  u8 pin = 0;                     // memory uops: index into Trace::pins
  u8 span = 1;                    // instructions this uop retires (folds > 1)
  u16 slot = 0;                   // source slot in the decoded page
  u16 insn_before = 0;            // instructions retired by earlier uops
  u32 cost = 0;                   // base retire cost (summed over a fold)
  u32 cost_before = 0;            // prefix base-cost sum of earlier uops
  i32 imm = 0;                    // immediate / fold total delta
  i32 disp = 0;                   // displacement / fold last-op immediate
  i32 imm2 = 0;                   // fold delta before the last op
  u32 cost2 = 0;                  // kCmpJcc: the branch's not-taken cost
  // Side exits and kHead: the prefix base cost at the next run head plus
  // that run's run_cost_max. The run may start iff cycles at the start of
  // the current iteration + head_cost < the frontier.
  u32 head_cost = 0;
};

// A pinned translation: one memory uop's last successful D-TLB entry. Live
// iff nothing that could have killed or replaced the entry happened since —
// the TLB change counter (CR3 loads, INVLPG, PTE edits) and the D-TLB
// mutation counter (fills, conflict evictions) both still match. Liveness
// implies the oracle's probe would hit this same entry, so the pinned path
// may skip the probe while charging identical statistics.
struct TracePin {
  u64 tlb_change = ~0ull;
  u64 dtlb_gen = ~0ull;
  u32 vpn = 0;
  u32 frame = 0;
  u32 flags = 0;
  u8* host = nullptr;
};

// Upper bound on the instruction slots one trace covers across its chain of
// runs. Keeps the u16 prefix sums far from overflow and bounds the work a
// single lowering does.
inline constexpr u32 kMaxTraceSlots = 128;

// A lowered chain of runs. Owned by the decoded page it was built from (see
// DecodeCache::Page::traces); dies with the page on any invalidation.
struct Trace {
  std::vector<Uop> uops;  // the body, then one kEnd
  bool threaded = false;  // uop targets filled in by the executor
  std::vector<TracePin> pins;
  // Retire totals of the path from the entry to the final slot (elided
  // jumps included, the final slot excluded), for the exit that hands the
  // final slot to the block engine.
  u32 body_insns = 0;
  u32 body_cost = 0;
  u16 entry_slot = 0;
  u16 final_slot = 0;  // the slot the block engine dispatches after the body
  // The final slot is a `jmp` back to the entry: at the body's end the
  // executor loops in place (loop_cost = the jump's cost) instead of
  // handing the jump to the block engine.
  bool jmp_loop = false;
  u32 loop_cost = 0;
  // The entry EIP the chain's jump targets were resolved against. A call
  // entered at another EIP (the same physical page at another linear
  // address) runs only the first run.
  u32 lowered_eip = 0;
  // Bytes from the entry slot's start to the end of the highest slot the
  // trace covers: the CS-limit reach one call needs for its later runs.
  u32 reach_bytes = 0;
  u32 lowered_insns = 0;  // instructions across every run of the chain
  // Measured yield, judged by Cpu::RunBlock once `calls` reaches the
  // probation window. A call is one executor entry; an in-place loop-back
  // is not a new call, but its instructions count in `insns`.
  u32 calls = 0;
  u64 insns = 0;  // instructions retired across all calls
};

// Lowers the run starting at `slots[entry_slot]` (run_len from the slot's
// own annotation) and the chain of runs that follows it, resolving jump
// targets against `entry_eip`, the EIP the run was entered at. Returns
// nullptr when the run has no body worth lowering. Pure ISA-side: no CPU
// state is consulted — register indices, segments and costs are all taken
// from the decoded slots.
std::unique_ptr<Trace> LowerRun(const DecodedInsn* slots, u32 entry_slot, u32 entry_eip);

}  // namespace palladium

#endif  // SRC_ISA_UOP_H_
