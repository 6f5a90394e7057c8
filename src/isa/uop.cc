// Lowering from decoded basic-block runs to the micro-op IR (see uop.h for
// the tier's contract). The pass is purely syntactic: it walks the chain of
// runs (eliding same-page jumps, turning conditional branches into side
// exits), folds add/sub-immediate chains, assigns each memory uop a pin
// slot, computes the prefix sums the executor needs to reconstruct exact
// cycles/instruction counts at any early exit, and runs the backward
// flags-liveness scan that decides which ALU uops must record their
// operands.
#include "src/isa/uop.h"

#include <array>

#include "src/isa/decode_cache.h"

namespace palladium {

namespace {

// The register-ALU kinds of PALLADIUM_FOR_EACH_UOP; the fused
// compare-and-branches are handled by the liveness pass itself.
bool WritesFlags(UopKind k) {
  switch (k) {
#define PALLADIUM_PLAIN_CASE(kind)
#define PALLADIUM_ALU_CASE(kind, ...) case UopKind::kind:
    PALLADIUM_FOR_EACH_UOP(PALLADIUM_PLAIN_CASE, PALLADIUM_ALU_CASE)
#undef PALLADIUM_PLAIN_CASE
#undef PALLADIUM_ALU_CASE
      return true;
    default:
      return false;
  }
}

// Uops at which the trace can exit with flags observable: a fault hands the
// current EFLAGS to the handler, so the latest flag write before any of
// these must have been recorded.
bool IsFaultCapable(UopKind k) {
  return k == UopKind::kLoad || k == UopKind::kStore || k == UopKind::kStoreI ||
         k == UopKind::kExec;
}

// Register-only ALU ops with a direct uop kind; b_imm tells the executor
// where operand b lives.
bool AluKindFor(Opcode op, UopKind* kind, bool* b_imm) {
  switch (op) {
    case Opcode::kAddRR: *kind = UopKind::kAdd; *b_imm = false; return true;
    case Opcode::kAddRI: *kind = UopKind::kAdd; *b_imm = true; return true;
    case Opcode::kSubRR: *kind = UopKind::kSub; *b_imm = false; return true;
    case Opcode::kSubRI: *kind = UopKind::kSub; *b_imm = true; return true;
    case Opcode::kCmpRR: *kind = UopKind::kCmp; *b_imm = false; return true;
    case Opcode::kCmpRI: *kind = UopKind::kCmp; *b_imm = true; return true;
    case Opcode::kAndRR: *kind = UopKind::kAnd; *b_imm = false; return true;
    case Opcode::kAndRI: *kind = UopKind::kAnd; *b_imm = true; return true;
    case Opcode::kTestRR: *kind = UopKind::kTest; *b_imm = false; return true;
    case Opcode::kTestRI: *kind = UopKind::kTest; *b_imm = true; return true;
    case Opcode::kOrRR: *kind = UopKind::kOr; *b_imm = false; return true;
    case Opcode::kOrRI: *kind = UopKind::kOr; *b_imm = true; return true;
    case Opcode::kXorRR: *kind = UopKind::kXor; *b_imm = false; return true;
    case Opcode::kXorRI: *kind = UopKind::kXor; *b_imm = true; return true;
    case Opcode::kShlRI: *kind = UopKind::kShl; *b_imm = true; return true;
    case Opcode::kShrRI: *kind = UopKind::kShr; *b_imm = true; return true;
    case Opcode::kSarRI: *kind = UopKind::kSar; *b_imm = true; return true;
    case Opcode::kImulRR: *kind = UopKind::kImul; *b_imm = false; return true;
    case Opcode::kImulRI: *kind = UopKind::kImul; *b_imm = true; return true;
    case Opcode::kNegR: *kind = UopKind::kNeg; *b_imm = false; return true;
    case Opcode::kNotR: *kind = UopKind::kNot; *b_imm = false; return true;
    case Opcode::kIncR: *kind = UopKind::kInc; *b_imm = false; return true;
    case Opcode::kDecR: *kind = UopKind::kDec; *b_imm = false; return true;
    default:
      return false;
  }
}

bool IsFoldable(Opcode op) {
  return op == Opcode::kAddRI || op == Opcode::kSubRI;
}

// Lowers body slots [s, body_end) of one run, appending to `t` and
// advancing the prefix sums. Returns false on a violated run invariant.
bool LowerBody(const DecodedInsn* slots, u32 s, u32 body_end, Trace* t, u32* insn_before,
               u32* cost_before, u32* num_pins) {
  while (s < body_end) {
    const DecodedInsn& d = slots[s];
    // Interior run members are decoded non-terminators by construction of
    // run_len; bail rather than trust a violated invariant.
    if (d.state != DecodedInsn::State::kDecoded) return false;
    const Insn& in = d.insn;
    Uop u;
    u.slot = static_cast<u16>(s);
    u.insn_before = static_cast<u16>(*insn_before);
    u.cost_before = *cost_before;
    u.cost = d.cost;

    UopKind alu_kind;
    bool alu_b_imm;
    if (IsFoldable(in.opcode)) {
      // Constant folding: a run of add/sub-immediate on one register
      // collapses into a single uop. The recorded flags must be those of the
      // chain's *last* op applied to the true intermediate value, so keep
      // the delta accumulated before it and its own immediate.
      u32 total = 0;
      u32 pre_last = 0;
      u32 chain_cost = 0;
      u32 len = 0;
      u32 j = s;
      while (j < body_end && slots[j].state == DecodedInsn::State::kDecoded &&
             IsFoldable(slots[j].insn.opcode) && slots[j].insn.r1 == in.r1) {
        pre_last = total;
        const u32 delta = static_cast<u32>(slots[j].insn.imm);
        total += slots[j].insn.opcode == Opcode::kAddRI ? delta : 0u - delta;
        chain_cost += slots[j].cost;
        ++len;
        ++j;
      }
      if (len >= 2) {
        const Insn& last = slots[j - 1].insn;
        u.kind = UopKind::kFold;
        u.r1 = in.r1;
        u.imm = static_cast<i32>(total);
        u.imm2 = static_cast<i32>(pre_last);
        u.disp = last.imm;
        u.fold_op =
            last.opcode == Opcode::kSubRI ? FlagsCache::Op::kSub : FlagsCache::Op::kAdd;
        u.span = static_cast<u8>(len);
        u.cost = chain_cost;
      } else {
        u.kind = in.opcode == Opcode::kAddRI ? UopKind::kAdd : UopKind::kSub;
        u.b_imm = true;
        u.r1 = in.r1;
        u.imm = in.imm;
      }
    } else if (AluKindFor(in.opcode, &alu_kind, &alu_b_imm)) {
      u.kind = alu_kind;
      u.b_imm = alu_b_imm;
      u.r1 = in.r1;
      u.r2 = in.r2;
      u.imm = in.imm;
    } else {
      switch (in.opcode) {
        case Opcode::kNop:
          u.kind = UopKind::kNop;
          break;
        case Opcode::kMovRR:
          u.kind = UopKind::kMovRR;
          u.r1 = in.r1;
          u.r2 = in.r2;
          break;
        case Opcode::kMovRI:
          u.kind = UopKind::kMovRI;
          u.r1 = in.r1;
          u.imm = in.imm;
          break;
        case Opcode::kLea:
          u.kind = UopKind::kLea;
          u.r1 = in.r1;
          u.r2 = in.r2;
          u.r3 = in.r3;
          u.scale = in.scale;
          u.disp = in.disp;
          break;
        case Opcode::kLoad:
        case Opcode::kStore:
        case Opcode::kStoreI:
          u.kind = in.opcode == Opcode::kLoad    ? UopKind::kLoad
                   : in.opcode == Opcode::kStore ? UopKind::kStore
                                                 : UopKind::kStoreI;
          u.r1 = in.r1;
          u.r2 = in.r2;
          u.r3 = in.r3;
          u.scale = in.scale;
          u.size = in.size;
          u.seg_idx = d.seg_idx;
          u.is_stack = d.is_stack;
          u.imm = in.imm;
          u.disp = in.disp;
          u.pin = static_cast<u8>((*num_pins)++);
          break;
        // Push/pop are fixed-shape stack accesses (Cpu::Push32/Pop32): a
        // 4-byte store at SS:ESP-4 / load at SS:ESP, with the ESP move
        // committed only on success. Lowering them to pinned memory uops
        // (instead of kExec) puts the hottest stack page behind a pin.
        case Opcode::kPushR:
        case Opcode::kPushI:
          u.kind = in.opcode == Opcode::kPushR ? UopKind::kStore : UopKind::kStoreI;
          u.r1 = in.r1;
          u.r2 = static_cast<u8>(Reg::kEsp);
          u.scale = 0;
          u.size = 4;
          u.seg_idx = 1;  // SS, unconditionally (no override applies)
          u.is_stack = true;
          u.imm = in.imm;
          u.disp = -4;
          u.esp_post = -4;
          u.pin = static_cast<u8>((*num_pins)++);
          break;
        case Opcode::kPopR:
          u.kind = UopKind::kLoad;
          u.r1 = in.r1;
          u.r2 = static_cast<u8>(Reg::kEsp);
          u.scale = 0;
          u.size = 4;
          u.seg_idx = 1;
          u.is_stack = true;
          u.disp = 0;
          u.esp_post = 4;
          u.pin = static_cast<u8>((*num_pins)++);
          break;
        default:
          // Everything else (segment moves, udiv) runs through the shared
          // per-opcode execution core. None of these write flags.
          u.kind = UopKind::kExec;
          break;
      }
    }

    t->uops.push_back(u);
    *insn_before += u.span;
    *cost_before += u.cost;
    s += u.span;
  }
  return true;
}

}  // namespace

std::unique_ptr<Trace> LowerRun(const DecodedInsn* slots, u32 entry_slot, u32 entry_eip) {
  constexpr u32 kSlots = DecodeCache::kSlotsPerPage;
  if (slots[entry_slot].run_len < 2) return nullptr;
  auto t = std::make_unique<Trace>();
  t->entry_slot = static_cast<u16>(entry_slot);
  t->lowered_eip = entry_eip;

  std::array<bool, kSlots> covered{};
  u32 max_slot = entry_slot;
  // Whether the run starting at `head` may join the chain: decoded, on the
  // page, disjoint from the runs already covered, and within the slot cap.
  const auto can_follow = [&](u32 head) {
    if (head >= kSlots || slots[head].state != DecodedInsn::State::kDecoded) return false;
    const u32 len = slots[head].run_len;
    if (t->lowered_insns + len > kMaxTraceSlots) return false;
    for (u32 s = head; s < head + len; ++s) {
      if (covered[s]) return false;
    }
    return true;
  };

  u32 insn_before = 0;
  u32 cost_before = 0;
  u32 num_pins = 0;
  u32 head = entry_slot;
  for (;;) {
    const u32 last = head + slots[head].run_len - 1;
    for (u32 s = head; s <= last; ++s) covered[s] = true;
    if (last > max_slot) max_slot = last;
    t->lowered_insns += slots[head].run_len;
    if (!LowerBody(slots, head, last, t.get(), &insn_before, &cost_before, &num_pins)) {
      return nullptr;
    }
    const DecodedInsn& term = slots[last];
    const bool decoded = term.state == DecodedInsn::State::kDecoded;

    if (decoded && IsJcc(term.insn.opcode)) {
      // A conditional branch: a side exit when its fall-through run can
      // join the chain, otherwise the trace's terminator. A branch with an
      // edge back to the entry (taken, or falling through into it) always
      // terminates, so the loop iterates in place.
      const bool side = static_cast<u32>(term.insn.imm) != entry_eip && can_follow(last + 1);
      const u8 cond = static_cast<u8>(static_cast<int>(term.insn.opcode) -
                                      static_cast<int>(Opcode::kJe));
      if (!t->uops.empty() && t->uops.back().kind == UopKind::kCmp &&
          u32{t->uops.back().slot} + 1 == last) {
        // The run's last body instruction is the compare feeding the branch:
        // fuse them. The merged uop keeps the compare's operands and prefix
        // sums, retires both instructions, and evaluates the condition
        // without going through the lazy-flag cache.
        Uop& u = t->uops.back();
        u.kind = side ? UopKind::kSideCmpJcc : UopKind::kCmpJcc;
        u.imm2 = u.imm;  // the compare's immediate; `imm` becomes the target
        u.imm = term.insn.imm;
        u.r3 = cond;
        u.cost2 = term.cost;
        u.span = 2;
      } else {
        Uop u;
        u.kind = side ? UopKind::kSideJcc : UopKind::kJcc;
        u.r1 = cond;
        u.imm = term.insn.imm;
        u.slot = static_cast<u16>(last);
        u.insn_before = static_cast<u16>(insn_before);
        u.cost_before = cost_before;
        u.cost = term.cost;
        t->uops.push_back(u);
      }
      if (!side) break;
      insn_before += 1;
      cost_before += term.cost;
      head = last + 1;
      t->uops.back().head_cost = cost_before + slots[head].run_cost_max;
      continue;
    }

    if (decoded && term.insn.opcode == Opcode::kJmp) {
      const u32 target = static_cast<u32>(term.insn.imm);
      if (target == entry_eip) {
        t->jmp_loop = true;
        t->loop_cost = term.cost;
      } else {
        // Unwrapped distance: a target that only reaches the page by 32-bit
        // wrap-around is not followed (its EIP would sit past the CS limit).
        const i64 delta = static_cast<i64>(target) - static_cast<i64>(entry_eip);
        const i64 target_slot = static_cast<i64>(entry_slot) + delta / kInsnSize;
        if (delta % kInsnSize == 0 && target_slot >= 0 &&
            can_follow(static_cast<u32>(target_slot))) {
          // Elide the jump; the next run starts behind a frontier check.
          insn_before += 1;
          cost_before += term.cost;
          head = static_cast<u32>(target_slot);
          Uop h;
          h.kind = UopKind::kHead;
          h.span = 0;
          h.slot = static_cast<u16>(head);
          h.imm = term.insn.imm;  // the jump's own target, for the exit EIP
          h.insn_before = static_cast<u16>(insn_before);
          h.cost_before = cost_before;
          h.head_cost = cost_before + slots[head].run_cost_max;
          t->uops.push_back(h);
          continue;
        }
      }
    }

    // Any other final slot (the jump back to the entry included) is handed
    // to the block engine, or looped on, at the body's end.
    t->final_slot = static_cast<u16>(last);
    t->body_insns = insn_before;
    t->body_cost = cost_before;
    break;
  }

  t->pins.resize(num_pins);
  t->reach_bytes = (max_slot - entry_slot + 1) * kInsnSize;

  // Backward flags liveness. At the trace's end flags are observable (the
  // final slot — often a Jcc — the loop's next iteration and the retire
  // boundary all read them); every exit point makes the flags before it
  // observable (a fault handler sees EFLAGS, and a side exit or a failed
  // run-head check materializes them); INC/DEC propagate observability to
  // the preceding producer only when they themselves record, because they
  // capture its CF at record time. A producer whose result is dead records
  // nothing — static dead-flag elimination.
  bool observable = true;
  for (size_t i = t->uops.size(); i-- > 0;) {
    Uop& u = t->uops[i];
    if (u.kind == UopKind::kCmpJcc || u.kind == UopKind::kSideCmpJcc) {
      // Always records (every exit materializes the compare's flags) and
      // fully overwrites the lazy cache, so earlier flag writes are dead.
      u.record = true;
      observable = false;
    } else if (WritesFlags(u.kind)) {
      u.record = observable;
      observable =
          (u.kind == UopKind::kInc || u.kind == UopKind::kDec) && u.record;
    } else if (IsFaultCapable(u.kind) || u.kind == UopKind::kJcc ||
               u.kind == UopKind::kSideJcc || u.kind == UopKind::kHead) {
      observable = true;
    }
  }

  // The end marker: the executor reaches it exactly when the body is done.
  Uop end;
  end.kind = UopKind::kEnd;
  t->uops.push_back(end);
  return t;
}

}  // namespace palladium
