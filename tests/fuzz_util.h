// Shared fuzz-program machinery for the differential test binaries
// (tests/cpu_property_test.cc, tests/smp_threaded_test.cc): a deterministic
// operand generator, the fault-stream record, and the looped fuzz-program
// builder. The builder is parameterized by code base and data window so the
// SMP fuzzes can give every vCPU its own program *and* — for the threaded
// data-race-free differential — its own disjoint data window. Generation is
// a pure function of (seed, iterations, body_len, code_base, data_base,
// data_span, shape): identical arguments yield byte-identical programs,
// which is what the differential harnesses rely on.
#ifndef TESTS_FUZZ_UTIL_H_
#define TESTS_FUZZ_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/hw/cpu.h"
#include "src/isa/insn.h"

namespace palladium {

// Deterministic operand generator.
inline u32 NextRand(u64* state) {
  *state ^= *state >> 12;
  *state ^= *state << 25;
  *state ^= *state >> 27;
  return static_cast<u32>((*state * 0x2545F4914F6CDD1Dull) >> 32);
}

struct FaultRecord {
  u32 eip;
  FaultVector vector;
  u32 error_code;
  u32 linear;

  bool operator==(const FaultRecord& o) const {
    return eip == o.eip && vector == o.vector && error_code == o.error_code &&
           linear == o.linear;
  }
};

// Program shapes beyond the base family. The default shape generates, for
// every seed, exactly the bytes it always has; each flag is a new family
// whose programs exercise the trace tier's run chaining.
struct FuzzShape {
  // Forward unconditional `jmp`s inside the body, to targets before the
  // drain tail (same-page jumps the trace tier elides and follows).
  bool forward_jumps = false;
  // A top-tested loop, `cmp ecx,0; je out` ... `dec ecx; jmp head`, instead
  // of the bottom-tested `dec; cmp; jne` (side exit + elided jump).
  bool top_tested = false;
  // The DataInCodePage family: the data window sits in the unused tail of
  // a code page (EncodeDataInCodePageProgram), so every store retires — and
  // the next fetch rebuilds in place — a page a program is executing. The
  // program bytes are those of the same shape without the flag; only the
  // window moves.
  bool data_in_code_page = false;
  // The AllAluForms family: the body's register-ALU instructions also draw
  // `test r,r`, `imul r,r` and `imul r,imm`, so every operand form the trace
  // tier has a handler for appears.
  bool all_alu_forms = false;
};

// The jump-shape families every differential runs besides the base one.
inline constexpr FuzzShape kJumpShapes[] = {
    {/*forward_jumps=*/true, /*top_tested=*/false},
    {/*forward_jumps=*/false, /*top_tested=*/true},
    {/*forward_jumps=*/true, /*top_tested=*/true},
};

// The DataInCodePage families every differential runs.
inline constexpr FuzzShape kDataInCodePageShapes[] = {
    {/*forward_jumps=*/false, /*top_tested=*/false, /*data_in_code_page=*/true},
    {/*forward_jumps=*/true, /*top_tested=*/true, /*data_in_code_page=*/true},
};

// The AllAluForms families every differential runs.
inline constexpr FuzzShape kAllAluFormsShapes[] = {
    {/*forward_jumps=*/false, /*top_tested=*/false, /*data_in_code_page=*/false,
     /*all_alu_forms=*/true},
    {/*forward_jumps=*/true, /*top_tested=*/true, /*data_in_code_page=*/false,
     /*all_alu_forms=*/true},
};

inline std::string FuzzShapeName(const FuzzShape& shape) {
  return std::string(shape.forward_jumps ? "jumps" : "nojumps") +
         (shape.top_tested ? "/top-tested" : "/bottom-tested") +
         (shape.data_in_code_page ? "/data-in-code" : "") +
         (shape.all_alu_forms ? "/all-alu-forms" : "");
}

// Pseudo-random straight-line body of `body_len` instruction slots based at
// `body_base`, with loads/stores confined to [data_base, data_base +
// data_span). ECX is the loop counter and ESP the stack pointer (never a
// random destination, so iterations terminate).
inline std::vector<Insn> BuildFuzzBody(u64* state, u32 body_base, u32 body_len,
                                       u32 data_base, u32 data_span, const FuzzShape& shape) {
  std::vector<Insn> body;
  body.reserve(body_len);
  // EAX/EBX/EDX/EDI/EBP are fair game; ECX is the loop counter and ESP the
  // stack pointer (never a random destination, so iterations terminate).
  // ESI is reserved as the case-12 anchor register: its only writers are the
  // anchors (and the prologue init), so its value is a window displacement at
  // every instruction boundary — a forward branch that lands *between* an
  // anchor and its memory op still addresses the window, never an arbitrary
  // scratch value. The threaded differential's data-race-freedom rests on
  // this: every access must stay inside the vCPU's private window.
  const Reg scratch[] = {Reg::kEax, Reg::kEbx, Reg::kEdx, Reg::kEdi, Reg::kEbp};
  auto pick_reg = [&] { return static_cast<u8>(scratch[NextRand(state) % 5]); };
  auto window_disp = [&] {
    return static_cast<i32>(data_base + NextRand(state) % (data_span - 8));
  };
  auto pick_size = [&] {
    u32 r = NextRand(state) % 3;
    return static_cast<u8>(r == 0 ? 1 : (r == 1 ? 2 : 4));
  };
  int depth = 0;
  while (body.size() < body_len) {
    const u32 remaining = body_len - static_cast<u32>(body.size());
    // Reserve the tail for draining outstanding pushes (static balance; a
    // forward branch may unbalance at runtime, which is fine — both runs
    // see the identical drift).
    if (remaining <= static_cast<u32>(depth)) {
      Insn pop;
      pop.opcode = Opcode::kPopR;
      pop.r1 = pick_reg();
      body.push_back(pop);
      --depth;
      continue;
    }
    Insn in;
    switch (NextRand(state) % 16) {
      case 0:
        in.opcode = Opcode::kMovRI;
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state));
        break;
      case 1:
        in.opcode = Opcode::kMovRR;
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        break;
      case 2:
      case 3: {  // absolute load
        in.opcode = Opcode::kLoad;
        in.r1 = pick_reg();
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.disp = window_disp();
        break;
      }
      case 4:
      case 5: {  // absolute store
        in.opcode = Opcode::kStore;
        in.r1 = pick_reg();
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.disp = window_disp();
        break;
      }
      case 6: {  // store immediate
        in.opcode = Opcode::kStoreI;
        in.r2 = kNoBaseReg;
        in.size = pick_size();
        in.imm = static_cast<i32>(NextRand(state));
        in.disp = window_disp();
        break;
      }
      case 7: {  // ALU r,r (the last two only in the AllAluForms family)
        const Opcode ops[] = {Opcode::kAddRR, Opcode::kSubRR, Opcode::kAndRR,
                              Opcode::kOrRR,  Opcode::kXorRR, Opcode::kCmpRR,
                              Opcode::kTestRR, Opcode::kImulRR};
        in.opcode = ops[NextRand(state) % (shape.all_alu_forms ? 8 : 6)];
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        break;
      }
      case 8: {  // ALU r,imm (the last one only in the AllAluForms family)
        const Opcode ops[] = {Opcode::kAddRI, Opcode::kSubRI, Opcode::kAndRI,
                              Opcode::kOrRI,  Opcode::kXorRI, Opcode::kCmpRI,
                              Opcode::kTestRI, Opcode::kImulRI};
        in.opcode = ops[NextRand(state) % (shape.all_alu_forms ? 8 : 7)];
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state));
        break;
      }
      case 9: {
        const Opcode ops[] = {Opcode::kShlRI, Opcode::kShrRI, Opcode::kSarRI};
        in.opcode = ops[NextRand(state) % 3];
        in.r1 = pick_reg();
        in.imm = static_cast<i32>(NextRand(state) % 32);
        break;
      }
      case 10: {
        const Opcode ops[] = {Opcode::kIncR, Opcode::kDecR, Opcode::kNegR, Opcode::kNotR};
        in.opcode = ops[NextRand(state) % 4];
        in.r1 = pick_reg();
        break;
      }
      case 11:  // push (bounded depth)
        if (depth < 24) {
          in.opcode = NextRand(state) % 2 ? Opcode::kPushR : Opcode::kPushI;
          in.r1 = pick_reg();
          in.imm = static_cast<i32>(NextRand(state));
          ++depth;
        } else {
          in.opcode = Opcode::kPopR;
          in.r1 = pick_reg();
          --depth;
        }
        break;
      case 12:  // reg-based memory op through a freshly anchored base
        if (remaining >= static_cast<u32>(depth) + 2) {
          Insn anchor;
          anchor.opcode = Opcode::kMovRI;
          anchor.r1 = static_cast<u8>(Reg::kEsi);
          anchor.imm = window_disp();
          body.push_back(anchor);
          in.opcode = NextRand(state) % 2 ? Opcode::kLoad : Opcode::kStore;
          in.r1 = pick_reg();
          in.r2 = static_cast<u8>(Reg::kEsi);
          in.size = pick_size();
          in.disp = static_cast<i32>(NextRand(state) % 16) - 8;
        } else {
          in.opcode = Opcode::kNop;
        }
        break;
      case 13: {  // conditional forward branch (targets stay inside the body,
                  // before the drain tail, so the loop counter always runs)
        const u32 lo = static_cast<u32>(body.size()) + 1;
        const u32 hi = body_len - static_cast<u32>(depth);
        if (hi <= lo) {
          in.opcode = Opcode::kNop;
          break;
        }
        const Opcode ops[] = {Opcode::kJe, Opcode::kJne, Opcode::kJb,  Opcode::kJae,
                              Opcode::kJl, Opcode::kJge, Opcode::kJs,  Opcode::kJns};
        in.opcode = ops[NextRand(state) % 8];
        in.imm = static_cast<i32>(body_base + (lo + NextRand(state) % (hi - lo)) * kInsnSize);
        break;
      }
      case 14:
        in.opcode = Opcode::kLea;
        in.r1 = pick_reg();
        in.r2 = pick_reg();
        in.scale = 0;
        in.disp = static_cast<i32>(NextRand(state) % 256);
        break;
      case 15: {  // forward unconditional jump (jump-shape families only),
                  // short, so an iteration still runs most of the body
        const u32 lo = static_cast<u32>(body.size()) + 1;
        const u32 hi = std::min(body_len - static_cast<u32>(depth), lo + 8);
        if (!shape.forward_jumps || hi <= lo) {
          in.opcode = Opcode::kNop;
          break;
        }
        in.opcode = Opcode::kJmp;
        in.imm = static_cast<i32>(body_base + (lo + NextRand(state) % (hi - lo)) * kInsnSize);
        break;
      }
    }
    body.push_back(in);
  }
  return body;
}

// Iterations every fuzz family runs at least: twice what a run head needs to
// heat up and finish its trace's probation. The trace tier's yield rule then
// demotes low-yield traces mid-run, inside the differential, so the engine
// switch itself is compared against the oracle.
inline constexpr u32 kFuzzMinIterations =
    2 * (Cpu::kTraceHotThreshold + Cpu::kTraceProbation);

// Counted loop around a fuzz body: ECX = iterations; body; dec/cmp/jne back
// to the body; hlt — or, for a top-tested `shape`, ECX = iterations;
// cmp/je out; body; dec/jmp back to the compare; out: hlt. Either way the
// body runs `iterations` times. Encoded for loading at `code_base`.
//
// `esp_reset`: when nonzero, the loop head reloads ESP with this value every
// iteration. A runtime-unbalanced body (forward branches skipping pushes or
// pops) drifts ESP by a bounded amount *per iteration*; without the reset
// that drift compounds across iterations and the stack excursion is
// effectively unbounded. The threaded-vs-interleaver differential needs every
// vCPU's stack accesses confined to a private region (data-race freedom is
// its precondition), so it caps the excursion to one iteration's worth. The
// uniprocessor and interleaver-only fuzzes pass 0 (no reset; their drift is
// identical on both sides of each differential, which is all they need).
inline std::vector<u8> EncodeLoopedFuzzProgram(u64 seed, u32 iterations, u32 body_len,
                                               u32 code_base, u32 data_base,
                                               u32 data_span, u32 esp_reset = 0,
                                               const FuzzShape& shape = FuzzShape{}) {
  u64 state = seed * 0x9E3779B97F4A7C15ull + 1;
  std::vector<Insn> program;
  Insn init;
  init.opcode = Opcode::kMovRI;
  init.r1 = static_cast<u8>(Reg::kEcx);
  init.imm = static_cast<i32>(iterations);
  program.push_back(init);
  // ESI starts window-interior so a branch that reaches a case-12 memory op
  // before the first anchor of the run still addresses the window.
  Insn esi_init;
  esi_init.opcode = Opcode::kMovRI;
  esi_init.r1 = static_cast<u8>(Reg::kEsi);
  esi_init.imm = static_cast<i32>(data_base);
  program.push_back(esi_init);
  u32 loop_base = code_base + 2 * kInsnSize;  // after the one-time inits
  if (esp_reset != 0) {
    Insn reset;
    reset.opcode = Opcode::kMovRI;
    reset.r1 = static_cast<u8>(Reg::kEsp);
    reset.imm = static_cast<i32>(esp_reset);
    program.push_back(reset);
  }
  Insn dec;
  dec.opcode = Opcode::kDecR;
  dec.r1 = static_cast<u8>(Reg::kEcx);
  Insn cmp;
  cmp.opcode = Opcode::kCmpRI;
  cmp.r1 = static_cast<u8>(Reg::kEcx);
  cmp.imm = 0;
  size_t je_index = 0;
  if (shape.top_tested) {
    program.push_back(cmp);
    je_index = program.size();
    Insn je;
    je.opcode = Opcode::kJe;  // target patched below, once `out` is known
    program.push_back(je);
  }
  const u32 body_base = code_base + static_cast<u32>(program.size()) * kInsnSize;
  std::vector<Insn> body =
      BuildFuzzBody(&state, body_base, body_len, data_base, data_span, shape);
  program.insert(program.end(), body.begin(), body.end());
  program.push_back(dec);
  if (shape.top_tested) {
    Insn jmp;
    jmp.opcode = Opcode::kJmp;
    jmp.imm = static_cast<i32>(loop_base);  // re-runs the ESP reset when present
    program.push_back(jmp);
    program[je_index].imm =
        static_cast<i32>(code_base + static_cast<u32>(program.size()) * kInsnSize);
  } else {
    program.push_back(cmp);
    Insn jne;
    jne.opcode = Opcode::kJne;
    jne.imm = static_cast<i32>(loop_base);  // re-runs the ESP reset when present
    program.push_back(jne);
  }
  Insn hlt;
  hlt.opcode = Opcode::kHlt;
  program.push_back(hlt);

  std::vector<u8> bytes(program.size() * kInsnSize);
  for (size_t i = 0; i < program.size(); ++i) {
    program[i].EncodeTo(bytes.data() + i * kInsnSize);
  }
  return bytes;
}

// A DataInCodePage program for `code_base`: the looped fuzz program whose
// data window is the unused tail of the code page at `window_page` — the
// program's own page, or a sibling's that holds a program of the same shape
// and length. Programs of one (body_len, esp_reset, shape) have one length,
// so the window never overlaps code.
inline std::vector<u8> EncodeDataInCodePageProgram(u64 seed, u32 iterations, u32 body_len,
                                                   u32 code_base, u32 window_page,
                                                   u32 esp_reset, const FuzzShape& shape) {
  // The window does not change the program's length: measure it first.
  const u32 bytes = static_cast<u32>(EncodeLoopedFuzzProgram(seed, iterations, body_len,
                                                              code_base, window_page,
                                                              kPageSize, esp_reset, shape)
                                         .size());
  // Generated accesses reach 8 bytes below the window base and 2 past its
  // end (see the threaded differential's WindowBase): keep both margins
  // inside the tail.
  const u32 tail = window_page + bytes;
  return EncodeLoopedFuzzProgram(seed, iterations, body_len, code_base, tail + 8,
                                 window_page + kPageSize - tail - 16, esp_reset, shape);
}

}  // namespace palladium

#endif  // TESTS_FUZZ_UTIL_H_
