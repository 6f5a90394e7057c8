// ext-compute: protected LibCGI. An SPL 2 application calls a seg_dlopen'd
// SPL 3 user extension once per request, closed loop on one vCPU with no
// devices. Each call checksums a buffer of seeded length; the application
// compares every result with the checksum the host computed, and the host
// re-reads every result after the run.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/asm/assembler.h"
#include "src/core/user_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/kernel/kernel.h"

namespace perfbench {
namespace {

using namespace palladium;

constexpr u32 kCalls = 16'000;  // per round
constexpr u32 kArenaBytes = 64 * 1024;  // buffers are slices of one seeded arena
constexpr u32 kMinLen = 16;
constexpr u32 kMaxLen = 16 * 1024;
constexpr u32 kRegionBase = 0x30000000;  // shared with the extension at PPL 1
constexpr u32 kEntryBytes = 16;          // {buffer, length, expected, result}
constexpr u32 kSysMark = 240;            // records the current cycle
constexpr u32 kSysReady = 241;           // parks the app once: set-up ends here
constexpr u32 kChunkCalls = 50;          // requests per RunClock chunk

u32 TableBytes() { return (kCalls * kEntryBytes + kPageSize - 1) & ~(kPageSize - 1); }
u32 RegionBytes() { return TableBytes() + kArenaBytes; }

// Fletcher-style running sums over bytes, wrapping at 32 bits; the SPL 3
// extension computes the same function in simulated code.
u32 HostChecksum(const u8* p, u32 len) {
  u32 s1 = 0, s2 = 0;
  for (u32 i = 0; i < len; ++i) {
    s1 += p[i];
    s2 += s1;
  }
  return (s2 << 16) ^ s1;
}

constexpr char kExtensionSource[] = R"(
  .global null_fn
null_fn:
  push %ebp
  mov %esp, %ebp
  pop %ebp
  ret

  .global checksum
checksum:                 ; arg: request entry {buffer, length, ...}
  push %ebp
  mov %esp, %ebp
  push %ebx
  push %esi
  push %edi
  ld 8(%ebp), %ebx
  ld 0(%ebx), %esi        ; buffer
  ld 4(%ebx), %ecx        ; length (>= 16, so the first pass is whole)
  mov $0, %eax            ; s1
  mov $0, %edx            ; s2
oct:                      ; eight bytes per iteration
  ld8 0(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 1(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 2(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 3(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 4(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 5(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 6(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  ld8 7(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  add $8, %esi
  sub $8, %ecx
  cmp $8, %ecx
  jae oct
tail:
  cmp $0, %ecx
  je done
  ld8 0(%esi), %edi
  add %edi, %eax
  add %eax, %edx
  inc %esi
  dec %ecx
  jmp tail
done:
  shl $16, %edx
  xor %edx, %eax
  pop %edi
  pop %esi
  pop %ebx
  pop %ebp
  ret
)";

// The LibCGI server. Loop state lives in memory, so nothing depends on
// which registers survive a protected call.
std::string AppSource() {
  const std::string n = std::to_string(kCalls);
  return R"(
  .equ REGION, )" + std::to_string(kRegionBase) + R"(
  .equ REGION_LEN, )" + std::to_string(RegionBytes()) + R"(
  .equ SYS_MARK, )" + std::to_string(kSysMark) + R"(
  .equ SYS_READY, )" + std::to_string(kSysReady) + R"(
  .global main
main:
  mov $200, %eax          ; SYS_INIT_PL
  int $0x80
  mov $201, %eax          ; SYS_SET_RANGE: share the region at PPL 1
  mov $REGION, %ebx
  mov $REGION_LEN, %ecx
  mov $1, %edx
  int $0x80
  cmp $0, %eax
  jne fail
  mov $212, %eax          ; SYS_SEG_DLOPEN
  mov $extname, %ebx
  int $0x80
  st %eax, handle
  mov $213, %eax          ; SYS_SEG_DLSYM
  ld handle, %ebx
  mov $nullname, %ecx
  int $0x80
  st %eax, nullfn
  mov $213, %eax
  ld handle, %ebx
  mov $sumname, %ecx
  int $0x80
  st %eax, sumfn
  ; null protected call, Table 1 style: warm twice, then an empty mark
  ; pair and a pair around one call
  ld nullfn, %eax
  push $0
  call *%eax
  pop %ecx
  ld nullfn, %eax
  push $0
  call *%eax
  pop %ecx
  mov $SYS_MARK, %eax
  int $0x80
  mov $SYS_MARK, %eax
  int $0x80
  mov $SYS_MARK, %eax
  int $0x80
  ld nullfn, %eax
  push $0
  call *%eax
  pop %ecx
  mov $SYS_MARK, %eax
  int $0x80
  mov $SYS_READY, %eax
  int $0x80
loop:
  mov $SYS_MARK, %eax     ; request issued
  int $0x80
  ld cur, %esi
  ld sumfn, %eax
  push %esi
  call *%eax
  pop %ecx
  ld cur, %esi
  st %eax, 12(%esi)       ; result
  ld 8(%esi), %ecx        ; expected
  cmp %ecx, %eax
  je ok
  ld bad, %ecx
  add $1, %ecx
  st %ecx, bad
ok:
  add $16, %esi
  st %esi, cur
  ld left, %ecx
  dec %ecx
  st %ecx, left
  jne loop
  mov $SYS_MARK, %eax
  int $0x80
  mov $1, %eax            ; SYS_EXIT with the mismatch count
  ld bad, %ebx
  int $0x80
fail:
  mov $1, %eax
  mov $99999, %ebx
  int $0x80
  .data
cur:
  .long REGION
left:
  .long )" + n + R"(
bad:
  .long 0
handle:
  .long 0
nullfn:
  .long 0
sumfn:
  .long 0
extname:
  .asciz "cgi"
nullname:
  .asciz "null_fn"
sumname:
  .asciz "checksum"
)";
}

class ExtWorkload : public Workload {
 public:
  explicit ExtWorkload(u64 seed) { Generate(seed); }
  RoundResult Round(Spans& spans, const Telemetry& telemetry) override;

 private:
  void Generate(u64 seed);

  std::vector<u8> arena_;
  std::vector<u32> table_;  // kCalls entries of {buffer, length, expected, 0}
};

void ExtWorkload::Generate(u64 seed) {
  Rng rng(seed);
  arena_.resize(kArenaBytes);
  for (u8& b : arena_) b = static_cast<u8>(rng.Next());
  const double lo = std::log(static_cast<double>(kMinLen));
  const double hi = std::log(static_cast<double>(kMaxLen));
  for (u32 i = 0; i < kCalls; ++i) {
    // Log-uniform lengths over 16 B - 16 KiB.
    const u32 len = std::clamp(static_cast<u32>(std::exp(lo + (hi - lo) * rng.Unit())), kMinLen,
                               kMaxLen);
    const u32 off = static_cast<u32>(rng.Below(kArenaBytes - len + 1));
    table_.push_back(kRegionBase + TableBytes() + off);
    table_.push_back(len);
    table_.push_back(HostChecksum(arena_.data() + off, len));
    table_.push_back(0);
  }
}

RoundResult ExtWorkload::Round(Spans& spans, const Telemetry& telemetry) {
  RoundResult r;
  const Stopwatch setup_clock;
  Scope round_span(spans, "round");
  auto setup_span = std::make_unique<Scope>(spans, "setup");

  std::unique_ptr<Machine> machine;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<DynamicLinker> dl;
  std::unique_ptr<UserExtensionRuntime> uext;
  std::vector<u64> marks;
  RunClock run_clock(kChunkCalls);
  bool parked = false;
  {
    Scope s(spans, "machine.boot");
    MachineConfig mcfg;
    mcfg.num_cpus = 1;
    mcfg.physical_memory_bytes = kMachineMemoryBytes;
    machine = std::make_unique<Machine>(mcfg);
    // The extension CPU-time watchdog samples the CPL once per slice, so
    // back-to-back calls that keep the CPU in the extension ~99% of the time
    // read as one endless call and draw SIGXCPU. Every call here is short
    // and checked, so the limit is lifted rather than the workload reshaped.
    Kernel::Config kcfg;
    kcfg.extension_cycle_limit = ~0ull / 2;
    kernel = std::make_unique<Kernel>(*machine, kcfg);
    dl = std::make_unique<DynamicLinker>(*kernel);
    uext = std::make_unique<UserExtensionRuntime>(*kernel, *dl);  // the seg_dl* syscalls
    kernel->RegisterSyscall(kSysMark, [&marks, &run_clock](Kernel& k, u32, u32, u32) {
      marks.push_back(k.cpu().cycles());
      if (marks.size() > 4) run_clock.Item();  // the first four are the null-call marks
      k.ReturnFromGate(0);
    });
    kernel->RegisterSyscall(kSysReady, [&parked](Kernel& k, u32, u32, u32) {
      if (parked) {
        k.ReturnFromGate(0);
        return;
      }
      parked = true;
      k.BlockCurrentForRestart();
    });
  }

  std::optional<LinkedImage> app;
  {
    Scope s(spans, "asm.assemble");
    AssembleError aerr;
    auto ext = Assemble(kExtensionSource, &aerr);
    if (!ext) {
      r.Fail("assemble extension: " + aerr.ToString());
      return r;
    }
    dl->RegisterObject("cgi", *ext);
    std::string diag;
    app = AssembleAndLink(AppSource(), kUserTextBase, {}, &diag);
    if (!app) {
      r.Fail("assemble app: " + diag);
      return r;
    }
  }

  Pid pid = 0;
  {
    Scope s(spans, "kernel.load_image");
    std::string diag;
    pid = kernel->CreateProcess();
    Process* proc = kernel->process(pid);
    if (pid == 0 || proc == nullptr || !kernel->LoadUserImage(pid, *app, "main", &diag) ||
        !kernel->AddArea(*proc, kRegionBase, kRegionBase + RegionBytes(),
                         kProtRead | kProtWrite, "bench") ||
        !kernel->PopulateRange(*proc, kRegionBase, kRegionBase + RegionBytes()) ||
        !kernel->CopyToUser(*proc, kRegionBase, table_.data(),
                            static_cast<u32>(table_.size() * 4)) ||
        !kernel->CopyToUser(*proc, kRegionBase + TableBytes(), arena_.data(), kArenaBytes)) {
      r.Fail("load app: " + diag);
      return r;
    }
  }
  {
    // The app's own start-up: init_PL, set_range, seg_dlopen/seg_dlsym and
    // the null-call marks, up to the point where it parks.
    Scope s(spans, "core.load");
    const RunResult boot = kernel->RunProcess(pid, 200'000'000);
    if (boot.outcome != RunOutcome::kBlocked || marks.size() != 4) {
      r.Fail("app start-up did not reach the request loop: " + boot.kill_reason);
      return r;
    }
  }
  setup_span.reset();
  r.setup_s = setup_clock.Seconds();
  r.extra["core.uext.null_call_cycles"] =
      static_cast<double>((marks[3] - marks[2]) - (marks[1] - marks[0]));

  // The cycle profiler attributes categories from the Scheduler loop, which
  // this workload does not use, so its buckets stay empty here.
  if (telemetry.profile != nullptr || telemetry.recorder != nullptr) {
    AttachTelemetry(*kernel, nullptr, telemetry);
  }
  std::map<std::string, u64> before;
  SnapshotCounters(*kernel, nullptr, nullptr, nullptr, nullptr, dl.get(), &before);
  Cpu& cpu = machine->cpu(0);
  const u64 start_cycles = cpu.cycles();

  RunResult run;
  {
    Scope s(spans, "run");
    run_clock.Start();
    {
      Scope ss(spans, "kernel.run_process");
      kernel->WakeProcess(*kernel->process(pid));
      run = kernel->RunProcess(pid, 40'000'000'000ull);
    }
    r.SetRun(run_clock.Stop());
  }
  Scope check_span(spans, "check");
  SnapshotCounters(*kernel, nullptr, nullptr, nullptr, nullptr, dl.get(), &r.final_counters);
  r.delta = CounterDelta(before, r.final_counters);
  r.num_cpus = 1;
  r.wall_cycles = cpu.cycles() - start_cycles;
  r.busy_cycles = r.wall_cycles;
  r.sim_insns = SumCpu(r.delta, "instructions_retired");
  r.attempted = kCalls;

  if (run.outcome != RunOutcome::kExited) {
    r.Fail("app did not exit: " + run.kill_reason);
    return r;
  }
  if (run.exit_code != 0) {
    r.Fail("the app saw " + std::to_string(run.exit_code) + " wrong checksums");
  }
  std::vector<u32> results(table_.size());
  if (!kernel->CopyFromUser(*kernel->process(pid), kRegionBase, results.data(),
                            static_cast<u32>(results.size() * 4))) {
    r.Fail("cannot read the results back");
    return r;
  }
  for (u32 i = 0; i < kCalls; ++i) {
    if (results[4 * i + 3] == table_[4 * i + 2]) {
      ++r.served;
    } else if (r.correct) {
      r.Fail("call " + std::to_string(i) + " returned a wrong checksum");
    }
  }
  if (marks.size() != 4 + kCalls + 1) {
    r.Fail("expected one mark per request");
    return r;
  }
  for (u32 i = 0; i < kCalls; ++i) {
    const u64 start = marks[4 + i], end = marks[5 + i];
    r.latencies.push_back(end - start);
    spans.Sim("call", i, start, end, 0);
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeExtWorkload(u64 seed) {
  return std::make_unique<ExtWorkload>(seed);
}

}  // namespace perfbench
