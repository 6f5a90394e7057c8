// Preemptive-scheduler tests: round-robin interleaving under the hardware
// timer, voluntary yield, budget exhaustion with clean resume, and the
// legacy RunProcess path staying intact alongside the scheduler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/kernel/sched.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

// A program that stamps a host-side log via syscall 232 between spin bursts,
// then exits with its stamp value.
std::string StamperSource(u32 stamp, u32 bursts, u32 burst_len) {
  return R"(
  .global main
main:
  mov $)" + std::to_string(bursts) + R"(, %edi
outer:
  mov $232, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
  mov $)" + std::to_string(burst_len) + R"(, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  dec %edi
  cmp $0, %edi
  jne outer
  mov $SYS_EXIT, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
)";
}

TEST(Sched, RoundRobinInterleavesTwoCpuBoundProcesses) {
  // Pinned to one vCPU: the assertion is uniprocessor time-slicing (on an
  // SMP machine each process gets its own core and nobody is preempted).
  KernelFixture f(/*num_cpus=*/1);
  Scheduler::Config scfg;
  scfg.slice_cycles = 30'000;
  Scheduler sched(f.kernel(), scfg);

  std::vector<u32> log;
  f.kernel().RegisterSyscall(232, [&](Kernel& k, u32 ebx, u32, u32) {
    log.push_back(ebx);
    k.ReturnFromGate(0);
  });

  std::string diag;
  Pid a = f.LoadProgram(StamperSource(1, 40, 4'000), &diag);
  ASSERT_NE(a, 0u) << diag;
  Pid b = f.LoadProgram(StamperSource(2, 40, 4'000), &diag);
  ASSERT_NE(b, 0u) << diag;
  sched.AddProcess(a);
  sched.AddProcess(b);

  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(result.exited, 2u);
  EXPECT_EQ(result.killed, 0u);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(sched.stats().preemptions, 2u) << "timer preemption must have rotated the queue";

  // Interleaving: the stamp log must switch owners mid-stream (neither
  // process runs to completion before the other starts).
  u32 transitions = 0;
  for (size_t i = 1; i < log.size(); ++i) {
    if (log[i] != log[i - 1]) ++transitions;
  }
  EXPECT_GE(transitions, 3u) << "expected A/B alternation, got a serial run";
  EXPECT_EQ(f.kernel().process(a)->state, ProcessState::kExited);
  EXPECT_EQ(f.kernel().process(b)->state, ProcessState::kExited);
}

// PALLADIUM_HOST_THREADS has no effect on a Scheduler-driven machine (it
// picks the harness of RunSmp only), so a multi-vCPU RunAll under the knob
// must say so on stderr. The warning is once per process, so the check runs
// in a fresh child process (a threadsafe death test re-executes the binary).
TEST(Sched, HostThreadsKnobIgnoredByRunAllWarnsOnce) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("PALLADIUM_HOST_THREADS", "1", 1);
        KernelFixture f(/*num_cpus=*/2);
        Scheduler sched(f.kernel(), Scheduler::Config{});
        std::string diag;
        const Pid p = f.LoadProgram(StamperSource(1, 2, 100), &diag);
        f.kernel().RegisterSyscall(232, [](Kernel& k, u32, u32, u32) { k.ReturnFromGate(0); });
        sched.AddProcess(p);
        sched.RunAll(1'000'000'000ull);
        sched.RunAll(1'000'000'000ull);  // a second run stays quiet
        std::exit(p != 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "^palladium: PALLADIUM_HOST_THREADS is set, but Scheduler::RunAll steps its 2 vCPUs "
      "on the min-cycle interleaver; the knob applies to RunSmp only\n$");
}

TEST(Sched, YieldRotatesWithoutWaitingForSliceExpiry) {
  // Pinned to one vCPU: strict A/B rotation is a uniprocessor property.
  KernelFixture f(/*num_cpus=*/1);
  Scheduler::Config scfg;
  scfg.slice_cycles = 100'000'000;  // slices never expire on their own
  Scheduler sched(f.kernel(), scfg);

  std::vector<u32> log;
  f.kernel().RegisterSyscall(232, [&](Kernel& k, u32 ebx, u32, u32) {
    log.push_back(ebx);
    k.ReturnFromGate(0);
  });

  auto yielder = [](u32 stamp) {
    return R"(
  .global main
main:
  mov $6, %edi
loop:
  mov $232, %eax
  mov $)" + std::to_string(stamp) + R"(, %ebx
  int $0x80
  mov $222, %eax          ; SYS_YIELD
  int $0x80
  dec %edi
  cmp $0, %edi
  jne loop
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $0x80
)";
  };
  std::string diag;
  Pid a = f.LoadProgram(yielder(1), &diag);
  ASSERT_NE(a, 0u) << diag;
  Pid b = f.LoadProgram(yielder(2), &diag);
  ASSERT_NE(b, 0u) << diag;
  sched.AddProcess(a);
  sched.AddProcess(b);
  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(result.exited, 2u);
  // Perfect alternation: 1,2,1,2,...
  ASSERT_EQ(log.size(), 12u);
  for (size_t i = 2; i < log.size(); ++i) {
    EXPECT_EQ(log[i], log[i - 2]) << "yield must rotate strictly";
  }
  EXPECT_NE(log[0], log[1]);
}

TEST(Sched, BudgetExhaustionSavesStateAndResumes) {
  KernelFixture f;
  Scheduler sched(f.kernel());
  std::string diag;
  Pid pid = f.LoadProgram(StamperSource(9, 50, 20'000), &diag);
  ASSERT_NE(pid, 0u) << diag;
  sched.AddProcess(pid);

  auto first = sched.RunAll(100'000);
  EXPECT_TRUE(first.budget_exhausted);
  EXPECT_EQ(first.exited, 0u);
  ASSERT_EQ(f.kernel().process(pid)->state, ProcessState::kRunnable);

  auto second = sched.RunAll(~0ull);
  EXPECT_EQ(second.exited, 1u);
  EXPECT_EQ(f.kernel().process(pid)->exit_code, 9);
}

TEST(Sched, RunProcessStillWorksWithSchedulerAttached) {
  // The legacy single-process entry point must coexist with the scheduler
  // machinery (timer IRQs fire, watchdog runs, no preemption happens).
  KernelFixture f;
  Scheduler sched(f.kernel());
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $123456, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  mov $5, %ebx
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid);
  EXPECT_EQ(r.outcome, RunOutcome::kExited);
  EXPECT_EQ(r.exit_code, 5);
  EXPECT_GT(f.kernel().pic().delivered(kIrqTimer), 0u) << "timer IRQs were live";
}

TEST(Sched, CooperativeWatchdogUnchangedWithoutInterrupts) {
  // With no scheduler and no EnableTimerInterrupts, RunProcess must behave
  // exactly as before: kCycleLimit on budget exhaustion, no IRQ machinery.
  KernelFixture f;
  std::string diag;
  Pid pid = f.LoadProgram(R"(
  .global main
main:
  mov $100000000, %ecx
spin:
  dec %ecx
  cmp $0, %ecx
  jne spin
  mov $SYS_EXIT, %eax
  int $0x80
)",
                          &diag);
  ASSERT_NE(pid, 0u) << diag;
  RunResult r = f.Run(pid, 500'000);
  EXPECT_EQ(r.outcome, RunOutcome::kCycleLimit);
  EXPECT_EQ(f.kernel().pic().delivered(kIrqTimer), 0u);
  EXPECT_EQ(f.kernel().process(pid)->state, ProcessState::kRunnable);
}

}  // namespace
}  // namespace palladium
