#include "src/kernel/sched.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "src/hw/smp.h"
#include "src/obs/profile.h"

namespace palladium {

Scheduler::Scheduler(Kernel& kernel) : Scheduler(kernel, Config{}) {}

Scheduler::Scheduler(Kernel& kernel, const Config& config)
    : kernel_(kernel), config_(config), cpus_(kernel.machine().num_cpus()) {
  kernel_.set_scheduler(this);
  kernel_.EnableTimerInterrupts();
}

Scheduler::~Scheduler() {
  if (kernel_.scheduler() == this) kernel_.set_scheduler(nullptr);
}

void Scheduler::AddProcess(Pid pid) {
  AddProcess(pid, next_home_++ % static_cast<u32>(cpus_.size()));
}

void Scheduler::AddProcess(Pid pid, u32 home_cpu) {
  if (home_cpu >= cpus_.size()) home_cpu = 0;
  Process* proc = kernel_.process(pid);
  if (proc != nullptr) {
    if (proc->sched_queued) return;
    proc->home_cpu = home_cpu;
  }
  Enqueue(home_cpu, pid, kernel_.cpu().cycles(), /*front=*/false);
}

void Scheduler::Enqueue(u32 c, Pid pid, u64 stamp, bool front) {
  if (front) {
    cpus_[c].ready.push_front(ReadyEntry{pid, stamp});
  } else {
    cpus_[c].ready.push_back(ReadyEntry{pid, stamp});
  }
  Process* proc = kernel_.process(pid);
  if (proc != nullptr) proc->sched_queued = true;
}

bool Scheduler::OnTimerTick() {
  ++stats_.timer_ticks;
  const u32 c = kernel_.machine().current_cpu_index();
  return kernel_.cpu().cycles() - cpus_[c].slice_start >= config_.slice_cycles &&
         !cpus_[c].ready.empty();
}

void Scheduler::OnWake(Pid pid) {
  Process* proc = kernel_.process(pid);
  if (proc != nullptr && proc->sched_queued) return;
  const u32 home =
      proc != nullptr && proc->home_cpu < cpus_.size() ? proc->home_cpu : 0;
  const u32 cur_cpu = kernel_.machine().current_cpu_index();
  if (kernel_.stage_remote_ops() && home != cur_cpu) {
    // Threaded mode: a cross-CPU wakeup must not touch the sibling's ready
    // queue mid-epoch. Stage it (with the waker's stamp, preserving
    // causality); the barrier drain enqueues it and kicks the target with a
    // resched IPI if it is busy — delivery no later than the next barrier.
    if (proc != nullptr) proc->sched_queued = true;  // dedupe repeat wakes
    kernel_.StageRemoteOp(
        home, Kernel::RemoteOp{Kernel::RemoteOp::Kind::kWake, pid, 0,
                               kernel_.cpu().cycles()});
    return;
  }
  // Stamp with the waking vCPU's clock: the wakee must not start in the past.
  Enqueue(home, pid, kernel_.cpu().cycles(), /*front=*/false);
  // Cross-CPU wakeup onto a busy core: kick it with a reschedule IPI so the
  // wakee is considered at the target's next retire boundary instead of
  // waiting out the running process's slice. The waker's own core needs no
  // kick (it re-evaluates on return), and an idle core is dispatched by the
  // RunAll loop directly.
  if (home != cur_cpu && kernel_.current(home) != nullptr) {
    kernel_.SendIpi(home, kIrqIpiResched);
  }
}

void Scheduler::ApplyStagedWake(u32 target_cpu, Pid pid, u64 stamp) {
  // Barrier-drain half of the staged OnWake above: runs in the quiesced
  // serial window with current_cpu == target (Kernel::DrainRemoteOps), so
  // the direct enqueue and the busy-core resched kick are safe again.
  Enqueue(target_cpu, pid, stamp, /*front=*/false);
  if (kernel_.current(target_cpu) != nullptr) {
    kernel_.SendIpi(target_cpu, kIrqIpiResched);
  }
}

Pid Scheduler::PopRunnable(std::deque<ReadyEntry>& queue, bool from_back, u64* stamp) {
  while (!queue.empty()) {
    ReadyEntry e;
    if (from_back) {
      e = queue.back();
      queue.pop_back();
    } else {
      e = queue.front();
      queue.pop_front();
    }
    Process* proc = kernel_.process(e.pid);
    if (proc != nullptr) proc->sched_queued = false;
    if (proc != nullptr && proc->state == ProcessState::kRunnable) {
      *stamp = e.stamp;
      return e.pid;
    }
    // Exited, killed, or a stale entry: drop it.
  }
  return 0;
}

bool Scheduler::Dispatch(u32 c, u64 deadline) {
  Machine& m = kernel_.machine();
  if (m.cpu(c).cycles() >= deadline) return false;  // this vCPU is out of budget
  u64 stamp = 0;
  Pid pid = PopRunnable(cpus_[c].ready, /*from_back=*/false, &stamp);
  if (pid == 0 && config_.work_stealing && cpus_.size() > 1) {
    // Steal from the back of the longest sibling queue.
    u32 victim = static_cast<u32>(cpus_.size());
    size_t best = 0;
    for (u32 v = 0; v < cpus_.size(); ++v) {
      if (v == c || cpus_[v].ready.size() <= best) continue;
      best = cpus_[v].ready.size();
      victim = v;
    }
    if (victim != cpus_.size()) {
      pid = PopRunnable(cpus_[victim].ready, /*from_back=*/true, &stamp);
      if (pid != 0) {
        ++stats_.steals;
        ++cpus_[c].stats.steals;
      }
    }
  }
  if (pid == 0) {
    // Adopt a stray runnable (a fork child, or a process woken outside
    // OnWake): it joins this vCPU at the current frontier. The scan is
    // O(processes × vCPUs) but runs only when this vCPU found nothing to
    // run or steal, and process counts in this kernel are tens at most;
    // keeping it here (rather than only in the machine-idle path) is what
    // lets a fork child start while its parent keeps a sibling core busy.
    for (const auto& [p, proc] : kernel_.processes_) {
      if (proc->state != ProcessState::kRunnable || proc->sched_queued) continue;
      bool is_current = false;
      for (u32 cc = 0; cc < cpus_.size(); ++cc) {
        if (kernel_.current(cc) == proc.get()) is_current = true;
      }
      if (is_current) continue;
      pid = p;
      stamp = kernel_.cpu().cycles();
      break;
    }
    if (pid == 0) return false;
  }

  Process* proc = kernel_.process(pid);
  proc->home_cpu = c;
  Cpu& cpu = m.cpu(c);
  // Causality: a process enqueued at cycle S on another core cannot start
  // before S on this one; an idle core's lagging clock snaps forward.
  if (stamp > cpu.cycles()) {
    obs::CycleProfile* prof = kernel_.profiler();
    if (prof != nullptr && prof->enabled()) {
      // The skipped span is idle time on this core, not kernel work.
      prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kIdle);
      cpu.set_cycles(stamp);
      prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kKernel);
    } else {
      cpu.set_cycles(stamp);
    }
  }
  m.set_current_cpu(c);
  kernel_.SwitchTo(*proc);
  ++stats_.context_switches;
  ++cpus_[c].stats.context_switches;
  cpus_[c].slice_start = cpu.cycles();
  return true;
}

void Scheduler::ServiceParked(u32 c, u64 event_cycle, bool machine_idle) {
  Machine& m = kernel_.machine();
  m.set_current_cpu(c);
  Cpu& cpu = m.cpu(c);
  if (event_cycle > cpu.cycles()) {
    // The span this vCPU skips was idle time on this core whether or not
    // the rest of the machine was busy — counting only whole-machine idle
    // under-reported idle on any loaded SMP run (and reported 0 for a
    // saturated N=1 run that still parked between bursts).
    stats_.idle_cycles += event_cycle - cpu.cycles();
    if (machine_idle) ++stats_.idle_jumps;
    obs::CycleProfile* prof = kernel_.profiler();
    if (prof != nullptr && prof->enabled()) {
      prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kIdle);
      cpu.set_cycles(event_cycle);
      prof->Set(c, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kKernel);
    } else {
      cpu.set_cycles(event_cycle);
    }
  }
  kernel_.ServicePendingIrqsHostSide();
}

namespace {

// PALLADIUM_HOST_THREADS selects the threaded harness for RunSmp only; a
// Scheduler always steps its vCPUs on the min-cycle interleaver. Say so,
// once per process, rather than ignore the knob silently.
void WarnHostThreadsIgnored(u32 num_cpus) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "palladium: PALLADIUM_HOST_THREADS is set, but Scheduler::RunAll steps its "
               "%u vCPUs on the min-cycle interleaver; the knob applies to RunSmp only\n",
               num_cpus);
}

}  // namespace

Scheduler::RunAllResult Scheduler::RunAll(u64 cycle_budget) {
  Machine& m = kernel_.machine();
  const u32 n = static_cast<u32>(cpus_.size());
  if (n > 1 && HostThreadsEnabled()) WarnHostThreadsIgnored(n);
  u64 start_max = 0;
  for (u32 c = 0; c < n; ++c) start_max = std::max(start_max, m.cpu(c).cycles());
  const u64 deadline = cycle_budget == ~0ull ? ~0ull : start_max + cycle_budget;
  RunAllResult result;
  obs::CycleProfile* prof = kernel_.profiler();
  if (prof != nullptr && prof->enabled()) {
    for (u32 c = 0; c < n; ++c) {
      prof->Begin(c, m.cpu(c).cycles(), m.cpu(c).tlb_stats().misses,
                  obs::Category::kKernel);
    }
  }

  for (;;) {
    // (1) Hand work to idle vCPUs: own queue, steal, adopt.
    for (u32 c = 0; c < n; ++c) {
      if (kernel_.current(c) == nullptr) Dispatch(c, deadline);
    }

    // (2) Survey. Active vCPUs: the frontier (minimum counter) runs next.
    // Parked vCPUs: the earliest interrupt-fabric event (an already-latched
    // deliverable line counts as "now") competes with the frontier.
    u32 run_cpu = n;
    u64 min_active = ~0ull, second_active = ~0ull;
    u32 ev_cpu = n;
    u64 ev_cycle = ~0ull;
    for (u32 c = 0; c < n; ++c) {
      if (kernel_.current(c) != nullptr) {
        const u64 cy = m.cpu(c).cycles();
        if (run_cpu == n || cy < min_active) {
          second_active = min_active;
          min_active = cy;
          run_cpu = c;
        } else {
          second_active = std::min(second_active, cy);
        }
      } else {
        u64 ev;
        if (kernel_.pic(c).HasDeliverable()) {
          ev = m.cpu(c).cycles();
        } else {
          // This vCPU's own free-running timer cannot wake anybody; only
          // real device events (NIC arrivals, ...) count as wakeup sources.
          ev = kernel_.irq_hub(c).NextDeviceEventExcept(&kernel_.timer(c));
          if (ev == IrqDevice::kIdle) continue;
        }
        if (ev < ev_cycle) {
          ev_cycle = ev;
          ev_cpu = c;
        }
      }
    }
    const bool have_active = run_cpu != n;
    const bool have_event = ev_cpu != n && ev_cycle < deadline;

    if (!have_active) {
      if (have_event) {
        ServiceParked(ev_cpu, ev_cycle, /*machine_idle=*/true);
        continue;
      }
      if (result.budget_exhausted) break;  // every vCPU ran out of budget
      bool any_blocked = false, any_runnable = false;
      for (const auto& [p, proc] : kernel_.processes_) {
        (void)p;
        if (proc->state == ProcessState::kBlocked) any_blocked = true;
        if (proc->state == ProcessState::kRunnable) any_runnable = true;
      }
      if (any_runnable) {
        // Nothing active and nothing dispatchable, yet a runnable process
        // exists: Dispatch refused it because every vCPU is out of budget
        // (e.g. an event service charged a clock past the deadline after
        // waking a sleeper). That is budget exhaustion, not completion.
        result.budget_exhausted = true;
        break;
      }
      if (!any_blocked) break;  // everything has finished
      if (ev_cpu != n) {
        // A wakeup source exists but lies beyond the budget horizon.
        result.budget_exhausted = true;
        break;
      }
      if (idle_hook_ && idle_hook_()) continue;
      result.deadlocked = true;
      break;
    }

    // (3) A parked vCPU's event at or before the frontier is serviced first
    // (its NIC drain / IPI ack happens "while" the others compute).
    if (have_event && ev_cycle <= min_active) {
      ServiceParked(ev_cpu, ev_cycle, /*machine_idle=*/false);
      continue;
    }

    // (4) Run the frontier vCPU until it stops being the laggard (bounded
    // by the interleave quantum), the next parked event, or the deadline.
    m.set_current_cpu(run_cpu);
    Cpu& cpu = m.cpu(run_cpu);
    u64 stop_at = deadline;
    if (second_active != ~0ull) {
      stop_at = std::min(stop_at, second_active + config_.smp_quantum_cycles);
    }
    if (have_event) stop_at = std::min(stop_at, ev_cycle + 1);
    if (stop_at <= min_active) stop_at = min_active + 1;

    if (prof != nullptr && prof->enabled()) {
      prof->Set(run_cpu, cpu.cycles(), cpu.tlb_stats().misses,
                obs::Category::kUser);
    }
    StopInfo stop = cpu.Run(stop_at);
    if (prof != nullptr && prof->enabled()) {
      prof->Set(run_cpu, cpu.cycles(), cpu.tlb_stats().misses,
                obs::Category::kKernel);
    }
    if (stop.reason == StopReason::kCycleLimit) {
      if (cpu.cycles() >= deadline) {
        const Pid pid = kernel_.current(run_cpu)->pid;
        kernel_.SaveCurrent();
        kernel_.current_[run_cpu] = nullptr;
        Enqueue(run_cpu, pid, cpu.cycles(), /*front=*/true);  // resumes first
        result.budget_exhausted = true;
      }
      continue;  // interleave rotation
    }

    const Pid pid = kernel_.current(run_cpu)->pid;
    const StopAction action = kernel_.DispatchStop(stop);
    switch (action) {
      case StopAction::kContinue:
        continue;  // the process stays resident on this vCPU
      case StopAction::kPreempt:
        kernel_.SaveCurrent();
        kernel_.current_[run_cpu] = nullptr;
        Enqueue(run_cpu, pid, cpu.cycles(), /*front=*/false);
        // Distinguish a voluntary sys_yield from an involuntary slice-expiry
        // preemption in the stats (both arrive here as kPreempt).
        if (yield_pending_) {
          yield_pending_ = false;
          ++stats_.yields_or_blocks;
        } else {
          ++stats_.preemptions;
          ++cpus_[run_cpu].stats.preemptions;
        }
        break;
      case StopAction::kBlocked:
        // Context was saved by BlockCurrentForRestart; a wake re-queues it.
        kernel_.current_[run_cpu] = nullptr;
        ++stats_.yields_or_blocks;
        break;
      case StopAction::kTerminated:
        kernel_.current_[run_cpu] = nullptr;
        break;
    }
  }

  if (prof != nullptr && prof->enabled()) {
    for (u32 c = 0; c < n; ++c) {
      prof->Finish(c, m.cpu(c).cycles(), m.cpu(c).tlb_stats().misses);
    }
  }

  for (const auto& [p, proc] : kernel_.processes_) {
    (void)p;
    switch (proc->state) {
      case ProcessState::kExited:
        ++result.exited;
        break;
      case ProcessState::kKilled:
        ++result.killed;
        break;
      case ProcessState::kBlocked:
        ++result.blocked;
        break;
      case ProcessState::kRunnable:
        break;
    }
  }
  u64 end_max = 0;
  for (u32 c = 0; c < n; ++c) end_max = std::max(end_max, m.cpu(c).cycles());
  result.cycles = end_max - start_max;
  return result;
}

}  // namespace palladium
