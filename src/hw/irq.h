// The asynchronous half of the simulated machine: a prioritized interrupt
// controller (vector latch / mask / ack / EOI, 8259-style fixed priority),
// the device interface, and the IrqHub that the CPU polls at instruction-
// retire boundaries.
//
// Determinism contract: every device event is keyed off the CPU's *cycle
// counter*, which the decode-cache and D-TLB fast paths keep byte-identical
// to the per-byte oracle. The CPU consults the hub only between retired
// instructions, so interrupt delivery points — and therefore every
// downstream architectural effect — are identical in all four
// fast-path/oracle combinations.
#ifndef SRC_HW_IRQ_H_
#define SRC_HW_IRQ_H_

#include <array>
#include <vector>

#include "src/hw/types.h"

namespace palladium {

class IrqHub;

// Fixed-priority interrupt controller: IRQ 0 is the highest priority. An
// IRQ line is *deliverable* when it is pending, not masked, and strictly
// higher priority than every in-service line (the classic nesting rule). In
// auto-EOI mode the in-service bit is never set, for handlers written in
// simulated code with no way to signal completion (there is no MMIO).
class InterruptController {
 public:
  static constexpr u32 kNumIrqs = 16;
  static constexpr int kNoIrq = -1;

  explicit InterruptController(u8 vector_base = 0x20) : vector_base_(vector_base) {}

  u8 vector_base() const { return vector_base_; }
  u32 VectorFor(u32 irq) const { return vector_base_ + irq; }

  // Latches the line (idempotent while already pending, like an edge that
  // arrives before the previous one was serviced: the two coalesce).
  void Raise(u32 irq);

  void SetMasked(u32 irq, bool masked);

  bool HasDeliverable() const { return DeliverableIrq() != kNoIrq; }

  // Claims the highest-priority deliverable IRQ: clears pending, sets
  // in-service (unless auto-EOI), returns its *vector*. kNoIrq when nothing
  // is deliverable.
  int Acknowledge();

  // Ends the highest-priority in-service interrupt.
  void Eoi();

  // Auto-EOI: Acknowledge never sets in-service (bare-machine handlers
  // written in simulated code cannot issue an EOI).
  void set_auto_eoi(bool v) { auto_eoi_ = v; }

  u16 pending() const { return pending_; }
  u16 in_service() const { return in_service_; }

  u64 raised(u32 irq) const { return raised_[irq & (kNumIrqs - 1)]; }
  u64 delivered(u32 irq) const { return delivered_[irq & (kNumIrqs - 1)]; }

  void set_hub(IrqHub* hub) { hub_ = hub; }

 private:
  int DeliverableIrq() const;

  u8 vector_base_;
  u16 pending_ = 0;
  u16 mask_ = 0;
  u16 in_service_ = 0;
  bool auto_eoi_ = false;
  std::array<u64, kNumIrqs> raised_{};
  std::array<u64, kNumIrqs> delivered_{};
  IrqHub* hub_ = nullptr;
};

// A device on the simulated interrupt fabric. Devices are pure functions of
// the cycle counter: next_event() names the next cycle at which the device
// has work, Advance(now) performs every event up to and including `now`
// (DMA, raising IRQ lines). Host-side configuration between runs is fine;
// nothing may depend on host time or call order within a cycle.
//
// A device added to an IrqHub must call NotifyHub() after any mutation that
// changes next_event() (a reprogrammed timer, an injected frame): the hub
// caches the next attention cycle, and a schedule change it never hears
// about would otherwise go undelivered forever.
class IrqDevice {
 public:
  virtual ~IrqDevice() = default;
  static constexpr u64 kIdle = ~0ull;
  virtual u64 next_event() const = 0;
  virtual void Advance(u64 now) = 0;

  void set_hub(IrqHub* hub) { hub_ = hub; }

 protected:
  inline void NotifyHub();

 private:
  IrqHub* hub_ = nullptr;
};

// Aggregates the PIC and the devices behind one cheap per-instruction probe:
// the CPU reads attention_cycle() (one load + compare) and only calls Poll
// when the counter has reached it. Host-side mutations (a raise from kernel
// code, an EOI, a reprogrammed timer) call Poke() so the next boundary
// re-evaluates.
class IrqHub {
 public:
  explicit IrqHub(InterruptController& pic) : pic_(pic) { pic_.set_hub(this); }

  void AddDevice(IrqDevice* device) {
    devices_.push_back(device);
    device->set_hub(this);
    Poke();
  }

  // Detach a device whose lifetime ends before the hub's (the NIC is owned
  // by the harness, not the kernel).
  void RemoveDevice(IrqDevice* device) {
    for (auto it = devices_.begin(); it != devices_.end(); ++it) {
      if (*it == device) {
        devices_.erase(it);
        device->set_hub(nullptr);
        break;
      }
    }
    Poke();
  }

  InterruptController& pic() { return pic_; }

  u64 attention_cycle() const { return attention_; }
  void Poke() { attention_ = 0; }

  // Advances every device to `now`, then, if delivery is allowed (the CPU
  // passes its IF flag) and the PIC has a deliverable line, acknowledges it
  // and returns the vector; otherwise recomputes attention_ and returns
  // kNoIrq. Called by the CPU at retire boundaries once cycles >= attention.
  int Poll(u64 now, bool allow_delivery);

  // Device time without delivery (the kernel's idle loop, and masked-IF
  // catch-up). Leaves attention_ primed.
  void AdvanceDevices(u64 now);

  // Earliest upcoming device event, kIdle when every device is quiescent.
  u64 NextDeviceEvent() const;

  // Same, ignoring one device — the scheduler's idle loop uses this to skip
  // the free-running interval timer (whose ticks cannot wake anybody) when
  // deciding whether a wakeup source exists at all.
  u64 NextDeviceEventExcept(const IrqDevice* skip) const;

 private:
  void Recompute(u64 now);

  InterruptController& pic_;
  std::vector<IrqDevice*> devices_;
  u64 attention_ = 0;  // re-evaluate as soon as the CPU looks
};

inline void IrqDevice::NotifyHub() {
  if (hub_ != nullptr) hub_->Poke();
}

}  // namespace palladium

#endif  // SRC_HW_IRQ_H_
