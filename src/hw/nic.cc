#include "src/hw/nic.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"

namespace palladium {

namespace {
// Frame field offsets (duplicated from src/net/packet.h to keep the hw layer
// free of net-layer includes; static_asserts in dataplane.cc pin them).
constexpr u32 kNicOffIpProto = 23;
constexpr u32 kNicOffIpSrc = 26;
constexpr u32 kNicOffSrcPort = 34;
}  // namespace

Nic::Nic(PhysicalMemory& pm, InterruptController& pic, u32 irq) : pm_(pm) {
  queues_.resize(1);
  queue_devices_.resize(kNicMaxQueues);
  for (u32 q = 0; q < kNicMaxQueues; ++q) queue_devices_[q].Bind(this, q);
  queues_[0].pic = &pic;
  queues_[0].rx_irq = irq;
  queues_[0].tx_irq = irq + 1;
}

void Nic::SetQueueCount(u32 n) {
  n = std::max(1u, std::min(n, kNicMaxQueues));
  InterruptController* const pic = queues_[0].pic;
  const u32 rx_irq = queues_[0].rx_irq;
  const u32 tx_irq = queues_[0].tx_irq;
  queues_.clear();
  queues_.resize(n);
  // Queue 0 keeps its wiring; fresh queues inherit it until WireQueue.
  for (Queue& q : queues_) {
    q.pic = pic;
    q.rx_irq = rx_irq;
    q.tx_irq = tx_irq;
  }
}

void Nic::WireQueue(u32 q, InterruptController* pic, u32 rx_irq, u32 tx_irq) {
  if (q >= queues_.size()) return;
  queues_[q].pic = pic;
  queues_[q].rx_irq = rx_irq;
  queues_[q].tx_irq = tx_irq;
}

void Nic::ConfigureRx(u32 q, const NicRing& ring) {
  if (q >= queues_.size()) return;
  queues_[q].rx = ring;
  queues_[q].rx_head = 0;
}

void Nic::ConfigureTx(u32 q, const NicRing& ring) {
  if (q >= queues_.size()) return;
  queues_[q].tx = ring;
  queues_[q].tx_head = 0;
  queues_[q].tx_complete_at.clear();
  queues_[q].tx_last_scheduled = 0;
}

u32 Nic::RssHash(const u8* frame, u32 len) {
  u32 h = 2166136261u;
  auto mix = [&h, frame](u32 off, u32 n) {
    for (u32 i = 0; i < n; ++i) {
      h ^= frame[off + i];
      h *= 16777619u;
    }
  };
  if (len >= kNicOffIpSrc + 8) mix(kNicOffIpSrc, 8);  // src + dst ip
  if (len > kNicOffIpProto) mix(kNicOffIpProto, 1);
  if (len >= kNicOffSrcPort + 4) mix(kNicOffSrcPort, 4);  // both ports
  // fmix32 avalanche: adjacent tuples (client n, port 1024+n) must not
  // collapse onto the same residue class mod small queue/worker counts.
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

void Nic::Inject(const u8* frame, u32 len, u64 at_cycle) {
  if (at_cycle < last_arrival_) at_cycle = last_arrival_;
  last_arrival_ = at_cycle;
  const u32 q =
      queues_.size() > 1 ? RssHash(frame, len) % static_cast<u32>(queues_.size()) : 0;
  Queue& queue = queues_[q];
  std::deque<ArenaChunk>& arena = queue.arena;
  const u32 rec = kArrivalHeader + ((len + 3) & ~3u);
  // Every chunk but the newest holds unread records; a drained newest chunk
  // is refilled from its start, or replaced if the record outgrows it.
  if (!arena.empty() && arena.back().read == arena.back().used) {
    arena.back().used = arena.back().read = 0;
    if (arena.back().size < rec) arena.pop_back();
  }
  if (arena.empty() || arena.back().size - arena.back().used < rec) {
    ArenaChunk chunk;
    chunk.size = std::max(rec, kArenaChunkBytes);
    chunk.bytes.reset(new u8[chunk.size]);
    arena.push_back(std::move(chunk));
  }
  ArenaChunk& chunk = arena.back();
  u8* const record = chunk.bytes.get() + chunk.used;
  std::memcpy(record, &at_cycle, 8);
  std::memcpy(record + 8, &len, 4);
  if (len != 0) std::memcpy(record + kArrivalHeader, frame, len);
  chunk.used += rec;
  if (queue.next_arrival == kIdle) queue.next_arrival = at_cycle;
  // Both hub attachments must see the new arrival: the whole-device view
  // (single-hub harnesses) and the per-queue device on the owning core.
  NotifyHub();
  queue_devices_[q].Poke();
}

bool Nic::DmaRxFrame(Queue& queue, const u8* frame, u32 len) {
  if (queue.rx.count == 0) return false;
  const u32 desc = queue.rx.desc_phys + queue.rx_head * kNicDescBytes;
  u32 status = 0, buf = 0;
  if (!pm_.Read32(desc + kNicDescStatus, &status) || status != kDescOwn) return false;
  if (!pm_.Read32(desc + kNicDescBuf, &buf)) return false;
  len = std::min(len, queue.rx.buf_stride);
  if (!pm_.WriteBlock(buf, frame, len)) return false;
  pm_.Write32(desc + kNicDescLen, len);
  pm_.Write32(desc + kNicDescStatus, kDescDone);
  queue.rx_head = (queue.rx_head + 1) % queue.rx.count;
  ++stats_.rx_frames;
  ++queue.rx_count;
  stats_.rx_bytes += len;
  return true;
}

u32 Nic::CompleteOneTx(Queue& queue) {
  const u32 desc = queue.tx.desc_phys + queue.tx_head * kNicDescBytes;
  u32 status = 0, len = 0, buf = 0;
  u32 sent = 0;
  if (pm_.Read32(desc + kNicDescStatus, &status) && status == kDescOwn) {
    pm_.Read32(desc + kNicDescLen, &len);
    pm_.Read32(desc + kNicDescBuf, &buf);
    len = std::min(len, queue.tx.buf_stride);
    if (pm_.Contains(buf, len)) {
      LogTx(buf, len);
      ++stats_.tx_frames;
      stats_.tx_bytes += len;
      sent = len;
    }
    pm_.Write32(desc + kNicDescStatus, kDescDone);
  }
  // A descriptor reclaimed (or misprogrammed) under a scheduled completion
  // still advances the engine; the schedule entry is consumed either way.
  queue.tx_head = queue.tx.count > 0 ? (queue.tx_head + 1) % queue.tx.count : 0;
  return sent;
}

void Nic::LogTx(u32 buf, u32 len) {
  const u64 rec = 4 + ((static_cast<u64>(len) + 3) & ~3ull);
  if (rec > kTxLogBytes) {  // cannot be kept: the log restarts empty
    tx_log_head_ = tx_log_tail_;
    tx_log_count_ = 0;
    return;
  }
  if (!tx_log_) tx_log_.reset(new u8[kTxLogBytes]);
  while (tx_log_tail_ + rec - tx_log_head_ > kTxLogBytes) {
    u32 old = 0;
    std::memcpy(&old, &tx_log_[tx_log_head_ % kTxLogBytes], 4);
    tx_log_head_ += 4 + ((old + 3) & ~3u);
    --tx_log_count_;
  }
  const u32 at = static_cast<u32>(tx_log_tail_ % kTxLogBytes);
  std::memcpy(&tx_log_[at], &len, 4);
  const u32 off = (at + 4) % kTxLogBytes;
  const u32 first = std::min(len, kTxLogBytes - off);
  const u8* src = pm_.HostData() + buf;
  if (first != 0) std::memcpy(&tx_log_[off], src, first);
  if (len != first) std::memcpy(&tx_log_[0], src + first, len - first);
  tx_log_tail_ += rec;
  ++tx_log_count_;
}

std::vector<u8> Nic::tx_log_frame(u32 i) const {
  if (i >= tx_log_count_) return {};
  u64 pos = tx_log_head_;
  u32 len = 0;
  for (;;) {
    std::memcpy(&len, &tx_log_[pos % kTxLogBytes], 4);
    if (i-- == 0) break;
    pos += 4 + ((len + 3) & ~3u);
  }
  std::vector<u8> out(len);
  const u32 off = static_cast<u32>((pos + 4) % kTxLogBytes);
  const u32 first = std::min(len, kTxLogBytes - off);
  if (first != 0) std::memcpy(out.data(), &tx_log_[off], first);
  if (len != first) std::memcpy(out.data() + first, &tx_log_[0], len - first);
  return out;
}

u64 Nic::QueueNextEvent(u32 q) const {
  const Queue& queue = queues_[q];
  u64 next = queue.next_arrival;
  if (!queue.tx_complete_at.empty()) next = std::min(next, queue.tx_complete_at.front());
  if (queue.rx_irq_due != kIdle) next = std::min(next, queue.rx_irq_due);
  return next;
}

void Nic::AdvanceQueue(u32 q, u64 now) {
  Queue& queue = queues_[q];
  while (queue.next_arrival != kIdle && queue.next_arrival <= now) {
    const u64 at = queue.next_arrival;
    const u8* const record = queue.arena.front().bytes.get() + queue.arena.front().read;
    u32 len = 0;
    std::memcpy(&len, record + 8, 4);
    // Oversize frames never land truncated-but-"complete": the wire drops
    // them (no jumbo support), the same as a ring with no free descriptor.
    if (len > queue.rx.buf_stride) {
      ++stats_.rx_dropped;
    } else if (DmaRxFrame(queue, record + kArrivalHeader, len)) {
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, at, obs::EventType::kFrameDma,
                          obs::EventClass::kArch, q, len);
      }
      if (queue.rx_irq_enabled) {
        if (rx_irq_moderation_ == 0) {
          if (queue.pic != nullptr) queue.pic->Raise(queue.rx_irq);
          if (recorder_ != nullptr) {
            recorder_->Record(obs_first_track_ + q, at, obs::EventType::kIrqRaise,
                              obs::EventClass::kArch, queue.rx_irq, q);
          }
        } else if (queue.rx_irq_due == kIdle) {
          // ITR: arm the moderation timer — the first DMA after a quiet
          // period fires as soon as the gate allows; frames landing while
          // the timer is armed share the one interrupt.
          queue.rx_irq_due = std::max(at, queue.rx_irq_gate);
        }
      } else {
        // NAPI masked window: latch the edge for re-enable time.
        queue.rx_irq_deferred = true;
        ++stats_.rx_irqs_deferred;
      }
    } else {
      // No free descriptor (or a misconfigured ring): the wire does not
      // wait — the frame is dropped, silently from the driver's view.
      ++stats_.rx_dropped;
    }
    // Consume the record, freeing its chunk once drained unless Inject is
    // still appending to it, and expose the next record's cycle.
    ArenaChunk* chunk = &queue.arena.front();
    chunk->read += kArrivalHeader + ((len + 3) & ~3u);
    if (chunk->read == chunk->used && queue.arena.size() > 1) {
      queue.arena.pop_front();
      chunk = &queue.arena.front();
    }
    queue.next_arrival = kIdle;
    if (chunk->read != chunk->used) {
      std::memcpy(&queue.next_arrival, chunk->bytes.get() + chunk->read, 8);
    }
  }
  if (queue.rx_irq_due != kIdle && queue.rx_irq_due <= now) {
    if (queue.rx_irq_enabled && queue.pic != nullptr) {
      queue.pic->Raise(queue.rx_irq);
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, queue.rx_irq_due,
                          obs::EventType::kIrqRaise, obs::EventClass::kArch,
                          queue.rx_irq, q);
      }
    }
    queue.rx_irq_gate = queue.rx_irq_due + rx_irq_moderation_;
    queue.rx_irq_due = kIdle;
  }
  bool completed = false;
  while (!queue.tx_complete_at.empty() && queue.tx_complete_at.front() <= now) {
    const u64 at = queue.tx_complete_at.front();
    const u32 sent = CompleteOneTx(queue);
    if (recorder_ != nullptr) {
      recorder_->Record(obs_first_track_ + q, at, obs::EventType::kFrameTx,
                        obs::EventClass::kArch, q, sent);
    }
    queue.tx_complete_at.pop_front();
    completed = true;
  }
  if (completed) {
    if (queue.tx_irq_enabled) {
      // One coalesced TX-completion edge per Advance that retired work.
      if (queue.pic != nullptr) queue.pic->Raise(queue.tx_irq);
      ++stats_.tx_completion_irqs;
      if (recorder_ != nullptr) {
        recorder_->Record(obs_first_track_ + q, now, obs::EventType::kIrqRaise,
                          obs::EventClass::kArch, queue.tx_irq, q);
      }
    } else {
      ++stats_.tx_irqs_suppressed;
    }
  }
}

u64 Nic::next_event() const {
  u64 next = kIdle;
  for (u32 q = 0; q < queues_.size(); ++q) next = std::min(next, QueueNextEvent(q));
  return next;
}

void Nic::Advance(u64 now) {
  for (u32 q = 0; q < queues_.size(); ++q) AdvanceQueue(q, now);
}

void Nic::SetRxIrqEnabled(u32 q, bool enabled) {
  if (q >= queues_.size()) return;
  Queue& queue = queues_[q];
  queue.rx_irq_enabled = enabled;
  if (enabled && queue.rx_irq_deferred) {
    queue.rx_irq_deferred = false;
    // The deferred edge only matters if work is still sitting in the ring:
    // a poll loop that already drained the masked-window DMAs must not eat
    // a spurious interrupt. The hardware knows — it scans its own ring for
    // descriptors it completed (kDescDone) that the driver has not yet
    // returned (kDescOwn).
    bool undrained = false;
    for (u32 i = 0; i < queue.rx.count; ++i) {
      u32 status = 0;
      if (pm_.Read32(queue.rx.desc_phys + i * kNicDescBytes + kNicDescStatus, &status) &&
          status == kDescDone) {
        undrained = true;
        break;
      }
    }
    if (undrained && queue.pic != nullptr) queue.pic->Raise(queue.rx_irq);
  }
}

void Nic::SetTxIrqEnabled(u32 q, bool enabled) {
  if (q >= queues_.size()) return;
  queues_[q].tx_irq_enabled = enabled;
}

u32 Nic::TxKick(u32 q, u64 now) {
  if (q >= queues_.size()) return 0;
  Queue& queue = queues_[q];
  if (queue.tx.count == 0) return 0;
  // Ready descriptors not yet scheduled start after the pending window.
  u32 scanned = static_cast<u32>(queue.tx_complete_at.size());
  u32 accepted = 0;
  u64 at = std::max(now, queue.tx_last_scheduled);
  while (scanned < queue.tx.count) {
    const u32 idx = (queue.tx_head + scanned) % queue.tx.count;
    const u32 desc = queue.tx.desc_phys + idx * kNicDescBytes;
    u32 status = 0;
    if (!pm_.Read32(desc + kNicDescStatus, &status) || status != kDescOwn) break;
    at += tx_dma_cycles_;
    queue.tx_complete_at.push_back(at);
    queue.tx_last_scheduled = at;
    ++scanned;
    ++accepted;
  }
  if (accepted > 0) {
    NotifyHub();
    queue_devices_[q].Poke();
  }
  return accepted;
}

u64 Nic::NextTxCompletion(u32 q) const {
  if (q >= queues_.size() || queues_[q].tx_complete_at.empty()) return kIdle;
  return queues_[q].tx_complete_at.front();
}

void Nic::FlushTx() {
  for (Queue& queue : queues_) {
    while (!queue.tx_complete_at.empty()) {
      CompleteOneTx(queue);
      queue.tx_complete_at.pop_front();
    }
  }
}

}  // namespace palladium
