#include "src/isa/decode_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace palladium {

namespace {

// The segment-override rule, resolved at decode time: an explicit override
// wins; the default picks SS for ESP/EBP-based addressing and DS otherwise.
// The returned value indexes the CPU's segment-register file, so it must
// follow SegReg's enum order.
static_assert(static_cast<u8>(SegReg::kCs) == 0 && static_cast<u8>(SegReg::kSs) == 1 &&
                  static_cast<u8>(SegReg::kDs) == 2 && static_cast<u8>(SegReg::kEs) == 3,
              "ResolveSegIdx and DecodedInsn::seg_idx bake in SegReg enum order");
u8 ResolveSegIdx(const Insn& insn) {
  switch (insn.seg) {
    case SegOverride::kCs:
      return 0;
    case SegOverride::kSs:
      return 1;
    case SegOverride::kDs:
      return 2;
    case SegOverride::kEs:
      return 3;
    case SegOverride::kNone:
      break;
  }
  const bool stackish = insn.r2 != kNoBaseReg &&
                        (static_cast<Reg>(insn.r2) == Reg::kEsp ||
                         static_cast<Reg>(insn.r2) == Reg::kEbp);
  return stackish ? 1 : 2;
}

}  // namespace

void FillExecInfo(DecodedInsn& d, const CycleModel::CostTable& costs) {
  const u16 op = static_cast<u16>(d.insn.opcode);
  d.dispatch = op;
  d.seg_idx = ResolveSegIdx(d.insn);
  d.is_stack = d.seg_idx == 1;
  d.cost = costs.base[op];
}

DecodeCache::Page* DecodeCache::GetOrBuild(const PhysicalMemory& pm, u32 frame) {
  const u32 pfn = PageNumber(frame);
  auto it = pages_.find(pfn);
  if (it != pages_.end()) {
    retired_.clear();
    return it->second.get();
  }

  // Safe point: no decoded instruction is mid-execution while the CPU is
  // fetching, so pages retired by earlier invalidations can really be freed
  // — all but this frame's own, which is rebuilt in place from its image.
  std::unique_ptr<Page> page;
  for (auto& r : retired_) {
    if (r->pfn == pfn) {
      page = std::move(r);
      break;
    }
  }
  retired_.clear();

  if (pages_.size() >= kMaxPages) {
    for (auto& entry : pages_) {
      retired_.push_back(std::move(entry.second));
      ++stats_.evictions;
    }
    pages_.clear();
    std::fill(has_code_.begin(), has_code_.end(), 0);
    generation_.fetch_add(1, std::memory_order_release);
  }

  assert(costs_ != nullptr && "DecodeCache::set_cost_table must be called first");
  const bool fresh = page == nullptr;
  if (fresh) {
    page = std::make_unique<Page>();
    page->pfn = pfn;
  } else {
    ++stats_.recycled;
  }
  Build(*page, pm, frame, fresh);

  ++stats_.builds;
  if (has_code_.size() <= pfn) has_code_.resize(pfn + 1, 0);
  has_code_[pfn] = 1;
  Page* raw_page = page.get();
  pages_.emplace(pfn, std::move(page));
  return raw_page;
}

void DecodeCache::Build(Page& page, const PhysicalMemory& pm, u32 frame, bool fresh) {
  u32 first = kSlotsPerPage;
  u32 last = 0;
  // Most rebuilds in place find nothing changed: a stub saving a register
  // that holds the value it saved last time.
  const bool unchanged = !fresh && pm.Contains(frame, kPageSize) &&
                         std::memcmp(page.image.data(), pm.HostData() + frame, kPageSize) == 0;
  for (u32 slot = unchanged ? kSlotsPerPage : 0; slot < kSlotsPerPage; ++slot) {
    DecodedInsn& d = page.slots[slot];
    const u32 phys = frame + slot * kInsnSize;
    if (!pm.Contains(phys, kInsnSize)) {
      // Physical memory never changes size: only a fresh page needs this.
      if (!fresh) continue;
      d.state = DecodedInsn::State::kBusError;
      d.dispatch = kDispatchBusError;
      d.fault_offset = static_cast<u8>(pm.size() > phys ? pm.size() - phys : 0);
    } else {
      u8* seen = page.image.data() + slot * kInsnSize;
      const u8* now = pm.HostData() + phys;
      if (!fresh && std::memcmp(seen, now, kInsnSize) == 0) continue;
      std::memcpy(seen, now, kInsnSize);
      d = DecodedInsn{};  // undecodable unless the bytes decode
      ++stats_.slots_decoded;
      if (auto decoded = Insn::Decode(seen)) {
        d.state = DecodedInsn::State::kDecoded;
        d.insn = *decoded;
        FillExecInfo(d, *costs_);
      }
    }
    first = std::min(first, slot);
    last = slot;
  }

  // A slot's run_len and run_cost_max read only the slots its longest run
  // sums over: itself and the next kMaxBlockInsns - 2 (a run's final slot
  // adds nothing to run_cost_max, and at the cap it does not decide
  // run_len). So a changed slot c moves the runs of slots
  // [c - (kMaxBlockInsns - 2), c] and no others.
  if (first <= last) {
    Link(page, first > kMaxBlockInsns - 2 ? first - (kMaxBlockInsns - 2) : 0, last);
  }
  for (DecodedInsn& d : page.slots) {
    d.hot = 0;
    d.trace = kTraceNone;
  }
  page.traces.clear();
}

void DecodeCache::Link(Page& page, u32 lo, u32 hi) const {
  // Backward pass: link slots into basic-block runs. A run is the maximal
  // straight-line slot sequence the block engine may execute before
  // re-deciding; it ends at (and includes) a terminator, ends *before*
  // nothing — non-decodable slots simply start their own length-1 "run"
  // whose dispatch raises the architectural fault. run_cost_max sums the
  // worst-case cycle charge of every *non-terminator, non-final* member:
  // the boundary after the run's last slot is always checked by the engine
  // (terminators yield or chain through a checked edge, completed runs hit
  // the checked run boundary), so only the interior boundaries need the
  // pre-proved bound. The windowed sum (suffix-sum difference) keeps the
  // bound tight for runs clamped at kMaxBlockInsns — an inflated bound
  // would only cost performance (needless one-instruction careful mode near
  // a frontier), never correctness.
  // Worst-case per-slot charge: base cost plus the two-TLB-miss bound for
  // memory traffic; terminators and non-decodable slots charge 0 here
  // because the boundary after them is always checked.
  //
  // The pass starts kMaxBlockInsns slots above `hi` (or at the page end), so
  // every run it writes is long enough to reach the cap: the runs of the
  // slots above `hi` it merely reads are computed, not written.
  const u32 top = std::min(hi + kMaxBlockInsns, kSlotsPerPage);
  std::array<u32, kSlotsPerPage + 1> suffix_worst;
  suffix_worst[top] = 0;
  u32 run = 0;
  for (u32 s = top; s-- > lo;) {
    DecodedInsn& d = page.slots[s];
    const bool decoded = d.state == DecodedInsn::State::kDecoded;
    u32 worst = 0;
    if (decoded && !IsBlockTerminator(d.insn.opcode)) {
      worst = d.cost + (TouchesMemSeq(d.insn.opcode) ? costs_->mem_extra_bound : 0);
    }
    suffix_worst[s] = worst + suffix_worst[s + 1];
    if (!decoded || IsBlockTerminator(d.insn.opcode) || s == kSlotsPerPage - 1) {
      run = 1;
    } else {
      run = std::min(run + 1, kMaxBlockInsns);
    }
    if (s > hi) continue;
    d.run_len = static_cast<u8>(run);
    // Interior members are slots s .. s+run-2; their worst-case sum is the
    // suffix difference (the run's last slot contributes nothing).
    d.run_cost_max = suffix_worst[s] - suffix_worst[s + run - 1];
  }
}

void DecodeCache::Retire(u32 pfn) {
  auto it = pages_.find(pfn);
  if (it == pages_.end()) return;
  retired_.push_back(std::move(it->second));
  pages_.erase(it);
  has_code_[pfn] = 0;
  generation_.fetch_add(1, std::memory_order_release);
  ++stats_.write_invalidations;
}

void DecodeCache::EvictFrame(u32 frame) {
  const u32 pfn = PageNumber(frame);
  if (pfn < has_code_.size() && has_code_[pfn] != 0) Retire(pfn);
}

void DecodeCache::InvalidateAll() {
  for (auto& page : retired_) page->pfn = kNoPfn;
  if (pages_.empty()) return;
  for (auto& entry : pages_) {
    entry.second->pfn = kNoPfn;
    retired_.push_back(std::move(entry.second));
  }
  pages_.clear();
  std::fill(has_code_.begin(), has_code_.end(), 0);
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace palladium
