#include "src/hw/physical_memory.h"

#include <sys/mman.h>

#include <new>

namespace palladium {

PhysicalMemory::PhysicalMemory(u32 size_bytes) : size_(size_bytes) {
  for (auto& slot : observers_) slot.store(nullptr, std::memory_order_relaxed);
  if (size_ == 0) return;
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bytes_ = static_cast<u8*>(p);
}

PhysicalMemory::~PhysicalMemory() {
  if (bytes_ != nullptr) munmap(bytes_, size_);
}

}  // namespace palladium
